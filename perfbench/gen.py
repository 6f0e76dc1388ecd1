"""Seeded input generator for the benchmark workloads.

Every workload's inputs are a pure function of (workload, seed): the same
seed writes byte-identical files. The generator never imports taxoforge, so a
change to the program cannot change what the benchmark feeds it. It writes
per-typology CSV datasets, a lexicon, a knowledge base where the workload
needs its own, and a config that points at them.

Canonical names are built first, to the exact count; surface variants (case,
whitespace, punctuation, the ``access`` synonym) are added on top and fold
back onto those names under the packaged normalization rules.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

SPACE_TYPES = ("P", "S", "U", "G", "O", "F")

# Public-space vocabulary for the paper-scale and ingest corpora. It covers
# the packaged KB's domain and subcategory keywords plus plain terms that
# match no keyword, so classify sees both matched and unmatched factors.
BASE_TERMS = (
    "comfort", "thermal comfort", "physical comfort", "acoustic comfort",
    "visual comfort", "temperature", "microclimate", "humidity", "shade",
    "visibility", "lighting", "views", "glare", "noise", "soundscape", "quiet",
    "seating", "benches", "ergonomics", "safety", "security", "surveillance",
    "protection", "crime prevention", "emergency", "personal safety",
    "perceived safety", "natural surveillance", "cctv", "monitoring",
    "accessibility", "wayfinding", "navigation", "wheelchair access",
    "barrier-free", "physical access", "universal design", "signage",
    "legibility", "natural elements", "water features", "vegetation",
    "biodiversity", "ecology", "wildlife", "greenery", "fountains", "aquatic",
    "water quality", "trees", "planting", "habitat", "infrastructure",
    "facilities", "basic facilities", "utilities", "street furniture",
    "restrooms", "drinking water", "shelters", "social interaction",
    "inclusion", "social inclusion", "inclusive design", "community",
    "community building", "equity", "gathering", "management", "maintenance",
    "operations", "governance", "cleanliness", "upkeep", "policy",
    "regulation", "activities", "programming", "events", "recreation",
    "vitality", "economic", "affordability", "cost", "economic accessibility",
    "property value", "pricing", "environmental", "sustainability", "climate",
    "climate resilience", "air quality", "design", "urban design",
    "spatial layout", "form", "human scale", "design quality", "layout",
    "spatial configuration", "aesthetics", "landscape features",
    "visual quality", "beauty", "scenery", "landscape", "illumination",
    "ada compliance", "playgrounds", "parking", "transit", "cycling",
    "walkability", "heritage", "public art", "markets", "vending",
    "dog parks", "sports fields", "toilets", "wifi", "shade structures",
    "paving", "drainage", "wind", "sunlight", "privacy", "ownership",
    "identity", "imageability", "enclosure", "permeability", "continuity",
)

MODIFIERS = (
    "perceived", "daytime", "nighttime", "pedestrian", "local", "public",
    "overall", "adequate", "seasonal", "neighbourhood", "visitor", "resident",
    "child", "elderly", "evening", "weekend", "informal", "shared", "green",
    "urban", "street", "park", "waterfront", "plaza", "quality of", "level of",
    "provision of", "access to", "sense of", "lack of", "year round",
    "inclusive", "active", "passive", "natural", "formal", "temporary",
    "permanent", "community led", "municipal",
)

# Lexicon fields shipped with every generated lexicon: semantic groupings of
# the vocabulary above (ten fields, the size of the packaged lexicon).
BASE_FIELDS = {
    "protection": ["safety", "security", "surveillance", "protection",
                   "crime prevention", "street travel safety"],
    "access": ["accessibility", "access", "barrier-free", "wheelchair access",
               "physical access", "ada compliance", "universal design"],
    "inclusion": ["accessibility", "inclusion", "social inclusion",
                  "inclusive design", "equity"],
    "comfort": ["comfort", "thermal comfort", "physical comfort",
                "acoustic comfort", "visual comfort"],
    "thermal conditions": ["thermal comfort", "temperature", "microclimate",
                           "humidity", "shade"],
    "visual environment": ["lighting", "visibility", "illumination",
                           "visual comfort"],
    "surveillance visibility": ["lighting", "visibility",
                                "natural surveillance", "surveillance",
                                "monitoring"],
    "public utilities": ["lighting", "illumination", "utilities",
                         "street furniture", "basic facilities"],
    "water": ["water features", "fountains", "aquatic", "water quality"],
    "ecology": ["biodiversity", "vegetation", "ecology", "wildlife",
                "natural elements", "habitat", "greenery"],
}

# Bridge fields: each names one keyword from three different packaged-KB
# domains, so every factor name placed in the field is relevant to all three
# and is flagged cross-cutting. Their size sets the paper's ~12% share without
# adding one field per factor.
BRIDGE_KEYWORDS = (
    ("comfort", "safety", "accessibility"),
    ("vegetation", "sustainability", "scenery"),
    ("community", "events", "management"),
    ("facilities", "design", "affordability"),
)

# Surface forms that fold back onto the canonical name under the packaged
# rules: case folding, whitespace collapsing, and stripping of ".,;:()/&"
# and of hyphens at word boundaries.
def _variant(name: str, rng: random.Random) -> str:
    kind = rng.randrange(8)
    if kind == 0:
        return name
    if kind == 1:
        return name.title()
    if kind == 2:
        return name.upper()
    if kind == 3:
        return "  " + name.replace(" ", "   ") + " "
    if kind == 4:
        return name + rng.choice((".", ";", ":", " -", ","))
    if kind == 5:
        return "(" + name.capitalize() + ")"
    if kind == 6:
        return name.replace(" ", rng.choice((", ", "/", " & ", " - ")))
    return name.capitalize() + "."


def _canonical_names(rng: random.Random, count: int) -> list[str]:
    """Exactly ``count`` distinct canonical names: base terms, then compounds."""
    names = list(BASE_TERMS)
    rng.shuffle(names)
    names = names[: min(len(names), count // 8)]
    seen = set(names)
    while len(names) < count:
        name = f"{rng.choice(MODIFIERS)} {rng.choice(BASE_TERMS)}"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _type_weights(rng: random.Random) -> list[float]:
    """A factor's preference over the six typologies."""
    return [rng.random() ** 3 for _ in SPACE_TYPES]


def _write_datasets(out: Path, rows: list[tuple[str, str, str]]) -> dict:
    by_type: dict[str, list[tuple[str, str, str]]] = {c: [] for c in SPACE_TYPES}
    for row in rows:
        by_type[row[2]].append(row)
    datasets = {}
    for code, type_rows in by_type.items():
        if not type_rows:
            continue
        path = out / f"dataset_{code}.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("raw_name", "study_id", "space_type"))
            writer.writerows(type_rows)
        datasets[code] = path.name
    return datasets


def _write_lexicon(path: Path, fields: dict[str, list[str]]) -> None:
    # JSON is a subset of YAML, and json.dumps quotes every term safely.
    lines = ["# Generated lexicon.", "version: 1", "field_score: 0.85", "fields:"]
    for field, terms in fields.items():
        lines.append(f"  {json.dumps(field)}: {json.dumps(terms)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_config(out: Path, datasets: dict, jobs: int, kb: str | None) -> None:
    lines = ["# Generated benchmark config.", "datasets:"]
    lines += [f"  {code}: {name}" for code, name in datasets.items()]
    lines += ["lexicon: lexicon.yaml", "out: out", f"jobs: {jobs}"]
    if kb is not None:
        lines.append(f"kb: {kb}")
    (out / "config.yaml").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _records(
    rng: random.Random,
    names: list[str],
    total: int,
    studies: int,
    skew: float,
    variant_rate: float,
) -> list[tuple[str, str, str]]:
    """One record per name first, then ``total - len(names)`` extra records
    drawn with a Zipf-like skew so a few factors span many typologies."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(names))]
    prefs = [_type_weights(rng) for _ in names]
    picks = list(range(len(names)))
    picks += rng.choices(range(len(names)), weights=weights, k=total - len(names))
    rows = []
    for index in picks:
        name = names[index]
        raw = _variant(name, rng) if rng.random() < variant_rate else name
        if name == "accessibility" and rng.random() < 0.5:
            raw = _variant("access", rng)
        code = rng.choices(SPACE_TYPES, weights=prefs[index])[0]
        rows.append((raw, f"s{rng.randrange(studies):04d}", code))
    return rows


def generate_paper(out: Path, seed: int) -> dict:
    """1,029 canonical factors from ~1,500 records, packaged KB and rules."""
    rng = random.Random(f"paper:{seed}")
    names = _canonical_names(rng, 1029)
    fields = {k: list(v) for k, v in BASE_FIELDS.items()}
    compounds = [n for n in names if n not in BASE_TERMS]
    members = rng.sample(compounds, 108)
    for number, keywords in enumerate(BRIDGE_KEYWORDS):
        fields[f"bridge {number + 1}"] = list(keywords) + members[number::4]
    rows = _records(rng, names, 1500, studies=400, skew=1.1, variant_rate=0.5)
    datasets = _write_datasets(out, rows)
    _write_lexicon(out / "lexicon.yaml", fields)
    _write_config(out, datasets, jobs=2, kb=None)
    return {"records": len(rows), "canonical_factors": len(names),
            "lexicon_fields": len(fields), "jobs": 2}


def generate_ingest(out: Path, seed: int) -> dict:
    """200k noisy records folding into the 133 base terms, 50-study pool."""
    rng = random.Random(f"ingest:{seed}")
    names = list(BASE_TERMS)
    rng.shuffle(names)
    rows = _records(rng, names, 200_000, studies=50, skew=0.6, variant_rate=0.9)
    datasets = _write_datasets(out, rows)
    _write_lexicon(out / "lexicon.yaml", BASE_FIELDS)
    _write_config(out, datasets, jobs=1, kb=None)
    return {"records": len(rows), "canonical_factors": len(names),
            "lexicon_fields": len(BASE_FIELDS), "jobs": 1}


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    """Distinct three-syllable words, so no two domains share a keyword."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def generate_rich_kb(out: Path, seed: int) -> dict:
    """144 factors (3 per domain) against a generated 48-domain KB and lexicon."""
    rng = random.Random(f"rich-kb:{seed}")
    domain_count, per_domain, factors_per_domain = 48, 8, 3
    words = _pseudo_words(rng, domain_count * per_domain)
    vocab = [words[d * per_domain : (d + 1) * per_domain] for d in range(domain_count)]

    kb_lines = ["# Generated knowledge base.", "version: 1", "placement_overrides: {}",
                "domains:"]
    names: list[str] = []
    seen: set[str] = set()
    for d, w in enumerate(vocab):
        keywords = w[:4] + [f"{w[0]} {w[4]}", f"{w[1]} {w[5]}"]
        subs = [
            {"id": f"D{d:02d} SUB A", "keywords": [w[0], w[2], w[6]]},
            {"id": f"D{d:02d} SUB B", "keywords": [w[1], w[3], w[7]]},
            {"id": f"D{d:02d} SUB C", "keywords": [w[4], w[5]]},
        ]
        profile = {code: round(rng.random(), 2) or 0.1 for code in SPACE_TYPES}
        compatible = [code for code in SPACE_TYPES if rng.random() < 0.4]
        domain = {
            "id": f"D{d:02d}",
            "scope": rng.choice(("broad", "moderate", "specialized")),
            "keywords": keywords,
            "space_profile": profile,
            "compatible_types": compatible,
            "literature_support": {"strong": [w[0]], "none": [w[7]]},
            "subcategories": subs,
        }
        kb_lines.append(f"  - {json.dumps(domain)}")
        drawn = 0
        while drawn < factors_per_domain:
            pool = w + [f"{rng.choice(MODIFIERS)} {rng.choice(w)}"] * 3
            name = rng.choice(pool)
            if name not in seen:
                seen.add(name)
                names.append(name)
                drawn += 1
    rng.shuffle(names)
    fields = {f"field {d:02d}": list(w) for d, w in enumerate(vocab)}
    members = rng.sample([n for n in names if " " in n], 18)
    for number in range(6):
        triple = rng.sample(range(domain_count), 3)
        fields[f"bridge {number + 1}"] = [vocab[d][0] for d in triple] + members[number::6]
    rows = _records(rng, names, 225, studies=200, skew=1.0, variant_rate=0.5)
    datasets = _write_datasets(out, rows)
    (out / "kb.yaml").write_text("\n".join(kb_lines) + "\n", encoding="utf-8")
    _write_lexicon(out / "lexicon.yaml", fields)
    _write_config(out, datasets, jobs=1, kb="kb.yaml")
    return {"records": len(rows), "canonical_factors": len(names),
            "lexicon_fields": len(fields), "kb_domains": domain_count, "jobs": 1}


def generate(workload: str, out: Path, seed: int) -> dict:
    """Write one workload's inputs and config.yaml under ``out``."""
    out.mkdir(parents=True)
    if workload == "paper":
        return generate_paper(out, seed)
    if workload == "ingest":
        return generate_ingest(out, seed)
    if workload == "rich-kb":
        return generate_rich_kb(out, seed)
    raise ValueError(f"unknown workload {workload!r}")
