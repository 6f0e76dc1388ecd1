"""Acceptance gate: one test per shipped criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each test pins its stated tolerance; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from taxoforge import cli, emit
from taxoforge.applicability import coverage, indicator
from taxoforge.classify import (
    CrossCuttingStatus,
    FactorClass,
    entropy,
)
from taxoforge.corpus import SPACE_TYPES, load_corpus
from taxoforge.integrate import OccurrenceVector, integrate
from taxoforge.placement import PlacementTier, by_keywords, place
from taxoforge.similarity import ComponentScores, SimilarityWeights, combine, pair_count
from tests.conftest import FIXTURES, make_factor
from tests.test_emit import delete_factor, duplicate_primary
from tests.test_integrate import WORKED_FACTOR_ORDER, WORKED_VECTORS


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_c1_integration_fixture_reproduction(default_rules):
    with criterion(1, "worked-example fixture integrates to the exact tracking vectors"):
        corpus = load_corpus(FIXTURES / "sample_corpus.csv")
        started = time.perf_counter()
        factor_set = integrate(corpus, default_rules)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        assert factor_set.unique_count == 11
        assert list(factor_set.names) == WORKED_FACTOR_ORDER
        by_name = dict(zip(factor_set.names, factor_set.factors))
        for name, expected in WORKED_VECTORS.items():
            full = {code: expected.get(code, 0) for code in "PSUGOF"}
            counts = by_name[name].occurrence.counts
            assert dict(zip(SPACE_TYPES, counts)) == full, name


def test_c2_combiner_reproduction():
    rows = [
        ((0.85, 0.53, 0.91), 0.77),
        ((0.62, 0.88, 0.74), 0.72),
        ((0.08, 0.05, 0.02), 0.06),
        ((0.94, 0.85, 0.88), 0.91),
        ((0.95, 0.92, 0.89), 0.93),
    ]
    with criterion(2, "all five worked component triples blend to the printed scores (±0.015)"):
        for components, expected in rows:
            blended = combine(ComponentScores(*components), SimilarityWeights())
            assert blended == pytest.approx(expected, abs=0.015), components


def test_c3_entropy_reproduction(sample_framework):
    with criterion(3, "entropy matches the uniform rows (±0.005) and computes 1.427 for the skewed row"):
        uniform = {
            ("P", "S", "U", "O", "F"): 1.61,
            ("P", "U", "O", "F"): 1.39,
            ("P", "O", "U"): 1.10,
            ("P", "G"): 0.69,
            ("S",): 0.00,
        }
        for types, expected in uniform.items():
            vector = OccurrenceVector.from_mapping({code: 1 for code in types})
            assert entropy(vector) == pytest.approx(expected, abs=0.005)
        skewed = OccurrenceVector.from_mapping(
            {"P": 1, "S": 1, "U": 1, "O": 4, "F": 2}
        )
        total = 9
        oracle = -sum(
            (c / total) * math.log(c / total) for c in (1, 1, 1, 4, 2)
        )
        assert entropy(skewed) == pytest.approx(1.427, abs=0.001)
        assert entropy(skewed) == pytest.approx(oracle, abs=1e-12)
        # the conflicting printed value (1.52) is surfaced as a first-class note
        _, report = sample_framework
        assert any(
            note["id"] == "entropy-row" and "1.52" in note["note"]
            for note in report["paper_discrepancy_notes"]
        )


def test_c4_classification_fixture(classification_fixture):
    with criterion(4, "the 12-factor fixture reproduces every class label and the three pinned flags"):
        by_name = {r.name: r for r in classification_fixture}
        expected_classes = {
            "safety": FactorClass.UNIVERSAL,
            "accessibility": FactorClass.UNIVERSAL,
            "comfort": FactorClass.UNIVERSAL,
            "security": FactorClass.UNIVERSAL,
            "thermal comfort": FactorClass.MULTI_SPACE,
            "physical comfort": FactorClass.MULTI_SPACE,
            "lighting": FactorClass.MULTI_SPACE,
            "visibility": FactorClass.MULTI_SPACE,
            "temperature": FactorClass.MULTI_SPACE,
            "street travel safety": FactorClass.SPACE_SPECIFIC,
            "water features": FactorClass.SPACE_SPECIFIC,
            "biodiversity": FactorClass.SPACE_SPECIFIC,
        }
        for name, expected in expected_classes.items():
            assert by_name[name].factor_class is expected, name
        census = Counter(r.factor_class for r in classification_fixture)
        assert [census[c] for c in FactorClass] == [4, 5, 3]
        assert not by_name["safety"].cross_cutting.flagged
        assert by_name["safety"].cross_cutting.status is CrossCuttingStatus.LIMITED
        assert by_name["accessibility"].cross_cutting.flagged
        assert (
            by_name["accessibility"].cross_cutting.status
            is CrossCuttingStatus.VERY_HIGH
        )
        assert by_name["lighting"].cross_cutting.flagged
        assert by_name["lighting"].cross_cutting.status is CrossCuttingStatus.HIGH


def test_c5_coverage_and_indicators(default_kb):
    rows = [
        ("accessibility", {"P": 1, "S": 1, "U": 1, "O": 4, "F": 2},
         FactorClass.UNIVERSAL, "ACCESSIBILITY",
         Fraction(5, 6), "Universal (with emphasis: O, F)"),
        ("safety", {"P": 1, "S": 1, "U": 1, "O": 1, "F": 1},
         FactorClass.UNIVERSAL, "SAFETY & SECURITY",
         Fraction(5, 6), "Universal – All Space Types"),
        ("thermal comfort", {"P": 1, "O": 1, "F": 1},
         FactorClass.MULTI_SPACE, "COMFORT",
         Fraction(3, 6), "Strong: P, O, F | Moderate: U, G | Minimal: S"),
        ("water features", {"P": 1},
         FactorClass.SPACE_SPECIFIC, "NATURAL ELEMENTS",
         Fraction(1, 6), "Space-specific: P"),
        ("lighting", {"P": 1, "S": 1, "O": 1},
         FactorClass.MULTI_SPACE, "SAFETY & SECURITY",
         Fraction(3, 6), "Multi-space: P, S, O"),
    ]
    with criterion(5, "the five worked coverage fractions and indicator strings reproduce verbatim"):
        for name, counts, cls, domain, frac, text in rows:
            factor = make_factor(name, counts)
            assert coverage(factor.occurrence) == pytest.approx(float(frac))
            assert indicator(factor, cls, domain, default_kb).text == text, name


def test_c6_placement_protocol(default_kb, default_lexicon, sample_framework):
    composites = {
        "lighting": [
            ("SAFETY & SECURITY", 0.904),
            ("COMFORT", 0.895),
            ("INFRASTRUCTURE", 0.788),
        ],
        "accessibility": [
            ("ACCESSIBILITY", 0.942),
            ("SOCIAL", 0.823),
            ("INFRASTRUCTURE", 0.756),
            ("ECONOMIC", 0.694),
        ],
        "maintenance": [
            ("MANAGEMENT", 0.910),
            ("INFRASTRUCTURE", 0.850),
            ("ENVIRONMENTAL", 0.810),
        ],
        "natural elements": [
            ("NATURAL ELEMENTS", 0.934),
            ("SPATIAL AESTHETICS", 0.721),
        ],
        "wayfinding": [("ACCESSIBILITY", 0.856), ("DESIGN & FORM", 0.782)],
        "community engagement": [
            ("SOCIAL", 0.887),
            ("ACTIVITY", 0.798),
            ("MANAGEMENT", 0.743),
        ],
    }
    published_tiers = {
        "lighting": ["primary", "secondary", "tertiary"],
        "maintenance": ["primary", "secondary", "secondary"],
        "natural elements": ["primary", "secondary"],
        "wayfinding": ["primary", "secondary"],
        "community engagement": ["primary", "secondary", "tertiary"],
    }
    keywords = by_keywords(default_kb, default_lexicon)
    with criterion(6, "worked composites give all six primaries and five of six tier columns"):
        for name, ranked in composites.items():
            placements = place(name, ranked, keywords)
            assert placements[0].tier is PlacementTier.PRIMARY
            assert placements[0].domain == ranked[0][0], name
        for name, expected in published_tiers.items():
            placements = place(name, composites[name], keywords)
            assert [p.tier.value for p in placements] == expected, name
        # the remaining row deviates from its published label by rule and is
        # carried as a discrepancy note instead
        placements = place("accessibility", composites["accessibility"], keywords)
        tiers = {p.domain: p.tier for p in placements}
        assert tiers["INFRASTRUCTURE"] is PlacementTier.TERTIARY
        _, report = sample_framework
        assert any(
            note["id"] == "placement-tier-row"
            for note in report["paper_discrepancy_notes"]
        )


def test_c7_arithmetic_identities(sample_framework):
    with criterion(7, "the published aggregate identities recompute exactly"):
        from taxoforge.integrate import reduction_rate

        assert round(100 * reduction_rate(1207, 1029), 1) == 14.7
        assert 278 + 354 + 397 == 1029
        assert round(100 * 278 / 1029, 1) == 27.0
        assert round(100 * 354 / 1029, 1) == 34.4
        assert round(100 * 397 / 1029, 1) == 38.6
        assert round(347 / 124, 1) == 2.8
        assert pair_count(1029) == 528906
        _, report = sample_framework
        assert any(
            note["id"] == "pair-count"
            and "529,506" in note["note"]
            and "528,906" in note["note"]
            for note in report["paper_discrepancy_notes"]
        )


def test_c8_property_suites():
    from tests import test_properties as props

    suites = [
        ("normalize idempotence", props.test_bulk_normalize_idempotence),
        ("entropy bounds and scale invariance",
         props.test_bulk_entropy_bounds_and_scale_invariance),
        ("matrix symmetry/range/diagonal and weight degeneracy",
         props.test_bulk_matrix_properties_and_weight_degeneracy),
        ("classification partition and census conservation",
         props.test_bulk_classification_partition_and_census),
        ("one primary home and flow-weight conservation",
         props.test_bulk_primary_home_and_sankey_conservation),
    ]
    with criterion(8, "all randomized suites hold at 10,000 cases each inside a minute"):
        started = time.perf_counter()
        for _name, suite in suites:
            suite()
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"


def test_c9_fault_injection(sample_framework, sample_factors, tmp_path, monkeypatch):
    with criterion(9, "injected faults fail the matching check and exit with status 2"):
        framework, _ = sample_framework
        report = emit.validate(delete_factor(framework, "safety"), sample_factors)
        assert not report["completeness"]["passed"] and not report["passed"]
        report = emit.validate(duplicate_primary(framework, "safety"), sample_factors)
        assert not report["hierarchy_integrity"]["passed"] and not report["passed"]

        config = tmp_path / "config.yaml"
        config.write_text(
            f"datasets:\n  - {FIXTURES / 'sample_corpus.csv'}\n"
            f"out: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        original = emit.build_framework

        def sabotage(*args, **kwargs):
            return duplicate_primary(original(*args, **kwargs), "safety")

        monkeypatch.setattr(emit, "build_framework", sabotage)
        assert cli.main(["run", "--config", str(config)]) == 2
