"""Spans and counters around taxoforge's public functions.

The tracer wraps functions from the benchmark's side; nothing under ``src/``
knows about it. Several modules bind functions by name at import
(``from .classify import domain_relevance``), so a wrapper is installed on
every ``taxoforge`` module attribute that holds the original function, not
only on its defining module. Spans (name, start, end, parent, operation) are
kept in memory and written out by the caller when the run ends. A process
traces one operation, so every span carries the same operation id.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, function) -> span name. Each call is one span.
SPANNED = {
    ("taxoforge.corpus", "load_corpus"): "corpus.load",
    ("taxoforge.corpus", "load_rules"): "knowledge.load",
    ("taxoforge.knowledge", "load_kb"): "knowledge.load",
    ("taxoforge.similarity", "load_lexicon"): "knowledge.load",
    ("taxoforge.integrate", "integrate"): "integrate.fold",
    ("taxoforge.similarity", "build_matrix"): "similarity.build",
    ("taxoforge.similarity", "matrix_to_dict"): "similarity.to_dict",
    ("taxoforge.similarity", "matrix_from_dict"): "similarity.from_dict",
    ("taxoforge.classify", "classify_factors"): "classify.classify",
    ("taxoforge.cluster", "assign_categories"): "cluster.assign",
    ("taxoforge.placement", "place_cross_cutting"): "placement.place",
    ("taxoforge.applicability", "indicators_for"): "applicability.indicate",
    ("taxoforge.emit", "build_framework"): "emit.build",
    ("taxoforge.emit", "validate"): "emit.validate",
    ("taxoforge.emit", "export_document"): "emit.export",
}
PHASES = ("integrate", "similarity", "classify", "cluster", "place", "indicate", "emit")
for _phase in PHASES:
    SPANNED[("taxoforge.pipeline", f"phase_{_phase}")] = f"phase.{_phase}"

# Spans whose last result is kept for counting after the operation. The
# similarity matrix is not kept: holding it would slow the traced run.
KEPT = ("integrate.fold", "classify.classify", "placement.place")

# Functions called too often for a span each; they are only counted.
COUNTED = (
    ("taxoforge.classify", "domain_relevance"),
    ("taxoforge.cluster", "related_factors"),
    ("taxoforge.cluster", "subcluster"),
    ("taxoforge.cluster", "best_subcategory"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: str


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    # distinct (factor, domain) pairs passed to domain_relevance
    relevance_pairs: set[tuple[str, str]] = field(default_factory=set)
    # span name -> result of its last call, for counting after the operation
    results: dict[str, object] = field(default_factory=dict)
    bindings: list[str] = field(default_factory=list)
    op: str = "op-1"
    _stack: list[int] = field(default_factory=list)
    _originals: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ----------------------------------------------------------

    def _wrap_span(self, func, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.count(name + ".calls")
            if name in KEPT:
                tracer.results[name] = result
            if name == "corpus.load":
                tracer.count("corpus.records", len(result.records))
            return result

        return wrapper

    def _wrap_count(self, func, name: str):
        tracer = self
        if name == "domain_relevance":

            def relevance(factor_name, domain, lexicon):
                tracer.count("relevance.calls")
                tracer.relevance_pairs.add((factor_name, domain.identifier))
                return func(factor_name, domain, lexicon)

            return relevance
        if name == "subcluster":

            def subcluster(*args, **kwargs):
                groups = func(*args, **kwargs)
                tracer.count("cluster.subclusters", len(groups))
                return groups

            return subcluster
        counter = {
            "related_factors": "cluster.related_scans",
            "best_subcategory": "cluster.best_subcategory_calls",
        }[name]

        def counted(*args, **kwargs):
            tracer.count(counter)
            return func(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded taxoforge modules."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "taxoforge" or name.startswith("taxoforge.")
        }
        targets = [(key, self._wrap_span, name) for key, name in SPANNED.items()]
        targets += [(key, self._wrap_count, key[1]) for key in COUNTED]
        for (module_name, func_name), make, label in targets:
            original = getattr(modules[module_name], func_name)
            wrapper = make(original, label)
            for name, module in modules.items():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        self.bindings.append(f"{name}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name; self time is a span's
        duration minus the durations of its direct children."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + duration
            own[span.name] = own.get(span.name, 0.0) + duration
            if span.parent >= 0:
                parent = self.spans[span.parent].name
                own[parent] -= duration
        return total, own

    def dump(self) -> dict:
        return {
            "bindings": self.bindings,
            "spans": [
                [s.name, s.start, s.end, s.parent, s.op] for s in self.spans
            ],
            "counts": self.counts,
        }
