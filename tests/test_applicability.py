"""Coverage fractions, graduated indicators, and aggregation profiles."""

from __future__ import annotations

import pytest

from taxoforge.applicability import (
    aggregate_category,
    aggregate_subcategory,
    coverage,
    indicator,
)
from taxoforge.classify import FactorClass
from taxoforge.errors import TaxoforgeError
from tests.conftest import counts_of, make_factor


class TestCoverage:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ({"P": 1, "S": 1, "U": 1, "O": 4, "F": 2}, 5 / 6),
            ({"P": 1, "S": 1, "U": 1, "O": 1, "F": 1}, 5 / 6),
            ({"P": 1, "O": 1, "F": 1}, 3 / 6),
            ({"P": 1}, 1 / 6),
        ],
    )
    def test_fractions(self, counts, expected):
        assert coverage(counts_of(counts)) == pytest.approx(
            expected
        )

    def test_percent_rendering(self):
        assert round(100 * 5 / 6, 1) == 83.3
        assert round(100 * 1 / 6, 1) == 16.7


class TestIndicator:
    def test_universal_with_emphasis(self, default_kb):
        factor = make_factor("accessibility", {"P": 1, "S": 1, "U": 1, "O": 4, "F": 2})
        text = indicator(factor, FactorClass.UNIVERSAL, "ACCESSIBILITY", default_kb)
        assert text == "Universal (with emphasis: O, F)"

    def test_universal_all_types(self, default_kb):
        factor = make_factor("safety", {"P": 1, "S": 1, "U": 1, "O": 1, "F": 1})
        text = indicator(factor, FactorClass.UNIVERSAL, "SAFETY & SECURITY", default_kb)
        assert text == "Universal – All Space Types"

    def test_multi_space_with_compatible_types(self, default_kb):
        # COMFORT marks U and G compatible: the inactive types grade
        # Moderate there, S Minimal.
        factor = make_factor("thermal comfort", {"P": 1, "O": 1, "F": 1})
        text = indicator(factor, FactorClass.MULTI_SPACE, "COMFORT", default_kb)
        assert text == "Strong: P, O, F | Moderate: U, G | Minimal: S"

    def test_multi_space_compact_form(self, default_kb):
        # No compatible inactive types under this domain, so the string
        # compacts to the active list.
        factor = make_factor("lighting", {"P": 1, "S": 1, "O": 1})
        text = indicator(
            factor, FactorClass.MULTI_SPACE, "SAFETY & SECURITY", default_kb
        )
        assert text == "Multi-space: P, S, O"

    def test_space_specific(self, default_kb):
        factor = make_factor("water features", {"P": 1})
        text = indicator(
            factor, FactorClass.SPACE_SPECIFIC, "NATURAL ELEMENTS", default_kb
        )
        assert text == "Space-specific: P"

    def test_emphasis_iff_repeat_mentions(self, default_kb):
        plain = make_factor("a", {"P": 1, "S": 1, "U": 1, "G": 1, "O": 1, "F": 1})
        text = indicator(plain, FactorClass.UNIVERSAL, "COMFORT", default_kb)
        assert text == "Universal – All Space Types"
        emphasized = make_factor("b", {"P": 2, "S": 1, "U": 1, "G": 1, "O": 1})
        text = indicator(emphasized, FactorClass.UNIVERSAL, "COMFORT", default_kb)
        assert text == "Universal (with emphasis: P)"

    def test_only_multi_space_text_reads_the_kb_domain(self, default_kb):
        factor = make_factor("x", {"P": 1, "S": 1, "O": 1})
        comfort = indicator(factor, FactorClass.MULTI_SPACE, "COMFORT", default_kb)
        safety = indicator(factor, FactorClass.MULTI_SPACE, "SAFETY & SECURITY", default_kb)
        assert comfort == "Strong: P, S, O | Moderate: U, G | Minimal: F"
        assert safety == "Multi-space: P, S, O"
        for cls in (FactorClass.UNIVERSAL, FactorClass.SPACE_SPECIFIC):
            assert indicator(factor, cls, "COMFORT", default_kb) == indicator(
                factor, cls, "SAFETY & SECURITY", default_kb
            )


class TestAggregation:
    def test_subcategory_profile(self):
        vectors = [
            counts_of({"P": 2}),
            counts_of({"P": 1, "S": 1}),
        ]
        profile = aggregate_subcategory(vectors)
        assert profile[0] == pytest.approx(0.75)  # P: (2+1)/4
        assert profile[1] == pytest.approx(0.25)  # S: 1/4
        assert sum(profile) == pytest.approx(1.0)

    def test_single_factor_profile(self):
        vector = counts_of({"P": 1, "O": 3})
        profile = aggregate_subcategory([vector])
        assert profile[0] == pytest.approx(0.25)
        assert profile[4] == pytest.approx(0.75)

    def test_uniform_profile(self):
        vectors = [counts_of({"P": 1, "S": 1, "U": 1})]
        profile = aggregate_subcategory(vectors)
        assert profile[:3] == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_empty_rejected(self):
        with pytest.raises(TaxoforgeError):
            aggregate_subcategory([])

    def test_category_single_subcategory(self):
        profile = (0.5, 0.5, 0.0, 0.0, 0.0, 0.0)
        assert aggregate_category([profile], [4]) == pytest.approx(profile)

    def test_category_even_mixture(self):
        a = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        b = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        mixed = aggregate_category([a, b], [3, 3])
        assert mixed[0] == pytest.approx(0.5)
        assert mixed[1] == pytest.approx(0.5)

    def test_category_weighting(self):
        a = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        b = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        mixed = aggregate_category([a, b], [3, 1])
        assert mixed[0] == pytest.approx(0.75)
        assert mixed[1] == pytest.approx(0.25)
