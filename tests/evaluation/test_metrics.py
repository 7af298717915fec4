"""Tests for metrics and confidence intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import Aggregate, mean_confidence_interval
from repro.evaluation.metrics import student_t_ppf


class TestConfidenceInterval:
    def test_single_value(self):
        aggregate = mean_confidence_interval([0.7])
        assert aggregate.mean == pytest.approx(0.7)
        assert aggregate.half_width == 0.0
        assert aggregate.count == 1

    def test_known_interval(self):
        values = [0.5, 0.6, 0.7]
        aggregate = mean_confidence_interval(values)
        assert aggregate.mean == pytest.approx(0.6)
        # t(0.975, df=2) = 4.3027, sem = 0.1/sqrt(3)
        assert aggregate.half_width == pytest.approx(4.3027 * 0.1 / np.sqrt(3), rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_overlap_and_str(self):
        a = Aggregate(0.5, 0.1, 3)
        b = Aggregate(0.65, 0.1, 3)
        c = Aggregate(0.9, 0.05, 3)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert "±" in str(a)
        assert (a.mean, a.half_width) == (0.5, 0.1)

    def test_overlap_boundary_equality_counts_as_overlap(self):
        # Intervals that exactly touch — |Δmean| == sum of half-widths —
        # are a tie under the paper's criterion.
        a = Aggregate(0.5, 0.1, 3)
        b = Aggregate(0.7, 0.1, 3)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(Aggregate(0.7 + 1e-9, 0.1, 3))

    def test_zero_width_intervals_overlap_only_when_equal(self):
        a = Aggregate(0.5, 0.0, 1)
        assert a.overlaps(Aggregate(0.5, 0.0, 1))
        assert not a.overlaps(Aggregate(0.500001, 0.0, 1))

    def test_single_value_interval_is_degenerate(self):
        aggregate = mean_confidence_interval([0.42])
        assert aggregate.mean == pytest.approx(0.42)
        assert aggregate.half_width == 0.0
        assert aggregate.count == 1


class TestStudentTQuantile:
    #: two-sided 95% critical values t(0.975, df) from the standard table
    TABLE = {1: 12.706, 2: 4.303, 4: 2.776, 9: 2.262, 29: 2.045, 120: 1.980}

    @pytest.mark.parametrize("df", sorted(TABLE))
    def test_matches_tabulated_95_percent_values(self, df):
        assert student_t_ppf(0.975, df) == pytest.approx(self.TABLE[df],
                                                         abs=5e-4)

    def test_symmetric_about_the_median(self):
        assert student_t_ppf(0.5, 7) == 0.0
        assert student_t_ppf(0.025, 7) == -student_t_ppf(0.975, 7)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_probabilities_outside_the_open_interval(self, p):
        with pytest.raises(ValueError):
            student_t_ppf(p, 3)

    def test_matches_scipy_where_available(self):
        stats = pytest.importorskip("scipy.stats")
        for df in range(1, 201):
            for p in (0.6, 0.9, 0.95, 0.975, 0.995):
                assert student_t_ppf(p, df) == pytest.approx(
                    stats.t.ppf(p, df), rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=2, max_size=10))
def test_property_interval_contains_mean_and_is_nonnegative(values):
    aggregate = mean_confidence_interval(values)
    assert aggregate.half_width >= 0
    assert min(values) - 1e-9 <= aggregate.mean <= max(values) + 1e-9
