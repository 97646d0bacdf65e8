import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasitech import (
    EVOLUTION_SCALE,
    InsufficientDataError,
    InvalidInputError,
    TechSeries,
    classify_point,
    classify_with_test,
    prediction_label,
)
from oracles import t_two_sided_quad


class TestTechSeries:
    def test_valid_construction(self):
        s = TechSeries.from_columns("x", "host", "hp", [1920, 1921], [2.5, 2.7])
        assert s.n == 2
        assert s.role == "host"
        np.testing.assert_array_equal(s.times, [1920.0, 1921.0])

    def test_rejects_duplicate_times(self):
        with pytest.raises(InvalidInputError):
            TechSeries.from_columns("x", "host", "", [1, 1, 2], [1.0, 2.0, 3.0])

    def test_rejects_decreasing_times(self):
        with pytest.raises(InvalidInputError):
            TechSeries.from_columns("x", "host", "", [2, 1], [1.0, 2.0])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(InvalidInputError):
            TechSeries.from_columns("x", "host", "", [1, 2], [1.0, 0.0])
        with pytest.raises(InvalidInputError):
            TechSeries.from_columns("x", "host", "", [1, 2], [1.0, -3.0])

    def test_rejects_bad_role(self):
        with pytest.raises(InvalidInputError):
            TechSeries.from_columns("x", "observer", "", [1], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            TechSeries.from_columns("x", "host", "", [], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            TechSeries.from_columns("x", "host", "", [1, 2, 3], [1.0, 2.0])

    def test_arrays_are_read_only(self):
        times = np.array([1.0, 2.0])
        s = TechSeries.from_columns("x", "host", "", times, [1.0, 2.0])
        times[0] = 0.0  # the series keeps its own copy
        assert s.times[0] == 1.0
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_scaled(self):
        s = TechSeries.from_columns("x", "host", "", [1, 2], [2.0, 4.0])
        np.testing.assert_allclose(s.scaled(0.5).values, [1.0, 2.0])


class TestClassifyPoint:
    @pytest.mark.parametrize(
        "b,grade,mode,label,symbol",
        [
            (1.74, 3, "symbiosis", "development", "!"),
            (1.89, 3, "symbiosis", "development", "!"),
            (1.19, 3, "symbiosis", "development", "!"),
            (0.23, 1, "parasitism", "underdevelopment", "/"),
            (0.35, 1, "parasitism", "underdevelopment", "/"),
            (1.0, 2, "mutualism", "growth", "+"),
        ],
    )
    def test_published_style_coefficients(self, b, grade, mode, label, symbol):
        cls = classify_point(b)
        assert cls.grade == grade
        assert cls.mode == mode
        assert cls.evolution_label == label
        assert cls.symbol == symbol
        assert cls.prediction == EVOLUTION_SCALE[grade][3]

    def test_epsilon_band(self):
        assert classify_point(1.0 + 5e-10).grade == 2
        assert classify_point(1.0 - 5e-10).grade == 2
        assert classify_point(1.0 + 2e-9).grade == 3
        assert classify_point(1.0 - 2e-9).grade == 1

    def test_nonfinite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                classify_point(bad)

    def test_negative_b_flags_warning(self):
        cls = classify_point(-0.4)
        assert cls.grade == 1
        assert cls.warnings

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=200)
    def test_monotone_in_b(self, b1, b2):
        if b1 > b2:
            b1, b2 = b2, b1
        assert classify_point(b1).grade <= classify_point(b2).grade

    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=200)
    def test_internally_consistent(self, b):
        cls = classify_point(b)
        mode, label, symbol, prediction = EVOLUTION_SCALE[cls.grade]
        assert (cls.mode, cls.evolution_label, cls.symbol) == (mode, label, symbol)
        assert cls.prediction == prediction
        assert cls.b_estimate == b


class TestClassifyWithTest:
    def test_strong_rejection_above_one(self):
        cls = classify_with_test(1.74, 0.11, 44, alpha=0.05)
        assert cls.grade == 3
        assert cls.test is not None
        assert cls.test.df == 42
        np.testing.assert_allclose(cls.test.t_stat, 0.74 / 0.11)
        # independent quadrature oracle for the p-value
        expected_p = t_two_sided_quad(0.74 / 0.11, 42)
        np.testing.assert_allclose(cls.test.p_value, expected_p, atol=1e-8)
        assert cls.test.p_value < 0.001

    def test_exact_one_is_mutualism(self):
        cls = classify_with_test(1.0, 0.1, 44)
        assert cls.grade == 2
        assert cls.test.t_stat == 0.0
        assert cls.test.p_value == 1.0

    def test_weak_evidence_stays_mutualism(self):
        cls = classify_with_test(1.05, 0.20, 10, alpha=0.05)
        expected_p = t_two_sided_quad(0.05 / 0.20, 8)
        assert expected_p >= 0.05
        np.testing.assert_allclose(cls.test.p_value, expected_p, atol=1e-8)
        assert cls.grade == 2

    def test_strong_rejection_below_one(self):
        cls = classify_with_test(0.23, 0.01, 51, alpha=0.05)
        assert cls.grade == 1

    def test_input_validation(self):
        with pytest.raises(InsufficientDataError):
            classify_with_test(1.5, 0.1, 2)
        with pytest.raises(InvalidInputError):
            classify_with_test(1.5, 0.0, 10)
        with pytest.raises(InvalidInputError):
            classify_with_test(1.5, -0.1, 10)
        with pytest.raises(InvalidInputError):
            classify_with_test(math.nan, 0.1, 10)
        with pytest.raises(InvalidInputError):
            classify_with_test(1.5, 0.1, 10, alpha=1.5)

    def test_degenerates_to_point_classification(self, rng):
        # as se -> 0 the t-test reproduces the exact comparison (away from
        # the hairline band around B = 1)
        for _ in range(100):
            b = float(rng.uniform(-3, 4))
            if abs(b - 1.0) < 1e-6:
                continue
            tested = classify_with_test(b, 1e-12, 30)
            assert tested.grade == classify_point(b).grade

    def test_negative_b_warns(self):
        cls = classify_with_test(-0.5, 0.01, 20)
        assert cls.grade == 1
        assert cls.warnings

    def test_negative_b_warning_names_the_grade_given(self):
        # the test cannot reject B = 1 here, so B = -0.5 is graded 2
        cls = classify_with_test(-0.5, 1.0, 10)
        assert cls.grade == 2
        assert len(cls.warnings) == 1
        assert "grade 2" in cls.warnings[0]
        assert "grade 1" not in cls.warnings[0]


class TestPredictionLabel:
    def test_fixed_strings(self):
        assert (
            prediction_label(1)
            == "Complex system of technology evolves slowly over time"
        )
        assert (
            prediction_label(2)
            == "Complex system of technology has a steady-state growth"
        )
        assert (
            prediction_label(3)
            == "Complex system of technology is likely to evolve rapidly"
        )

    @pytest.mark.parametrize("bad", [0, 4, -1, 2.5])
    def test_out_of_range(self, bad):
        with pytest.raises(InvalidInputError):
            prediction_label(bad)
