import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterscope.errors import DegenerateXError, LengthMismatchError, TooShortSeriesError
from counterscope.stats import linreg, pearson
from stat_reference import summarize


def oracle_pearson(x, y):
    """Definitional two-pass oracle: plain python loops, population moments."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    if sx == 0 or sy == 0:
        return 0.0
    return cov / (sx * sy)


def oracle_linreg(x, y):
    """Normal-equation oracle solved with linalg, independent of linreg's path."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.array([[len(x), x.sum()], [x.sum(), (x * x).sum()]])
    rhs = np.array([y.sum(), (x * y).sum()])
    intercept, slope = np.linalg.solve(A, rhs)
    return slope, intercept


def oracle_summarize(x):
    n = len(x)
    mu = sum(x) / n
    var = sum((v - mu) ** 2 for v in x) / n
    return mu, math.sqrt(var), max(x), min(x)


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_antilinear(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_derived_example_matches_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert pearson(x, y) == pytest.approx(oracle_pearson(x, y), abs=1e-12)

    def test_constant_series_is_zero(self):
        assert pearson([5, 5, 5], [1, 2, 3]) == 0.0
        assert pearson([1, 2, 3], [7, 7, 7]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(TooShortSeriesError):
            pearson([1], [2])

    def test_oracle_equivalence_100_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(8, 65))
            x = rng.standard_normal(n) * rng.uniform(0.5, 3)
            y = rng.standard_normal(n) + rng.uniform(-1, 1) * x
            assert pearson(x, y) == pytest.approx(
                oracle_pearson(x.tolist(), y.tolist()), abs=1e-12)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=40),
           st.data())
    def test_symmetry_and_bound(self, x, data):
        # unrestricted finite magnitudes: the bound must survive values near
        # the subnormal range and near overflow alike
        y = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=len(x), max_size=len(x)))
        r = pearson(x, y)
        assert r == pearson(y, x)
        assert abs(r) <= 1.0 + 1e-12

    @settings(max_examples=60)
    @given(st.floats(-5, 5).filter(lambda a: abs(a) > 1e-3), st.floats(-10, 10),
           st.integers(0, 10_000))
    def test_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        expected = math.copysign(1.0, a) * pearson(x, y)
        assert pearson(a * x + b, y) == pytest.approx(expected, abs=1e-10)


class TestLinreg:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = linreg(x, 2 * x + 1)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_convention(self):
        fit = linreg([1, 2, 3], [4, 4, 4])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_degenerate_x(self):
        with pytest.raises(DegenerateXError):
            linreg([2, 2, 2], [1, 2, 3])

    def test_oracle_equivalence_100_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(8, 65))
            x = rng.standard_normal(n)
            y = 1.5 * x + rng.standard_normal(n)
            fit = linreg(x, y)
            slope, intercept = oracle_linreg(x, y)
            assert fit.slope == pytest.approx(slope, abs=1e-10)
            assert fit.intercept == pytest.approx(intercept, abs=1e-10)

    @settings(max_examples=60)
    @given(st.integers(0, 10_000))
    def test_r_squared_equals_pearson_squared(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30) + 0.5 * x
        assert linreg(x, y).r_squared == pytest.approx(pearson(x, y) ** 2, abs=1e-10)


class TestSummarize:
    def test_population_sigma(self):
        mu, sigma, mx, mn = summarize([1, 2, 3])
        assert mu == 2.0
        assert sigma == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
        assert (mx, mn) == (3.0, 1.0)

    def test_singleton(self):
        assert summarize([7]) == (7.0, 0.0, 7.0, 7.0)

    def test_symmetric(self):
        assert summarize([-1, 1]) == (0.0, 1.0, 1.0, -1.0)

    def test_empty(self):
        with pytest.raises(TooShortSeriesError):
            summarize([])

    def test_oracle_equivalence_100_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(int(rng.integers(8, 65))).tolist()
            got = summarize(x)
            want = oracle_summarize(x)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-12)
