import math

import pytest

from bubblelab import regularized_incomplete_beta, studentt, t_cdf, t_quantile

from _oracles import t_cdf_quadrature, t_quantile_bisect, t_quantile_reference


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) is the identity
        for x in (0.1, 0.25, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_symmetry(self):
        for x in (0.2, 0.35, 0.6):
            left = regularized_incomplete_beta(2.5, 4.0, x)
            right = 1.0 - regularized_incomplete_beta(4.0, 2.5, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    @pytest.mark.parametrize(
        "a, b, x",
        [(2.0, 3.0, math.nan), (math.nan, 3.0, 0.5), (2.0, math.nan, 0.5), (math.inf, 3.0, 0.5)],
    )
    def test_non_finite_arguments_are_domain_errors(self, a, b, x):
        # not an ArithmeticError from a continued fraction that never converges
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, x)


class TestTCdf:
    def test_symmetry_at_zero(self):
        for df in (1, 2, 5, 30):
            assert t_cdf(0.0, df) == 0.5
            assert t_cdf(1.7, df) + t_cdf(-1.7, df) == pytest.approx(1.0, abs=1e-13)

    def test_against_quadrature_oracle(self):
        for df in (1, 2, 3, 7, 20, 100):
            for x in (-4.0, -1.0, 0.3, 2.0, 6.0):
                assert t_cdf(x, df) == pytest.approx(
                    t_cdf_quadrature(x, df), abs=1e-9
                )

    def test_df_validation(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)
        with pytest.raises(ValueError):
            t_cdf(1.0, 2.5)

    def test_nan_is_a_domain_error(self):
        with pytest.raises(ValueError, match="NaN"):
            t_cdf(math.nan, 5)


class TestTQuantile:
    def test_median_is_zero(self):
        for df in (1, 2, 17, 500):
            assert t_quantile(0.5, df) == 0.0

    def test_df2_reference(self):
        # independently computed: inverting the CDF by quadrature+bisection
        assert t_quantile(0.975, 2) == pytest.approx(4.30265273, abs=1e-6)
        assert t_quantile(0.975, 2) == pytest.approx(
            t_quantile_bisect(0.975, 2), abs=1e-8
        )

    def test_df1000_approaches_normal(self):
        q = t_quantile(0.975, 1000)
        assert q == pytest.approx(1.96233908, abs=1e-6)
        assert q == pytest.approx(t_quantile_bisect(0.975, 1000), abs=1e-8)
        assert abs(q - 1.95996) < 0.003

    def test_symmetry(self):
        for df in (1, 4, 25):
            assert t_quantile(0.025, df) == pytest.approx(-t_quantile(0.975, df), abs=1e-12)

    def test_cdf_roundtrip_grid(self):
        dfs = list(range(1, 31)) + [100, 1000]
        for df in dfs:
            for p in (0.9, 0.95, 0.975, 0.99):
                q = t_quantile(p, df)
                assert t_cdf(q, df) == pytest.approx(p, abs=1e-8)

    def test_equals_reference_bisection(self):
        # every df a sweep of up to 400 points asks for, both confidences
        for df in range(1, 401):
            for p in (0.95, 0.975, 0.05, 0.025):
                assert t_quantile(p, df) == t_quantile_reference(p, df), (p, df)

    def test_cold_quantile_cdf_evaluations(self, monkeypatch):
        # each t_cdf(x != 0) call runs the continued fraction exactly once
        calls = 0
        betacf = studentt._betacf

        def counting(*args):
            nonlocal calls
            calls += 1
            return betacf(*args)

        monkeypatch.setattr(studentt, "_betacf", counting)
        t_quantile.cache_clear()
        dfs = range(1, 201)
        for df in dfs:
            t_quantile(0.975, df)
        assert calls / len(dfs) <= 24

    def test_domain(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 2)
        with pytest.raises(ValueError):
            t_quantile(1.0, 2)
        with pytest.raises(ValueError):
            t_quantile(0.9, 0)
        with pytest.raises(ValueError):
            t_quantile(0.9, -3)
