import math
import random
from decimal import Decimal

import pytest

from bubblelab import InvalidConfig, studentt, t_cdf, t_quantile

from _oracles import (
    t_cdf_decimal,
    t_cdf_quadrature,
    t_quantile_bisect,
    t_quantile_decimal,
    t_quantile_reference,
)

# |t_cdf - exact| in units of 2**-53 over df 1..2000 (the closed form
# measured 82 on the sample below; the incomplete-beta CDF it replaced
# reached 3.0e6, near x = 0 at large df)
CDF_ERROR_UNITS = 128
# t_quantile error in ulps of the quantile over df 1..200 (measured 43
# and 82; the incomplete-beta CDF gave 2149 and 214)
QUANTILE_ERROR_ULPS = {0.95: 64, 0.975: 128}


def _cdf_cases():
    """Every df 1..2000 at one x drawn log-uniformly from 1e-4..1e3 with
    a random sign, plus both infinities, ±1e200, ±1e-300 and 0 at
    both ends of the df range and of the dfs a 200-point sweep reaches."""
    rng = random.Random(2024)
    cases = [(x, df) for df in (1, 2, 3, 4, 199, 200, 1999, 2000)
             for x in (math.inf, -math.inf, 1e200, -1e200, 1e-300, -1e-300, 0.0)]
    for df in range(1, 2001):
        x = 10.0 ** rng.uniform(-4.0, 3.0)
        cases.append((x if rng.random() < 0.5 else -x, df))
    return cases


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

    def test_domain_errors_are_invalid_config(self):
        for x, df in ((math.nan, 5), (1.0, 0), (1.0, 2.5), (1.0, True)):
            with pytest.raises(InvalidConfig):
                t_cdf(x, df)

    def test_absolute_error_against_the_decimal_closed_form(self):
        worst = max(
            (abs(Decimal(t_cdf(x, df)) - t_cdf_decimal(x, df)) * 2**53, x, df)
            for x, df in _cdf_cases()
        )
        assert worst[0] <= CDF_ERROR_UNITS, worst

    def test_saturates_exactly_beyond_any_float_tail(self):
        for df in (1, 2, 3, 2000):
            for x in (math.inf, 1e200, 2.0**501):
                assert (t_cdf(x, df), t_cdf(-x, df)) == (1.0, 0.0)


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

    # above df 2000, past t_cdf's stated error bound, there is no
    # enclosure; a Newton interval read another float at these pairs
    @pytest.mark.parametrize("p, df", [(0.95, 7349), (0.975, 8189), (0.95, 8524)])
    def test_equals_reference_bisection_above_df_2000(self, p, df):
        assert studentt._enclosure(p, df) is None
        assert t_quantile(p, df) == t_quantile_reference(p, df)

    # at (0.9999999999999949, 8) Newton converges, but t_cdf(hi) lies only
    # 18 units of 2**-52 above p, inside the guard
    @pytest.mark.parametrize("p, df", [(1 - 1e-10, 3), (0.9999999999999949, 8)],
                             ids=["newton-does-not-converge", "edge-check-fails"])
    def test_equals_reference_bisection_without_an_enclosure(self, p, df):
        assert studentt._enclosure(p, df) is None
        assert t_quantile(p, df) == t_quantile_reference(p, df)

    def test_equals_reference_bisection_when_the_enclosure_raises(self, monkeypatch):
        # a zero density makes Newton's first step divide by zero
        monkeypatch.setattr(studentt, "_t_pdf", lambda x, df: 0.0)
        t_quantile.cache_clear()
        for p, df in ((0.975, 7), (0.95, 30)):
            assert t_quantile(p, df) == t_quantile_reference(p, df)

    def test_cold_quantile_cdf_evaluations(self, monkeypatch):
        calls = 0
        cdf = studentt.t_cdf

        def counting(*args):
            nonlocal calls
            calls += 1
            return cdf(*args)

        monkeypatch.setattr(studentt, "t_cdf", counting)
        t_quantile.cache_clear()
        dfs = range(1, 201)
        for df in dfs:
            t_quantile(0.975, df)
        assert calls / len(dfs) <= 24

    @pytest.mark.parametrize("p", sorted(QUANTILE_ERROR_ULPS))
    def test_error_in_ulps_against_the_decimal_quantile(self, p):
        worst = 0.0, 0
        for df in range(1, 201):
            exact = t_quantile_decimal(p, df)
            ulps = float(abs(Decimal(t_quantile(p, df)) - exact)) / math.ulp(float(exact))
            worst = max(worst, (ulps, df))
        assert worst[0] <= QUANTILE_ERROR_ULPS[p], worst

    @pytest.mark.parametrize("p", [0.95, 0.975])
    def test_enclosure_never_falls_back(self, p):
        assert [df for df in range(1, 2001) if studentt._enclosure(p, df) is None] == []

    def test_domain(self):
        for p, df in ((0.0, 2), (1.0, 2), (math.nan, 2), (0.9, 0)):
            with pytest.raises(InvalidConfig):
                t_quantile(p, df)
        with pytest.raises(ValueError):
            t_quantile(0.0, 2)
        with pytest.raises(ValueError):
            t_quantile(1.0, 2)
        with pytest.raises(ValueError):
            t_quantile(0.9, 0)
        with pytest.raises(ValueError):
            t_quantile(0.9, -3)
