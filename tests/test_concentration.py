"""Tail exponent, tail bounds, and the deviation-parameter rule."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from newmanlab import concentration
from newmanlab.concentration import (
    bad_event_E_bound,
    c_epsilon,
    choose_epsilon,
    exact_amplification,
    tail_bound,
)


def exponent_by_parts(eps: float) -> float:
    """Independent evaluation of both branches, no series shortcut."""
    return min(-math.log(math.exp(eps) * (1 + eps) ** (-(1 + eps))), eps * eps / 2)


class TestCEpsilon:
    def test_at_one(self):
        # both branches: min(2 ln 2 - 1, 1/2)
        assert c_epsilon(1.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-15)
        assert c_epsilon(1.0) == pytest.approx(0.38629436111989057, rel=1e-12)

    def test_at_tenth(self):
        expected = 1.1 * math.log(1.1) - 0.1
        assert expected == pytest.approx(0.004841198, abs=1e-9)
        assert c_epsilon(0.1) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_matches_direct_evaluation(self, eps):
        assert c_epsilon(eps) == pytest.approx(exponent_by_parts(eps), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_never_exceeds_quadratic_branch(self, eps):
        assert c_epsilon(eps) <= eps * eps / 2

    def test_tiny_epsilon_series(self):
        for eps in (1e-9, 1e-7, 1e-5):
            assert c_epsilon(eps) == pytest.approx(eps * eps / 2 - eps ** 3 / 6, rel=1e-6)
            assert 0 < c_epsilon(eps) < eps * eps / 2

    def test_strictly_increasing(self):
        grid = [1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0]
        values = [c_epsilon(e) for e in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            c_epsilon(bad)

    @given(st.floats(min_value=1e-6, max_value=50, allow_nan=False))
    def test_positive(self, eps):
        assert c_epsilon(eps) > 0


class TestTailBound:
    def test_example(self):
        b = tail_bound(1.0, 10.0)
        expected = 2 * math.exp(-10 * (2 * math.log(2) - 1))
        assert b == pytest.approx(expected, rel=1e-13)
        assert b == pytest.approx(0.04199, abs=5e-5)
        assert min(1.0, b) == b

    def test_zero_mean_is_vacuous(self):
        b = tail_bound(0.1, 0.0)
        assert b == 2.0
        assert min(1.0, b) == 1.0

    def test_huge_mean_underflows_quietly(self):
        b = tail_bound(1.0, 1e6)
        assert b == 0.0
        assert min(1.0, b) == 0.0

    def test_monotone_in_mean(self):
        values = [tail_bound(0.5, m) for m in (0, 1, 10, 100, 1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_query_validation(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            tail_bound(0.0, 1.0)
        with pytest.raises(ValueError, match="mean must be nonnegative and finite, got -1.0"):
            tail_bound(0.5, -1.0)

    def test_empirical_grid(self):
        # Observed two-sided tail frequency must respect the bound up to
        # Monte Carlo error, on the full (m, p) x epsilon grid.
        trials = 100_000
        rng = np.random.default_rng(20080613)
        for m, prob in [(100, 0.5), (1000, 0.1), (10_000, 0.01)]:
            mean = m * prob
            draws = rng.binomial(m, prob, size=trials)
            for eps in (0.5, 1.0):
                bound = min(1.0, tail_bound(eps, mean))
                freq = float(np.mean(np.abs(draws - mean) > eps * mean))
                se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
                assert freq <= bound + 3 * se, (m, prob, eps, freq, bound)


class TestBadEventBound:
    def test_small_scale_is_vacuous(self):
        b = bad_event_E_bound(100, Fraction(1), 0.1, Fraction(1, 10))
        expected = 2 * math.exp(-c_epsilon(0.1) * 100 ** 0.9)
        assert b == pytest.approx(expected, rel=1e-12)
        assert b == pytest.approx(1.473, abs=2e-3)
        assert min(1.0, b) == 1.0

    def test_example_1024(self):
        b = bad_event_E_bound(1024, Fraction(1), 1.0, Fraction(1, 10))
        expected = 2 * math.exp(-(2 * math.log(2) - 1) * 1024 ** 0.9)
        assert b == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_N(self):
        values = [
            bad_event_E_bound(n, Fraction(1), 0.1, Fraction(1, 10))
            for n in (10, 100, 1000, 10_000, 100_000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bad_event_E_bound(0, Fraction(1), 0.1, Fraction(1, 10))
        with pytest.raises(ValueError):
            bad_event_E_bound(10, Fraction(0), 0.1, Fraction(1, 10))
        with pytest.raises(ValueError):
            bad_event_E_bound(10, Fraction(2), 0.1, Fraction(1, 10))
        with pytest.raises(ValueError):
            bad_event_E_bound(10, Fraction(1), 0.1, Fraction(1))


def bisect_epsilon(rho: Fraction, rho_prime: Fraction) -> float:
    """Independent root of (1+e)/(1-e)**2 = rho_prime/rho by bisection."""
    target = rho_prime / rho

    def amp(e: float) -> float:
        return (1 + e) / (1 - e) ** 2

    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(100):
        mid = (lo + hi) / 2
        if amp(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def test_exact_amplification():
    # (1+eps)/(1-eps)**2 of the exact rational of the float eps.
    assert exact_amplification(0.5) == (1 + Fraction(0.5)) / (1 - Fraction(0.5)) ** 2 == 6
    fe = Fraction(0.1)  # not 1/10
    assert exact_amplification(0.1) == (1 + fe) / (1 - fe) ** 2
    assert exact_amplification(0.1) != Fraction(11, 10) / Fraction(9, 10) ** 2


class TestChooseEpsilon:
    def test_berenhaut_scale(self):
        eps = choose_epsilon(Fraction(8, 9), Fraction(19, 20))
        assert eps == pytest.approx(bisect_epsilon(Fraction(8, 9), Fraction(19, 20)), abs=1e-9)
        assert eps == pytest.approx(0.02208, abs=1e-5)

    def test_dubickas_scale(self):
        eps = choose_epsilon(Fraction(5, 6), Fraction(1))
        assert eps == pytest.approx(bisect_epsilon(Fraction(5, 6), Fraction(1)), abs=1e-9)
        assert eps == pytest.approx(0.0601, abs=1e-4)

    def test_substitution_holds_exactly_and_is_maximal(self):
        for rho, rho_prime in [(Fraction(8, 9), Fraction(19, 20)),
                               (Fraction(5, 6), Fraction(1)),
                               (Fraction(1, 2), Fraction(3, 4)),
                               (Fraction(4, 5), Fraction(19, 20))]:
            eps = choose_epsilon(rho, rho_prime)
            fe = Fraction(eps)
            amp = (1 + fe) / (1 - fe) ** 2
            assert amp * rho <= rho_prime
            bigger = Fraction(eps * 1.01)
            amp_bigger = (1 + bigger) / (1 - bigger) ** 2
            assert amp_bigger * rho > rho_prime
            assert exact_amplification(math.nextafter(eps, 1.0)) * rho > rho_prime

    # Every pair that a test or the benchmark pins keeps its epsilon to the bit.
    @pytest.mark.parametrize("rho, rho_prime, eps", [
        (Fraction(8, 9), Fraction(19, 20), 0.022078396223397093),
        (Fraction(5, 6), Fraction(1), 0.060098283658357794),
        (Fraction(1, 2), Fraction(1), 0.21922359359558485),
        (Fraction(1, 2), Fraction(3, 4), 0.13148290817867023),
        (Fraction(1, 10 ** 40), Fraction(1), math.nextafter(1.0, 0.0)),
    ], ids=["8/9-19/20", "5/6-1", "1/2-1", "1/2-3/4", "1e-40-1"])
    def test_pinned_choices(self, rho, rho_prime, eps):
        assert choose_epsilon(rho, rho_prime) == eps

    @pytest.mark.parametrize("gap_exponent", [9, 15])
    def test_pair_near_one_is_quick_and_maximal(self, monkeypatch, gap_exponent):
        # rho'/rho - 1 = 1e-9 or 1e-15, where a float root of the boundary
        # cancels: the exact checks stay few and the result is still maximal.
        rho = 1 - Fraction(1, 10 ** gap_exponent)
        checks = []
        amplification = concentration.exact_amplification
        monkeypatch.setattr(concentration, "exact_amplification",
                            lambda e: checks.append(e) or amplification(e))
        eps = choose_epsilon.__wrapped__(rho, Fraction(1))
        assert len(checks) <= 110
        assert exact_amplification(eps) * rho <= 1
        assert exact_amplification(math.nextafter(eps, 1.0)) * rho > 1
        assert eps == pytest.approx(Fraction(1, 3 * 10 ** gap_exponent), rel=1e-6)

    def test_no_positive_float_admissible(self):
        # eps ~ (rho'/rho - 1)/3 = 3e-401 is below the smallest subnormal float.
        with pytest.raises(ValueError, match="no valid epsilon"):
            choose_epsilon(1 - Fraction(1, 10 ** 400), Fraction(1))

    def test_extreme_pair_stays_below_one(self):
        # rho'/rho = 1e40: every float below 1 is admissible.
        rho = Fraction(1, 10 ** 40)
        eps = choose_epsilon(rho, Fraction(1))
        assert eps == math.nextafter(1.0, 0.0)
        assert exact_amplification(eps) * rho <= 1

    def test_equal_rhos_rejected(self):
        with pytest.raises(ValueError):
            choose_epsilon(Fraction(8, 9), Fraction(8, 9))

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            choose_epsilon(Fraction(19, 20), Fraction(8, 9))
        with pytest.raises(ValueError):
            choose_epsilon(Fraction(0), Fraction(1, 2))
        with pytest.raises(ValueError):
            choose_epsilon(Fraction(1, 2), Fraction(11, 10))

    @given(
        st.fractions(min_value=Fraction(1, 50), max_value=Fraction(9, 10),
                     max_denominator=50),
        st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 1),
                     max_denominator=50),
    )
    def test_choice_always_valid(self, rho, rho_prime):
        if not rho < rho_prime:
            return
        eps = choose_epsilon(rho, rho_prime)
        assert 0 < eps < 1
        fe = Fraction(eps)
        assert (1 + fe) / (1 - fe) ** 2 * rho <= rho_prime
        assert exact_amplification(math.nextafter(eps, 1.0)) * rho > rho_prime
