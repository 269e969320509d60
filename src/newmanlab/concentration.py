"""Tail bounds for sums of independent indicator variables.

Provides the explicit exponent c(eps), the two-sided tail bound
`tail_bound(epsilon, mean)` = 2*exp(-c(eps)*mean), the specialization of
that bound to the thinned-mass event driven by N**(1 - exponent), and the
rule that picks the largest deviation parameter compatible with a target
amplification of the ratio product, by an exact bisection over the floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "c_epsilon",
    "tail_bound",
    "bad_event_E_bound",
    "choose_epsilon",
    "exact_amplification",
]

# Below this, (1+e)*log1p(e) - e loses too many digits; use the cubic series.
_SERIES_CUTOFF = 1e-4


def c_epsilon(epsilon: float) -> float:
    """Tail exponent min{(1+e)*ln(1+e) - e, e**2/2}, which is its first arm.

    For e > 0 the first arm is below e**2/2, as its derivative ln(1+e) is
    below e, so only it is evaluated: as the stable rewrite of
    -log(exp(e) * (1+e)**-(1+e)), and for tiny e as e**2/2 - e**3/6 so that
    it is not lost to cancellation.
    """
    e = float(epsilon)
    if not 0.0 < e < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {e}")
    if e < _SERIES_CUTOFF:
        return e * e / 2.0 - e ** 3 / 6.0
    return (1.0 + e) * math.log1p(e) - e


def tail_bound(epsilon: float, mean: float) -> float:
    """Two-sided bound 2*exp(-c(eps)*mean) on P{|X - EX| > eps*EX}, EX = mean.

    Values above 1 are vacuous but returned as they are, so callers can see
    how far from useful the bound is; outputs clamp with min(1.0, bound).
    """
    if not 0 <= mean < math.inf:
        raise ValueError(f"mean must be nonnegative and finite, got {mean}")
    return 2.0 * math.exp(-c_epsilon(epsilon) * mean)


def bad_event_E_bound(
    N: int,
    c0: Fraction | float,
    epsilon: float,
    alpha_exponent: Fraction | float,
) -> float:
    """Bound 2*exp(-c(eps) * c0 * N**(1 - alpha_exponent)) on the low-mass event.

    This is the thinning-specific form: the kept-term count has mean at
    least c0 * N**(1 - alpha_exponent) when the input has density c0 and
    terms survive with probability N**(-alpha_exponent).
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    c0f = float(c0)
    if not 0.0 < c0f <= 1.0:
        raise ValueError("c0 must lie in (0, 1]")
    ef = float(alpha_exponent)
    if not 0.0 < ef < 1.0:
        raise ValueError("alpha_exponent must lie in (0, 1)")
    mean_floor = c0f * N ** (1.0 - ef)
    return tail_bound(epsilon, mean_floor)


def exact_amplification(epsilon: float) -> Fraction:
    """(1+eps)/(1-eps)**2 as the exact rational of the float eps: the factor
    by which thinning may amplify the ratio product."""
    fe = Fraction(epsilon)
    return (1 + fe) / (1 - fe) ** 2


# Cached: every config with a (rho, rho_prime) pair asks for it, often for the same pair.
@lru_cache
def choose_epsilon(rho: Fraction | str | float, rho_prime: Fraction | str | float) -> float:
    """The largest float eps in (0, 1) with (1+eps)/(1-eps)**2 * rho <= rho_prime.

    The amplification grows with eps, so a bisection over the floats in [0, 1]
    finds it, deciding each midpoint by the exact rational inequality, in at
    most about 1100 halvings: 58 for (8/9, 19/20), 104 for rho'/rho = 1 + 1e-15.
    """
    frho = Fraction(rho)
    frho_prime = Fraction(rho_prime)
    if not 0 < frho < frho_prime <= 1:
        raise ValueError("need 0 < rho < rho_prime <= 1")
    lo, hi = 0.0, 1.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if exact_amplification(mid) * frho <= frho_prime:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise ValueError("no valid epsilon in (0, 1)")
    return lo
