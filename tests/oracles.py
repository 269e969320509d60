"""Test oracles: exact means of a thinned square, found by brute force.

`expectation_oracle` enumerates every keep mask of a small polynomial, so
the means it returns rest on no formula.  The tests compare them with
E[(q**2)_k] = 2*alpha**2*pairs[k] + alpha*diagonal[k], the means that
`sparsify.pair_counts` gives.
"""

from fractions import Fraction

import numpy as np

from newmanlab.poly import NewmanPolynomial
from newmanlab.search import _square_columns

_ENUMERATION_DEGREE_CAP = 20
_MASK_BLOCK = 1 << 14


def expectation_oracle(p: NewmanPolynomial, alpha: Fraction) -> tuple[list[Fraction], Fraction]:
    """Exact E[(q**2)_k] for k = 0..2N, and E[l1(q)], by enumerating every mask.

    Each block of masks is the columns of a 0/1 matrix; the kept
    polynomials are squared together by `search._square_columns`, and the
    squares and masses are totalled by mask weight w.  With alpha = a/b a
    mask of weight w has probability a**w * (b-a)**(n-w) / b**n over
    n = N+1 positions, so each mean is finished in integers.  Exponentially
    slow by design; capped at degree 20.
    """
    if p.degree > _ENUMERATION_DEGREE_CAP:
        raise ValueError(f"mask enumeration capped at degree {_ENUMERATION_DEGREE_CAP}")
    n = p.degree + 1
    positions = np.arange(n)
    # totals[k, w] sums (q**2)_k over the masks of weight w, and the last
    # row sums their mass: at most 2**21 * 21 < 2**53, so float64 sums are
    # exact.
    totals = np.zeros((2 * n, n + 1))
    for start in range(0, 1 << n, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, 1 << n))
        bits = ((masks >> positions[:, None]) & 1).astype(np.uint8)
        kept = bits & p.coefficients[:, None]
        by_weight = (bits.sum(axis=0)[:, None] == np.arange(n + 1)).astype(np.float64)
        totals[:-1] += _square_columns(kept) @ by_weight
        totals[-1] += kept.sum(axis=0) @ by_weight
    a, b = alpha.numerator, alpha.denominator
    odds = [a ** w * (b - a) ** (n - w) for w in range(n + 1)]
    means = [Fraction(sum(map(int.__mul__, row, odds)), b ** n)
             for row in totals.astype(np.int64).tolist()]
    return means[:-1], means[-1]
