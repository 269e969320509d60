"""Extremal search for dense 0/1 polynomials with small ratio * degree.

Candidates are canonicalized to have constant term and leading term both 1
(shifts by powers of x never help the product at a fixed degree), and the
exhaustive mode always halves the space using the fact that a polynomial
and its reversal share every metric used here.  Beyond the exhaustive cap a
seeded annealing walk over interior bit flips and swaps takes over.

The exhaustive mode takes interior patterns a block at a time as the
columns of a 0/1 matrix, drops reversal duplicates and too-sparse
candidates by boolean masks, and squares the block with this module's own
uint8 block square, `_square_columns`.  Local search squares each
restart's start once with `poly.square` and then updates that square in
O(N) per move: flipping coefficient i of p gives (p +- x**i)**2 =
p**2 +- 2 x**i p + x**(2i), and a swap is two flips.  Apart from that
update and the square's maximum, a move is constant Python work: the walk
reads bits from a list and draws swap partners from sorted lists of the
interior ones and zeros, which change only when a move is accepted.

Both modes score a candidate in one place, `_Incumbent.score`, from its
square height and term count by exact integer comparison; a new incumbent
only has its bits and square copied, and its polynomial and `RatioReport`
are built when the degree is done.  The density floor becomes an integer
term count, computed once per degree.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, exp
from typing import Optional

import numpy as np

from .poly import NewmanPolynomial, RatioReport, format_polynomial, metrics, square

__all__ = [
    "EXHAUSTIVE_DEGREE_CAP",
    "DEGREE_TABLE_COLUMNS",
    "SearchSpec",
    "DegreeBest",
    "SearchMetadata",
    "SearchResult",
    "exhaustive_search",
    "local_search",
]

EXHAUSTIVE_DEGREE_CAP = 28

@dataclass(frozen=True)
class SearchSpec:
    """Degree range and density constraint of a search; it minimizes the product."""

    min_degree: int
    max_degree: int
    density_floor: Fraction = Fraction(0)
    seed: int = 0
    iteration_budget: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "density_floor", Fraction(self.density_floor))
        if self.min_degree < 1:
            raise ValueError("min_degree must be at least 1 (degree 0 is degenerate)")
        if self.min_degree > self.max_degree:
            raise ValueError("min_degree must not exceed max_degree")
        if not 0 <= self.density_floor <= 1:
            raise ValueError("density_floor must lie in [0, 1]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.iteration_budget < 0:
            raise ValueError("iteration_budget must be nonnegative")


@dataclass(frozen=True)
class DegreeBest:
    """Best candidate found at one degree."""

    degree: int
    polynomial: NewmanPolynomial
    report: RatioReport


@dataclass
class SearchMetadata:
    """Counters and provenance of a search run.  `trajectory` holds each
    (iteration, product) that improved the best product over all degrees."""

    mode: str
    seed: int
    candidates_examined: int = 0
    reversal_skipped: int = 0
    density_rejected: int = 0
    trajectory: list[tuple[int, Fraction]] = field(default_factory=list)


# The columns of degree_table.csv: cells of the JSON `degree_table` rows.
DEGREE_TABLE_COLUMNS = [
    "degree", "polynomial", "l1", "height",
    "ratio_num", "ratio_den", "product_num", "product_den",
]


@dataclass
class SearchResult:
    best: NewmanPolynomial
    report: RatioReport
    degree_table: list[DegreeBest]
    metadata: SearchMetadata

    def to_json_dict(self) -> dict:
        rows = [{"degree": row.degree, "polynomial": format_polynomial(row.polynomial),
                 **row.report.to_json_dict()} for row in self.degree_table]
        best_row = next(row for row in rows if row["degree"] == self.report.degree)
        return {
            "best_polynomial": best_row["polynomial"],
            "best": self.report.to_json_dict(),
            "degree_table": rows,
            "metadata": {
                "mode": self.metadata.mode,
                "seed": self.metadata.seed,
                "candidates_examined": self.metadata.candidates_examined,
                "reversal_skipped": self.metadata.reversal_skipped,
                "density_rejected": self.metadata.density_rejected,
                "improvements": [
                    {"iteration": i, "product_num": v.numerator, "product_den": v.denominator}
                    for i, v in self.metadata.trajectory
                ],
            },
        }


class _Incumbent:
    """Best candidate so far at one degree: the one place that scores candidates."""

    def __init__(self, degree: int, spec: SearchSpec):
        self.degree = degree
        # l1 >= floor * degree, as an integer: l1 >= min_l1.
        self.min_l1 = ceil(spec.density_floor * degree)
        self._bits: Optional[np.ndarray | list[int]] = None
        self._sq: Optional[np.ndarray] = None
        self._num = self._den = 0  # the incumbent's value, num / den

    def score(
        self, height: int, l1: int, bits: np.ndarray | list[int], sq: np.ndarray,
        meta: SearchMetadata, step: Optional[int] = None,
    ) -> tuple[int, int]:
        """Exact product of a candidate with square height `height` and `l1`
        terms, as a numerator and a positive denominator.

        A strict improvement becomes the incumbent: its 0/1 coefficients
        `bits` (an array or a list) and its square `sq` are copied; at a
        `step`, the value joins the trajectory if it improves the best product.
        """
        num, den = height * self.degree, l1 * l1
        if self._bits is None or num * self._den < self._num * den:
            self._num, self._den = num, den
            self._bits, self._sq = bits.copy(), sq.copy()
            if step is not None:
                value = Fraction(num, den)
                if not meta.trajectory or value < meta.trajectory[-1][1]:
                    meta.trajectory.append((step, value))
        return num, den

    def row(self) -> DegreeBest:
        """The incumbent's polynomial and its report (from the copied square).

        There always is one: both modes score the all-ones polynomial, which is
        its own reversal and meets any density floor <= 1 with l1 = degree + 1."""
        candidate = NewmanPolynomial._trusted(np.asarray(self._bits, dtype=np.uint8))
        return DegreeBest(self.degree, candidate, metrics(candidate, self._sq))


def _result(table: list[DegreeBest], meta: SearchMetadata) -> SearchResult:
    # min keeps the first of equal minima: the lowest such degree.
    best = min(table, key=lambda row: row.report.product)
    return SearchResult(best=best.polynomial, report=best.report, degree_table=table, metadata=meta)


# Candidates per block of the exhaustive search: bounds its working set
# (about 3 MiB at the degree cap), so peak memory does not grow with degree.
_BLOCK = 1 << 13


def _square_columns(columns: np.ndarray) -> np.ndarray:
    """Exact squares of the 0/1 columns of the uint8 matrix `columns`, one
    column each, as uint8.

    One shifted add of the whole matrix per coefficient:
    (p**2)[j + k] += p[j] * p[k].  A coefficient of a column's square is at
    most its term count, so the uint8 sums are exact for at most 255 rows.
    """
    n, count = columns.shape
    sq = np.zeros((2 * n - 1, count), dtype=np.uint8)
    term = np.empty_like(columns)
    for j in range(n):
        np.multiply(columns, columns[j], out=term)
        sq[j:j + n] += term
    return sq


def exhaustive_search(spec: SearchSpec) -> SearchResult:
    """Exact minimum of the product over canonical candidates in the range.

    Candidates have constant and leading coefficient 1, and an interior
    pattern is skipped whenever its reversal has a smaller encoding (the
    reversal shares all metrics).  Interior patterns are enumerated in
    increasing order, `_BLOCK` at a time, as the columns of a 0/1 matrix
    that is filtered by boolean masks and squared at once; of equal minima
    the first in that order is kept.
    """
    if spec.max_degree > EXHAUSTIVE_DEGREE_CAP:
        raise ValueError(f"exhaustive mode is capped at degree {EXHAUSTIVE_DEGREE_CAP}")
    meta = SearchMetadata(mode="exhaustive", seed=spec.seed)
    table: list[DegreeBest] = []
    for degree in range(spec.min_degree, spec.max_degree + 1):
        width = degree - 1
        shifts = np.arange(width)[:, None]
        reversed_weights = 1 << shifts[::-1, 0]  # bit j of a pattern is bit width-1-j of its reversal
        incumbent = _Incumbent(degree, spec)
        for start in range(0, 1 << width, _BLOCK):
            interiors = np.arange(start, min(start + _BLOCK, 1 << width))
            bits = (interiors >> shifts) & 1  # bits[j] is coefficient j + 1
            keep = reversed_weights @ bits >= interiors
            meta.reversal_skipped += len(interiors) - int(keep.sum())
            l1 = bits.sum(axis=0) + 2
            dense = l1 >= incumbent.min_l1
            meta.density_rejected += int((keep & ~dense).sum())
            keep &= dense
            columns = np.ones((degree + 1, int(keep.sum())), dtype=np.uint8)
            columns[1:degree] = bits[:, keep]
            meta.candidates_examined += columns.shape[1]
            if columns.shape[1] == 0:
                continue
            sq = _square_columns(columns)
            heights = sq.max(axis=0)
            l1 = l1[keep]
            # h / l1**2 in float64 orders exactly: with h, l1 <= 29, distinct
            # values differ by at least 29**-4, far above the rounding, and
            # equal values round alike.  argmin keeps the first of equal minima.
            best = int(np.argmin(heights / (l1 * l1)))
            incumbent.score(int(heights[best]), int(l1[best]), columns[:, best], sq[:, best], meta)
        table.append(incumbent.row())
    return _result(table, meta)


def _random_start(
    rng: np.random.Generator, degree: int, floor: Fraction, min_l1: int, restart: int
) -> np.ndarray:
    coeffs = np.ones(degree + 1, dtype=np.uint8)
    if restart == 0:
        return coeffs  # the always-feasible dense start
    density = max(float(floor), 0.5)
    coeffs[1:degree] = rng.random(degree - 1) < density
    # Repair until feasible (floor <= 1 guarantees enough zeros).
    zeros = (np.flatnonzero(coeffs[1:degree] == 0) + 1).tolist()
    for _ in range(min_l1 - int(coeffs.sum())):
        coeffs[zeros.pop(rng.integers(len(zeros)))] = 1
    return coeffs


def _flip(bits: list[int], twice: np.ndarray, sq: np.ndarray, i: int) -> None:
    """Flip coefficient i of a 0/1 polynomial p and update its square `sq` in place.

    `bits` lists p's coefficients and `twice` holds 2 * p; both follow the
    flip.  The flipped p' = p +- x**i has p'**2 - p**2 = +-x**i (p + p'),
    and p + p' is 2 * p with a 1 at i.
    """
    twice[i] = 1  # now p + p'
    window = sq[i:i + len(twice)]
    if bits[i]:
        window -= twice
    else:
        window += twice
    bits[i] ^= 1
    twice[i] = 2 * bits[i]


def local_search(spec: SearchSpec) -> SearchResult:
    """Seeded annealing over interior bit flips and swaps, one walk per degree.

    Never returns or visits a candidate violating the density floor, records
    every improvement of the best product, and is fully determined by the seed.
    Each restart squares its start once; a move updates that square with
    `_flip`, and a rejected move is flipped back.
    """
    meta = SearchMetadata(mode="local_search", seed=spec.seed)
    table: list[DegreeBest] = []
    restarts = 4
    per_restart = spec.iteration_budget // restarts
    global_iter = 0
    for degree in range(spec.min_degree, spec.max_degree + 1):
        incumbent = _Incumbent(degree, spec)
        for restart in range(restarts):
            rng = np.random.default_rng([spec.seed, degree, restart])
            coeffs = _random_start(rng, degree, spec.density_floor, incumbent.min_l1, restart)
            # int32 is exact: no coefficient of the square exceeds l1.
            sq = square(NewmanPolynomial._trusted(coeffs)).astype(np.int32)
            bits = coeffs.tolist()
            twice = 2 * coeffs.astype(np.int32)
            interior = coeffs[1:degree]
            # The interior ones and zeros, sorted; they change only when a move is accepted.
            ones = (np.flatnonzero(interior) + 1).tolist()
            zeros = (np.flatnonzero(interior == 0) + 1).tolist()
            l1 = len(ones) + 2
            meta.candidates_examined += 1
            num, den = incumbent.score(int(sq.max()), l1, bits, sq, meta, global_iter)
            if degree <= 1:
                continue  # no interior bits to move
            temp_hi, temp_lo = 0.05, 1e-4
            for step in range(per_restart):
                global_iter += 1
                if rng.random() < 0.5:
                    i = int(rng.integers(1, degree))
                    moved: tuple[int, ...] = (i,)
                    l1_after = l1 + 1 - 2 * bits[i]
                    if l1_after < incumbent.min_l1:
                        meta.density_rejected += 1
                        continue
                else:
                    if not (ones and zeros):
                        continue  # no interior one, or no interior zero, to swap
                    moved = (ones[rng.integers(len(ones))], zeros[rng.integers(len(zeros))])
                    l1_after = l1
                for i in moved:
                    _flip(bits, twice, sq, i)
                meta.candidates_examined += 1
                new_num, new_den = incumbent.score(int(sq.max()), l1_after, bits, sq, meta, global_iter)
                # int / int rounds correctly, so this is float(value - current value).
                delta = (new_num * den - num * new_den) / (new_den * den)
                accept = delta <= 0
                if not accept:
                    temperature = temp_hi * (temp_lo / temp_hi) ** (step / max(1, per_restart - 1))
                    accept = rng.random() < exp(-delta / temperature)
                if accept:
                    l1, num, den = l1_after, new_num, new_den
                    for i in moved:
                        gone, gained = (zeros, ones) if bits[i] else (ones, zeros)
                        del gone[bisect_left(gone, i)]
                        insort(gained, i)
                else:
                    for i in moved:
                        _flip(bits, twice, sq, i)  # undo the move
        table.append(incumbent.row())
    return _result(table, meta)

