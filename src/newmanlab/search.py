"""Extremal search for dense 0/1 polynomials with small ratio * degree.

Candidates are canonicalized to have constant term and leading term both 1
(shifts by powers of x never help the objective at a fixed degree), and the
exhaustive mode additionally halves the space using the fact that a
polynomial and its reversal share every metric used here.  Beyond the
exhaustive cap a seeded annealing walk over interior bit flips and swaps
takes over.

Both modes score a candidate in one place, `_Incumbent.score`: the search
builds the 0/1 array itself, so it is wrapped without re-validation and
scored by one exact `Fraction`; a `RatioReport` is built only for a new
incumbent.  The density floor becomes an integer term count, computed once
per degree.
"""

from __future__ import annotations

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
    "HypothesisCheck",
    "exhaustive_search",
    "local_search",
    "verify_hypothesis",
]

EXHAUSTIVE_DEGREE_CAP = 28

_OBJECTIVES = ("min_product", "min_ratio")
_MODES = ("exhaustive", "local_search")


@dataclass(frozen=True)
class SearchSpec:
    """Degree range, density constraint, objective and mode of a search."""

    min_degree: int
    max_degree: int
    density_floor: Fraction = Fraction(0)
    objective: str = "min_product"
    mode: str = "exhaustive"
    seed: int = 0
    iteration_budget: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "density_floor", Fraction(self.density_floor))
        if self.min_degree < 1:
            raise ValueError("min_degree must be at least 1 (degree 0 is degenerate)")
        if self.min_degree > self.max_degree:
            raise ValueError("min_degree must not exceed max_degree")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.mode == "exhaustive" and self.max_degree > EXHAUSTIVE_DEGREE_CAP:
            raise ValueError(f"exhaustive mode is capped at degree {EXHAUSTIVE_DEGREE_CAP}")
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
    """Counters and provenance of a search run."""

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
        return {
            "best_polynomial": format_polynomial(self.best),
            "best": self.report.to_json_dict(),
            "degree_table": [
                {
                    "degree": row.degree,
                    "polynomial": format_polynomial(row.polynomial),
                    **row.report.to_json_dict(),
                }
                for row in self.degree_table
            ],
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


def _objective_value(report: RatioReport, objective: str) -> Fraction:
    return report.product if objective == "min_product" else report.ratio


def _reverse_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class _Incumbent:
    """Best candidate so far at one degree: the one place that scores candidates."""

    def __init__(self, degree: int, spec: SearchSpec):
        # l1 >= floor * degree, as an integer: l1 >= min_l1.
        self.min_l1 = ceil(spec.density_floor * degree)
        self._weight = degree if spec.objective == "min_product" else 1
        self.value: Optional[Fraction] = None
        self.best: Optional[DegreeBest] = None

    def score(self, coeffs: np.ndarray, meta: SearchMetadata, step: Optional[int] = None) -> Fraction:
        """Objective value of the canonical 0/1 array `coeffs`, adopted and frozen.

        A strict improvement becomes the incumbent, with its `RatioReport`,
        and is recorded in the trajectory at `step` when one is given.
        """
        candidate = NewmanPolynomial._trusted(coeffs, np.flatnonzero(coeffs))
        sq = square(candidate)
        l1 = candidate.l1
        value = Fraction(sq.height * self._weight, l1 * l1)
        meta.candidates_examined += 1
        if self.value is None or value < self.value:
            self.value = value
            self.best = DegreeBest(candidate.degree, candidate, metrics(candidate, sq))
            if step is not None:
                meta.trajectory.append((step, value))
        return value


def _result(table: list[DegreeBest], spec: SearchSpec, meta: SearchMetadata) -> SearchResult:
    if not table:
        raise ValueError("no candidate satisfies the density floor in the degree range")
    # min keeps the first of equal minima: the lowest such degree.
    best = min(table, key=lambda row: _objective_value(row.report, spec.objective))
    return SearchResult(best=best.polynomial, report=best.report, degree_table=table, metadata=meta)


def exhaustive_search(spec: SearchSpec, use_reversal_symmetry: bool = True) -> SearchResult:
    """Exact minimum of the objective over canonical candidates in the range.

    Candidates have constant and leading coefficient 1; with the symmetry
    reduction on, an interior pattern is skipped whenever its reversal has a
    smaller encoding (the reversal shares all metrics).
    """
    if spec.mode != "exhaustive":
        raise ValueError("spec.mode must be 'exhaustive'")
    meta = SearchMetadata(mode="exhaustive", seed=spec.seed)
    table: list[DegreeBest] = []
    for degree in range(spec.min_degree, spec.max_degree + 1):
        width = degree - 1
        bits = np.arange(width)
        incumbent = _Incumbent(degree, spec)
        for interior in range(1 << width):
            if use_reversal_symmetry and _reverse_bits(interior, width) < interior:
                meta.reversal_skipped += 1
                continue
            if interior.bit_count() + 2 < incumbent.min_l1:
                meta.density_rejected += 1
                continue
            coeffs = np.ones(degree + 1, dtype=np.uint8)
            coeffs[1:degree] = (interior >> bits) & 1
            incumbent.score(coeffs, meta)
        if incumbent.best is not None:  # else the floor filtered this degree out
            table.append(incumbent.best)
    return _result(table, spec, meta)


def _random_start(
    rng: np.random.Generator, degree: int, floor: Fraction, min_l1: int, restart: int
) -> np.ndarray:
    coeffs = np.ones(degree + 1, dtype=np.uint8)
    if restart == 0:
        return coeffs  # the always-feasible dense start
    density = max(float(floor), 0.5)
    coeffs[1:degree] = rng.random(degree - 1) < density
    # Repair until feasible (floor <= 1 guarantees termination).
    interior = list(range(1, degree))
    while int(coeffs.sum()) < min_l1:
        zeros = [j for j in interior if coeffs[j] == 0]
        coeffs[zeros[rng.integers(len(zeros))]] = 1
    return coeffs


def local_search(spec: SearchSpec) -> SearchResult:
    """Seeded annealing over interior bit flips and swaps, one walk per degree.

    Never returns or visits a candidate violating the density floor, records
    every improvement of the incumbent, and is fully determined by the seed.
    """
    if spec.mode != "local_search":
        raise ValueError("spec.mode must be 'local_search'")
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
            current_value = incumbent.score(coeffs, meta, global_iter)
            if degree <= 1:
                continue  # no interior bits to move
            temp_hi, temp_lo = 0.05, 1e-4
            for step in range(per_restart):
                global_iter += 1
                frac = step / max(1, per_restart - 1)
                temperature = temp_hi * (temp_lo / temp_hi) ** frac
                proposal = coeffs.copy()
                if rng.random() < 0.5:
                    pos = int(rng.integers(1, degree))
                    proposal[pos] ^= 1
                else:
                    ones = np.flatnonzero(proposal[1:degree] == 1) + 1
                    zeros = np.flatnonzero(proposal[1:degree] == 0) + 1
                    if len(ones) == 0 or len(zeros) == 0:
                        continue
                    proposal[ones[rng.integers(len(ones))]] = 0
                    proposal[zeros[rng.integers(len(zeros))]] = 1
                if int(proposal.sum()) < incumbent.min_l1:
                    meta.density_rejected += 1
                    continue
                value = incumbent.score(proposal, meta, global_iter)
                delta = float(value - current_value)
                if delta <= 0 or rng.random() < exp(-delta / temperature):
                    coeffs = proposal
                    current_value = value
        table.append(incumbent.best)  # the dense start is always feasible
    return _result(table, spec, meta)


@dataclass(frozen=True)
class HypothesisCheck:
    """Exact verdict on the density and scaled-ratio requirements."""

    ok: bool
    density_ok: bool
    ratio_ok: bool
    l1: int
    degree: int
    required_l1: Fraction  # c0 * degree
    ratio: Fraction
    ratio_budget: Fraction  # rho / degree
    failed: tuple[str, ...]


def verify_hypothesis(p: NewmanPolynomial, c0: Fraction, rho: Fraction) -> HypothesisCheck:
    """Check l1(p) >= c0*deg(p) and ratio(p) <= rho/deg(p), exactly."""
    if p.degree == 0:
        raise ValueError("degree 0 is degenerate for the scaled ratio")
    c0 = Fraction(c0)
    rho = Fraction(rho)
    report = metrics(p)
    required_l1 = c0 * p.degree
    ratio_budget = rho / p.degree
    density_ok = Fraction(p.l1) >= required_l1
    ratio_ok = report.ratio <= ratio_budget
    failed = tuple(
        name for name, ok in (("density", density_ok), ("ratio", ratio_ok)) if not ok
    )
    return HypothesisCheck(
        ok=density_ok and ratio_ok,
        density_ok=density_ok,
        ratio_ok=ratio_ok,
        l1=p.l1,
        degree=p.degree,
        required_l1=required_l1,
        ratio=report.ratio,
        ratio_budget=ratio_budget,
        failed=failed,
    )
