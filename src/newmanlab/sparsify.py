"""Randomized coefficient thinning and its bookkeeping.

A trial keeps each coefficient of a 0/1 polynomial independently with
probability alpha = N**(-alpha_exponent) and then asks three questions about
the thinned polynomial q: did its mass drop below (1-eps) of its expectation
(event E), did any coefficient of q**2 overshoot (1+eps)*alpha**2 times the
height of p**2 (events E_k), and did its degree collapse below (c0/2)*N
(event D)?  Trials are reproducible: the per-trial stream is derived from
(master seed, trial index) alone, so results do not depend on scheduling.
The mask is drawn in chunks of `_MASK_CHUNK` uniform floats, each compared
with alpha into one N+1-byte bool array; consecutive draws continue the one
stream, so the mask is that of a single N+1-float draw, but a trial never
holds a float array longer than a chunk.
`sample` returns one `TrialRecord` per trial, the only record that carries
its mask; the records a campaign keeps hold None there.

alpha is always an exact Fraction: 1/N**exponent itself when that is
rational, otherwise the exact value of the float N**(-exponent) that the mask
is drawn against.  All event thresholds are evaluated in exact rational
arithmetic (a float epsilon is converted to the rational it represents)
and cached per (p, config) in `_Cutoffs`.  Both sides of the theorem read
p's `RatioReport`, `metrics(p)`, computed once by the caller, so neither
squares p: `verify_hypothesis` checks the theorem's dense p, and
`theorem_conclusion_check` compares a clean trial with the exact
amplification (1+eps)/(1-eps)**2 of the same epsilon, so its verdict
follows from the flags by exact arithmetic.
`pair_counts` splits every squared coefficient of p at once into its
unordered pairs {j, k-j} and its diagonal term, the independent parts that
thinning keeps with probability alpha**2 and alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .concentration import choose_epsilon, exact_amplification
from .poly import NewmanPolynomial, RatioReport, metrics, square

__all__ = [
    "RNG_ALGORITHM",
    "SparsifyConfig",
    "KeepMask",
    "BadEventFlags",
    "TrialRecord",
    "alpha_of",
    "sample",
    "pair_counts",
    "verify_hypothesis",
    "theorem_conclusion_check",
]

# Recorded in every output manifest; identifies how trial streams are built.
RNG_ALGORITHM = "numpy-pcg64/seedsequence(entropy=[master_seed,trial_index])"

_MASK_CHUNK = 1 << 16  # uniform floats that `sample` draws at a time


def _int_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of an integer x >= 1, for n >= 2."""
    if x.bit_length() <= n:  # x < 2**n
        return 1
    r = 1 << -(-x.bit_length() // n)  # upper seed
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


def alpha_of(N: int, exponent: Fraction) -> Fraction:
    """Keep probability N**(-exponent), as an exact Fraction.

    With exponent = a/b in lowest terms, N**exponent is rational exactly
    when N is a perfect b-th power, and then alpha is 1/root**a (N = 1024
    with exponent 1/10 gives 1/2).  Otherwise alpha is the exact value of
    the float N**(-exponent).
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    exponent = Fraction(exponent)
    if not 0 < exponent < 1:
        raise ValueError("exponent must lie in (0, 1)")
    root = _int_nth_root(N, exponent.denominator)
    if root ** exponent.denominator == N:
        return Fraction(1, root ** exponent.numerator)
    return Fraction(float(N) ** -float(exponent))


@dataclass(frozen=True)
class SparsifyConfig:
    """Parameters of a thinning experiment.

    `rho` and `rho_prime` are given together or not at all, with
    0 < rho < rho_prime <= 1.  `epsilon` may then be omitted, and the
    largest admissible deviation parameter is chosen for the pair; a given
    `epsilon` must not exceed `choose_epsilon(rho, rho_prime)`.
    """

    alpha_exponent: Fraction = Fraction(1, 10)
    epsilon: Optional[float] = None
    c0: Fraction = Fraction(1)
    rho: Optional[Fraction] = None
    rho_prime: Optional[Fraction] = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_exponent", Fraction(self.alpha_exponent))
        object.__setattr__(self, "c0", Fraction(self.c0))
        if (self.rho is None) != (self.rho_prime is None):
            raise ValueError("rho and rho_prime must be given together")
        if self.rho is not None:
            object.__setattr__(self, "rho", Fraction(self.rho))
            object.__setattr__(self, "rho_prime", Fraction(self.rho_prime))
        if not 0 < self.alpha_exponent < 1:
            raise ValueError("alpha_exponent must lie in (0, 1)")
        if not 0 < self.c0 <= 1:
            raise ValueError("c0 must lie in (0, 1]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.rho is not None:
            # choose_epsilon range-checks the pair, so a given epsilon gets it too.
            chosen = choose_epsilon(self.rho, self.rho_prime)
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", chosen)
        if self.epsilon is None:
            raise ValueError("epsilon must be given explicitly or derived from (rho, rho_prime)")
        epsilon = float(self.epsilon)
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        object.__setattr__(self, "epsilon", epsilon)
        if self.rho is not None and epsilon > chosen:
            raise ValueError("epsilon amplifies rho beyond rho_prime")


@dataclass(frozen=True, eq=False)
class KeepMask:
    """The read-only uint8 keep/drop bits that `sample` drew, one per index 0..N."""

    bits: np.ndarray


@dataclass(frozen=True)
class BadEventFlags:
    """Outcome flags for one trial.

    `E`: kept mass fell below (1-eps) of its expectation.
    `E_k_indices`: every k whose squared coefficient overshot the height
    budget (1+eps)*alpha**2*height(p**2); `E_k_any` is its nonemptiness.
    `D`: degree of q collapsed to at most (c0/2)*N.
    """

    E: bool
    E_k_indices: tuple[int, ...]
    D: bool

    @property
    def E_k_any(self) -> bool:
        return bool(self.E_k_indices)

    @property
    def clean(self) -> bool:
        return not (self.E or self.E_k_any or self.D)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one thinning trial: the surviving polynomial's metrics and flags.

    `q_metrics` is None when no coefficient survived.  `mask` is the mask
    that `sample` drew; it is N+1 bytes, so the records a campaign keeps and
    a trial table renders hold None.  It is neither compared nor hashed.
    """

    trial_index: int
    trial_seed: int
    q_metrics: Optional[RatioReport]
    flags: BadEventFlags
    mask: Optional[KeepMask] = field(default=None, compare=False, repr=False)

    @property
    def is_empty(self) -> bool:
        return self.q_metrics is None


def pair_counts(p: NewmanPolynomial, p_square: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every squared coefficient of p into pairs and a diagonal term.

    `p_square` is `square(p)`.  Returns (pairs, diagonal), two int64 arrays
    of length 2N+1: `diagonal[k]` is p_{k/2} at even k and 0 at odd k, and
    `pairs[k]` counts the unordered pairs j < k-j with both terms in
    supp(p), so p_square = 2*pairs + diagonal.  Thinning p keeps a pair
    with probability alpha**2 and the diagonal term with probability alpha,
    independently, so E[(q**2)_k] = 2*alpha**2*pairs[k] + alpha*diagonal[k].
    Raises ValueError if `p_square` has the wrong length or leaves an odd
    remainder, either of which shows it is not the square of p.
    """
    diagonal = np.zeros(2 * p.degree + 1, dtype=np.int64)
    if len(p_square) != len(diagonal):
        raise ValueError(f"p_square must hold the {len(diagonal)} coefficients of p**2")
    diagonal[::2] = p.coefficients
    twice_pairs = p_square - diagonal
    if (twice_pairs % 2).any():
        raise ValueError("p_square is not the square of p: p_square - diagonal is odd")
    return twice_pairs // 2, diagonal


# ---------------------------------------------------------------------------
# Trials.


class _Cutoffs(NamedTuple):
    """Exact event cutoffs for thinning one p with one config."""

    alpha: Fraction
    low_mass: Fraction  # E: kept mass below this
    height: int         # E_k: squared coefficient above this
    degree: Fraction    # D: degree of q at most this


@lru_cache(maxsize=64)
def _cutoffs(degree: int, l1: int, p_square_height: int, config: SparsifyConfig) -> _Cutoffs:
    # Keyed on numbers, not on p: hashing p would copy its coefficients.
    alpha = alpha_of(degree, config.alpha_exponent)
    fe = Fraction(config.epsilon)
    return _Cutoffs(
        alpha=alpha,
        low_mass=(1 - fe) * alpha * l1,
        height=math.floor((1 + fe) * alpha * alpha * p_square_height),
        degree=Fraction(config.c0, 2) * degree,
    )


def _thin(
    p: NewmanPolynomial, bits: np.ndarray, cutoffs: _Cutoffs
) -> tuple[Optional[RatioReport], BadEventFlags]:
    """Keep the coefficients of p where bits is 1: (q report, flags).

    p and the bits that `sample` drew are 0/1 already, so q, built from
    them, is not checked again.  An empty q has no report.  q**2 is scanned
    for E_k only when its height is above the cutoff, as no coefficient
    can overshoot otherwise.
    """
    q_coeffs = p.coefficients & bits
    ones = q_coeffs.view(np.bool_)
    report, overs = None, ()
    if ones.any():
        # q ends at its last kept term: len(ones) minus the trailing zeros.
        q = NewmanPolynomial._trusted(q_coeffs[: len(ones) - int(ones[::-1].argmax())])
        q_square = square(q)
        report = metrics(q, q_square)
        if report.height > cutoffs.height:
            overs = tuple(np.flatnonzero(q_square > cutoffs.height).tolist())
    flags = BadEventFlags(
        E=(0 if report is None else report.l1) < cutoffs.low_mass,
        E_k_indices=overs,
        D=report is None or report.degree <= cutoffs.degree,
    )
    return report, flags


def sample(
    p: NewmanPolynomial,
    config: SparsifyConfig,
    trial_index: int,
    p_square_height: Optional[int] = None,
) -> TrialRecord:
    """Run one reproducible thinning trial; the record carries its mask.

    The mask is drawn from a stream derived from (config.seed, trial_index)
    only, so identical inputs reproduce the identical trial regardless of
    how trials are scheduled across workers.  The mask is written into
    one N+1-byte bool array, `_MASK_CHUNK` uniforms at a time: the same
    bits as `rng.random(N+1) < alpha`, without that call's 8*(N+1)-byte
    float array.  Pass the precomputed height of p**2, `metrics(p).height`,
    when running many trials against the same p.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    if p_square_height is None:
        p_square_height = metrics(p).height
    cutoffs = _cutoffs(p.degree, p.l1, p_square_height, config)
    seed_seq = np.random.SeedSequence([int(config.seed), int(trial_index)])
    trial_seed = int(seed_seq.generate_state(1, np.uint64)[0])
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    keep = np.empty(p.degree + 1, dtype=np.bool_)
    alpha = float(cutoffs.alpha)
    for start in range(0, len(keep), _MASK_CHUNK):
        chunk = keep[start:start + _MASK_CHUNK]
        np.less(rng.random(len(chunk)), alpha, out=chunk)
    bits = keep.view(np.uint8)
    bits.setflags(write=False)
    q_metrics, flags = _thin(p, bits, cutoffs)
    return TrialRecord(trial_index=trial_index, trial_seed=trial_seed,
                       q_metrics=q_metrics, flags=flags, mask=KeepMask(bits))


def verify_hypothesis(p_report: RatioReport, c0: Fraction, rho: Fraction) -> bool:
    """Check l1(p) >= c0*deg(p) and ratio(p) <= rho/deg(p), exactly, on
    `p_report` = `metrics(p)`, the report that `theorem_conclusion_check` reads."""
    if p_report.degree == 0:
        raise ValueError("degree 0 is degenerate for the scaled ratio")
    return (p_report.l1 >= Fraction(c0) * p_report.degree
            and p_report.ratio <= Fraction(rho) / p_report.degree)


def theorem_conclusion_check(
    p_report: RatioReport,
    trial: TrialRecord,
    config: SparsifyConfig,
) -> bool:
    """Exact amplified-product check for a clean trial.

    `p_report` is `metrics(p)` for the dense polynomial p that the trial
    thinned; compute it once and pass it for every trial of p.  Requires a
    trial with no bad events (an empty q is never clean); returns whether
    ratio(q)*deg(q) <= (1+eps)/(1-eps)**2 * ratio(p)*deg(p) in rational
    arithmetic.
    """
    if not trial.flags.clean:
        raise ValueError("trial has bad events; the conclusion check does not apply")
    return trial.q_metrics.product <= exact_amplification(config.epsilon) * p_report.product
