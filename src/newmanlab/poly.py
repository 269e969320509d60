"""Exact arithmetic for 0/1-coefficient polynomials and their squares.

A polynomial here is a nonempty sequence of coefficients in {0, 1} with a
nonzero leading term; the square of such a polynomial has small nonnegative
integer coefficients (never exceeding the term count), so every quantity in
this module is computed exactly, with ratios carried as `Fraction`s.

`square()` has one strategy, a real FFT padded to the smallest 5-smooth
length (2**a * 3**b * 5**c) that holds the 2*degree + 1 output values; an
a-priori error bound and the rounding residual both guard its exactness,
and it raises `ArithmeticError` if either guard trips.  Its time and
memory grow with the degree N (O(N log N)) whatever the term count, so a
sparse high-degree input pays for its full length:
`from_support([0, 7, 3_000_000])` takes about 0.8 s on a 2-vCPU Xeon VM,
and under a 2 GiB address-space limit the largest such input is of degree
about 31 million.  It must agree bit-for-bit with `square_oracle`, a direct
O(N**2) convolution sum kept as the reference.  A square is an int64 array
of the coefficients of x**0 .. x**(2*degree), made read-only.
Blocks of small polynomials, the columns of a uint8 matrix, are squared
together by `_square_columns` (exhaustive search, `expectation_oracle`).

The first `square()` in a process raises glibc's mmap and trim thresholds
(`_keep_freed_memory`).  By default glibc maps each multi-MiB buffer (numpy's
arrays, pocketfft's per-call scratch) with `mmap` and unmaps it on free, so
every FFT square of a thinning campaign page-faults all of its buffers in
again; with the raised thresholds freed buffers stay in the heap and the
next square reuses them.  Buffers above 32 MiB, glibc's 64-bit maximum
threshold (squares above degree about 2**21), are still mapped afresh.
No arithmetic depends on it, and it does nothing off glibc.

A `NewmanPolynomial` stores one array, its uint8 coefficients, and the
term count l1 found when it is made; its support (the exponent list) is
derived on each read by a scan of the coefficients' bool view.
Coefficients are checked once, by the `NewmanPolynomial` constructor (the
values as given, before the uint8 cast); polynomials derived from checked
ones skip it via `_trusted`, and so do `all_ones` and `from_support`, which
build their coefficient arrays themselves.

`metrics(p)` is p's `RatioReport`: it is made from the term count, degree
and square height alone and computes the exact ratios from them.  It squares
p only if p's support is not symmetric (as `all_ones`'s is): if it is, the
height is l1(p), found by one O(N) comparison.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NewmanPolynomial",
    "RatioReport",
    "parse_polynomial",
    "format_polynomial",
    "square",
    "square_oracle",
    "metrics",
    "ORACLE_DEGREE_CAP",
]

ORACLE_DEGREE_CAP = 10_000

_FFT_GUARD = 0.25   # square()'s certified rounding error must stay below this


class NewmanPolynomial:
    """Immutable polynomial with coefficients in {0, 1} and leading term 1.

    `coefficients[j]` is the coefficient of x**j.  The zero polynomial is
    not representable; the degree is always the index of the last (and
    necessarily nonzero) coefficient.
    """

    __slots__ = ("_coeffs", "_l1")

    def __init__(self, coefficients: Sequence[int] | np.ndarray):
        # The values are checked as given, before the narrowing cast, so
        # values that the cast would turn into 0 or 1 (256, 0.5) are rejected.
        arr = np.asarray(coefficients)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty one-dimensional sequence")
        if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
            raise ValueError("coefficients must all be 0 or 1")
        coeffs = arr.astype(np.uint8)
        if coeffs[-1] != 1:
            raise ValueError("leading coefficient must be 1 (no trailing zeros)")
        self._adopt(coeffs)

    @classmethod
    def _trusted(cls, coeffs: np.ndarray) -> "NewmanPolynomial":
        """Wrap uint8 0/1 `coeffs` ending in 1 unchecked; frozen, not copied."""
        p = object.__new__(cls)
        p._adopt(coeffs)
        return p

    def _adopt(self, coeffs: np.ndarray) -> None:
        coeffs.setflags(write=False)
        self._coeffs = coeffs
        self._l1 = int(np.count_nonzero(coeffs.view(np.bool_)))

    @classmethod
    def from_support(cls, exponents: Iterable[int]) -> "NewmanPolynomial":
        """Build the polynomial whose terms are x**e for the given exponents."""
        exps = sorted(int(e) for e in exponents)
        if not exps:
            raise ValueError("support must be nonempty")
        if exps[0] < 0:
            raise ValueError("exponents must be nonnegative")
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponents")
        coeffs = np.zeros(exps[-1] + 1, dtype=np.uint8)
        coeffs[exps] = 1  # ends in 1, and the exponents are checked above
        return cls._trusted(coeffs)

    @classmethod
    def all_ones(cls, degree: int) -> "NewmanPolynomial":
        """1 + x + ... + x**degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls._trusted(np.ones(degree + 1, dtype=np.uint8))

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeffs

    @property
    def support(self) -> np.ndarray:
        """Sorted exponents of the nonzero terms: a read-only int64 array,
        found by a scan of the coefficients on each call."""
        support = np.flatnonzero(self._coeffs.view(np.bool_)).astype(np.int64, copy=False)
        support.setflags(write=False)
        return support

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def l1(self) -> int:
        """Number of terms (the L1 norm of the coefficient sequence)."""
        return self._l1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NewmanPolynomial):
            return NotImplemented
        return self._coeffs.shape == other._coeffs.shape and bool(
            (self._coeffs == other._coeffs).all()
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._coeffs.tobytes()))

    def __reduce__(self):
        # Unpickle through the checked constructor, which freezes the array.
        return (type(self), (self._coeffs,))

    def __repr__(self) -> str:
        exps = self.support.tolist()
        shown = ",".join(map(str, exps[:8])) + (",..." if len(exps) > 8 else "")
        return f"NewmanPolynomial(degree={self.degree}, support=[{shown}])"


@dataclass(frozen=True)
class RatioReport:
    """Per-polynomial bundle: term count, degree, square height, and exact ratios.

    The ratios are computed from the three counts when the report is made:
    `ratio` is height / l1**2, `product` is ratio * degree, and
    `trivial_bound` is 1 / (2*degree + 1), the floor that `ratio` can never
    go below.
    """

    l1: int
    degree: int
    height: int
    ratio: Fraction = field(init=False)
    product: Fraction = field(init=False)
    trivial_bound: Fraction = field(init=False)

    def __post_init__(self) -> None:
        ratio = Fraction(self.height, self.l1 * self.l1)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "product", ratio * self.degree)
        object.__setattr__(self, "trivial_bound", Fraction(1, 2 * self.degree + 1))

    def to_json_dict(self) -> dict:
        """Flat JSON form with numerator/denominator pairs for the rationals."""
        return {
            "l1": self.l1,
            "degree": self.degree,
            "height": self.height,
            "ratio_num": self.ratio.numerator,
            "ratio_den": self.ratio.denominator,
            "product_num": self.product.numerator,
            "product_den": self.product.denominator,
            "trivial_bound_num": self.trivial_bound.numerator,
            "trivial_bound_den": self.trivial_bound.denominator,
        }


def parse_polynomial(text: str, format: str = "exponent_list") -> NewmanPolynomial:
    """Parse a polynomial from text.

    `bitstring` is the coefficient sequence c0 c1 ... cN (constant term
    first, must end in 1); `exponent_list` is a comma-separated list of
    distinct nonnegative exponents.
    """
    if format == "bitstring":
        s = text.strip()
        if not s:
            raise ValueError("empty bitstring")
        if set(s) - {"0", "1"}:
            raise ValueError(f"bitstring may contain only 0 and 1: {text!r}")
        if s[-1] != "1":
            raise ValueError("bitstring must end in 1 (leading coefficient zero)")
        return NewmanPolynomial([int(ch) for ch in s])
    if format == "exponent_list":
        parts = [piece.strip() for piece in text.split(",")]
        if parts == [""]:
            raise ValueError("empty exponent list")
        try:
            exps = [int(piece) for piece in parts]
        except ValueError as exc:
            raise ValueError(f"bad exponent list {text!r}: {exc}") from None
        return NewmanPolynomial.from_support(exps)
    raise ValueError(f"unknown polynomial format {format!r}")


def format_polynomial(p: NewmanPolynomial) -> str:
    """Render a polynomial as its ascending exponent list."""
    return ",".join(map(str, p.support.tolist()))


# ---------------------------------------------------------------------------
# Squaring.


# Cached because square() asks for it on every call, tiny squares included.
@lru_cache(maxsize=1024)
def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer 2**a * 3**b * 5**c >= n (n >= 1)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # Smallest power-of-two multiple of p35 that reaches n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_error_bound(l1: int, fft_length: int) -> float:
    # Worst-case rounding error of an FFT convolution of two 0/1 sequences
    # with l1 ones each: ||a||_2 * ||b||_2 * O(eps * log2(M)).  The factor
    # 16*log2(M) + 16 rounds up the constant of the radix-2 bound of
    # Brent-Percival-Zimmermann (2007) and Percival (2003).  pocketfft's
    # radix-3 and radix-5 passes have no published bound of this kind,
    # which is why square() also checks the rounding residual.
    eps = float(np.finfo(np.float64).eps)
    return l1 * eps * (16.0 * math.log2(fft_length) + 16.0)


def _uncertified(degree: int, l1: int, fft_length: int, guard: str) -> ArithmeticError:
    return ArithmeticError(
        f"FFT square of degree {degree}, l1 {l1} on {fft_length} points "
        f"is not certified exact: the {guard} reached {_FFT_GUARD}"
    )


@lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Keep freed buffers up to 32 MiB in this process's heap (glibc only).

    Runs once per process; a C library without `mallopt`, or one that
    rejects a value (`mallopt` returns 0), is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc's malloc.h: M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1.  32 MiB
    # is the largest mmap threshold glibc takes on 64-bit; setting it also
    # stops glibc from moving the threshold by itself.
    mallopt(-3, 32 << 20)
    mallopt(-1, 256 << 20)


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


def square(p: NewmanPolynomial) -> np.ndarray:
    """Exact coefficients of p**2: a read-only int64 array of length 2*degree + 1.

    (p**2)_k = sum_j p_j * p_{k-j}, by a certified FFT.  Raises
    `ArithmeticError` if the FFT cannot certify its rounding exact.
    """
    _keep_freed_memory()
    degree = p.degree
    l1 = p.l1
    out_len = 2 * degree + 1
    fft_length = _fft_length(out_len)
    if _fft_error_bound(l1, fft_length) >= _FFT_GUARD:
        raise _uncertified(degree, l1, fft_length, "a-priori error bound")
    spectrum = np.fft.rfft(p.coefficients, n=fft_length)
    spectrum *= spectrum
    raw = np.fft.irfft(spectrum, n=fft_length)[:out_len]
    del spectrum
    # Round straight into the int64 result, then turn raw into |residual|.
    sq = np.empty(out_len, dtype=np.int64)
    np.rint(raw, out=sq, casting="unsafe")
    raw -= sq
    np.abs(raw, out=raw)
    # Written so that a NaN residual fails the guard too.
    if not raw.max() < _FFT_GUARD:
        raise _uncertified(degree, l1, fft_length, "rounding residual")
    sq.setflags(write=False)
    return sq


def square_oracle(p: NewmanPolynomial) -> np.ndarray:
    """Reference squaring: the direct O(N**2) convolution sum, no FFT;
    read-only int64, like `square`.

    numpy's integer `convolve` sums every product p_j * p_{k-j} exactly in
    int64 (it never takes an FFT).  Kept independent of `square` so the two
    can be compared; refuses degrees above ORACLE_DEGREE_CAP.
    """
    if p.degree > ORACLE_DEGREE_CAP:
        raise ValueError(f"oracle capped at degree {ORACLE_DEGREE_CAP}, got {p.degree}")
    c = p.coefficients.astype(np.int64)
    sq = np.convolve(c, c)
    sq.setflags(write=False)
    return sq


def metrics(p: NewmanPolynomial, square_coeffs: np.ndarray | None = None) -> RatioReport:
    """Exact RatioReport for p; pass a precomputed square (any integer array
    of its coefficients) to avoid recomputing it.

    Without one, p is not squared if its support S is symmetric, S = c - S
    with c = min S + max S: then (p**2)_c counts each j in S once, so it is
    l1(p), and no (p**2)_k = sum_j p_j * p_{k-j} exceeds sum_j p_j = l1(p).
    """
    if square_coeffs is None:
        coeffs = p.coefficients[int(p.coefficients.view(np.bool_).argmax()):]
        if (coeffs == coeffs[::-1]).all():
            return RatioReport(p.l1, p.degree, p.l1)
        square_coeffs = square(p)
    return RatioReport(p.l1, p.degree, int(square_coeffs.max()))
