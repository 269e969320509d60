"""Polynomial core: parsing, exact squaring, metrics."""

import ctypes
import pickle
import platform
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newmanlab.poly import (
    NewmanPolynomial,
    format_polynomial,
    metrics,
    parse_polynomial,
    square,
    square_oracle,
)
from newmanlab import poly
from newmanlab.poly import _FFT_GUARD, _fft_error_bound, _fft_length

supports = st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=64)


def poly_from(sup):
    return NewmanPolynomial.from_support(sup)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NewmanPolynomial([])
        with pytest.raises(ValueError, match="^support must be nonempty$"):
            NewmanPolynomial.from_support([])
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            NewmanPolynomial.all_ones(-1)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            NewmanPolynomial([1, 2, 1])

    @pytest.mark.parametrize("bad", [
        np.array([256, 1]),  # wraps to [0, 1] under a uint8 cast
        [0.5, 1.0],          # truncates to [0, 1] under an integer cast
        [float("nan"), 1.0],
        ["0", "1"],
        [-1, 1],             # wraps to [255, 1] under a uint8 cast
        [[0, 1]],            # two-dimensional
    ])
    def test_rejects_values_a_cast_would_hide(self, bad):
        with pytest.raises(ValueError):
            NewmanPolynomial(bad)

    def test_accepts_ints_bools_and_exact_floats(self):
        p = NewmanPolynomial([1, 0, 1])
        assert p == NewmanPolynomial([True, False, True])
        assert p == NewmanPolynomial(np.array([1.0, 0.0, 1.0]))
        assert NewmanPolynomial(np.array([0, 1], dtype=np.int8)).support.tolist() == [1]

    def test_does_not_freeze_the_callers_array(self):
        bits = np.array([1, 1], dtype=np.uint8)
        p = NewmanPolynomial(bits)
        bits[0] = 0
        assert p.coefficients.tolist() == [1, 1]

    def test_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            NewmanPolynomial([1, 1, 0])

    def test_degree_is_last_index(self):
        p = NewmanPolynomial([0, 1, 0, 1])
        assert p.degree == 3
        assert p.l1 == 2
        assert p.support.tolist() == [1, 3]
        assert repr(p) == "NewmanPolynomial(degree=3, support=[1,3])"
        assert repr(NewmanPolynomial.all_ones(9)) == \
            "NewmanPolynomial(degree=9, support=[0,1,2,3,4,5,6,7,...])"

    def test_from_support_duplicates(self):
        with pytest.raises(ValueError):
            NewmanPolynomial.from_support([1, 1, 3])

    def test_immutable(self):
        p = NewmanPolynomial([1, 1])
        with pytest.raises(ValueError):
            p.coefficients[0] = 0

    def test_equality_and_hash(self):
        a = NewmanPolynomial([1, 0, 1])
        b = NewmanPolynomial.from_support([0, 2])
        assert a == b
        assert hash(a) == hash(b)
        assert a != NewmanPolynomial([1, 1, 1])
        assert a.__eq__("x") is NotImplemented
        assert (a == "x") is False

    def test_pickle_round_trip_is_equal_and_read_only(self):
        p = NewmanPolynomial.from_support([0, 3, 4, 9])
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and hash(copy) == hash(p)
        assert copy.support.tolist() == [0, 3, 4, 9]
        assert not copy.coefficients.flags.writeable
        assert not copy.support.flags.writeable


# Nonempty 0/1 coefficient lists ending in 1.
coefficient_lists = st.lists(st.integers(0, 1), max_size=63).map(lambda bits: bits + [1])


def assert_support_invariant(p):
    """p's support is a read-only int64 array of the indices of its ones."""
    assert p.support.dtype == np.int64 and not p.support.flags.writeable
    assert np.array_equal(p.support, np.flatnonzero(p.coefficients))


class TestSupportInvariant:
    @given(coefficient_lists, st.sampled_from([np.uint8, np.int8, np.bool_, np.float64]))
    def test_constructor(self, bits, dtype):
        assert_support_invariant(NewmanPolynomial(np.array(bits, dtype=dtype)))

    @given(coefficient_lists)
    def test_every_other_construction_path(self, bits):
        p = NewmanPolynomial(bits)
        built = [
            NewmanPolynomial.from_support(np.flatnonzero(bits).tolist()),
            parse_polynomial("".join(map(str, bits)), "bitstring"),
            parse_polynomial(format_polynomial(p), "exponent_list"),
            pickle.loads(pickle.dumps(p)),
        ]
        for q in built:
            assert q == p
            assert_support_invariant(q)
        assert_support_invariant(NewmanPolynomial.all_ones(len(bits) - 1))


class TestParseFormat:
    def test_bitstring_example(self):
        p = parse_polynomial("111", "bitstring")
        assert p.degree == 2
        assert p.coefficients.tolist() == [1, 1, 1]

    def test_exponent_list_example(self):
        p = parse_polynomial("0,3", "exponent_list")
        assert p.degree == 3
        assert p.support.tolist() == [0, 3]

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            parse_polynomial("110", "bitstring")

    @pytest.mark.parametrize("bad", ["", "12", "1a1"])
    def test_bad_bitstrings(self, bad):
        with pytest.raises(ValueError):
            parse_polynomial(bad, "bitstring")

    @pytest.mark.parametrize("bad", ["", "1,1", "-1,2", "a,b"])
    def test_bad_exponent_lists(self, bad):
        with pytest.raises(ValueError):
            parse_polynomial(bad, "exponent_list")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_polynomial("11", "octal")

    @given(supports)
    def test_round_trip_exponent_list(self, sup):
        text = ",".join(map(str, sorted(sup)))
        assert format_polynomial(parse_polynomial(text, "exponent_list")) == text

    @given(supports)
    def test_round_trip_bitstring(self, sup):
        p = poly_from(sup)
        text = "".join(map(str, p.coefficients.tolist()))
        assert parse_polynomial(text, "bitstring").coefficients.tolist() == p.coefficients.tolist()


class TestSquare:
    def test_binomial(self):
        assert square(parse_polynomial("11", "bitstring")).tolist() == [1, 2, 1]

    def test_two_terms(self):
        assert square(parse_polynomial("0,3")).tolist() == [1, 0, 0, 2, 0, 0, 1]

    def test_three_terms_matches_oracle(self):
        p = parse_polynomial("111", "bitstring")
        expected = square_oracle(p)
        assert expected.tolist() == [1, 2, 3, 2, 1]
        assert np.array_equal(square(p), expected)

    def test_identity(self):
        assert square_oracle(NewmanPolynomial([1])).tolist() == [1]

    def test_oracle_cap(self):
        p = NewmanPolynomial.from_support([0, 10_001])
        with pytest.raises(ValueError):
            square_oracle(p)

    def test_random_degree_50(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            bits = (rng.random(51) < 0.5).astype(int)
            bits[-1] = 1
            p = NewmanPolynomial(bits)
            assert np.array_equal(square(p), square_oracle(p))

    def test_exhaustive_small_degrees(self):
        # Every polynomial of degree <= 9 (leading coefficient fixed to 1).
        for degree in range(10):
            for bits in range(1 << degree):
                coeffs = [(bits >> j) & 1 for j in range(degree)] + [1]
                p = NewmanPolynomial(coeffs)
                assert np.array_equal(square(p), square_oracle(p))

    @given(supports)
    @settings(max_examples=60)
    def test_mass_identity(self, sup):
        p = poly_from(sup)
        sq = square(p)
        assert sq.sum() == p.l1 ** 2
        assert sq.max() <= p.degree + 1
        # height * (2N+1) >= l1^2, exactly
        assert sq.max() * (2 * p.degree + 1) >= p.l1 ** 2

    @given(supports)
    @settings(max_examples=40)
    def test_reversal_symmetry(self, sup):
        p = poly_from(sup)
        # The reciprocal polynomial x**degree * p(1/x).
        rev = NewmanPolynomial(p.coefficients[::-1][: p.degree - int(p.support[0]) + 1])
        assert rev.l1 == p.l1
        # The reversed square is the square read backwards, minus the
        # low-order zero run that reversal drops.
        mirrored = square(p).tolist()[::-1]
        assert square(rev).tolist() == mirrored[: 2 * rev.degree + 1]
        assert all(v == 0 for v in mirrored[2 * rev.degree + 1:])
        assert square(rev).max() == square(p).max()

    @given(supports)
    @settings(max_examples=40)
    def test_palindrome_square_is_palindromic(self, sup):
        p = poly_from(sup)
        sym = NewmanPolynomial(np.maximum(p.coefficients, p.coefficients[::-1]))
        sq = square(sym).tolist()
        assert sq == sq[::-1]

    def test_fft_and_oracle_agree(self):
        rng = np.random.default_rng(11)
        for degree, density in [(80, 0.5), (300, 0.9), (1200, 0.02), (2200, 0.97)]:
            bits = (rng.random(degree + 1) < density).astype(np.uint8)
            bits[-1] = 1
            p = NewmanPolynomial(bits)
            assert (square(p) == square_oracle(p)).all()

    def test_sparse_high_degree_input_squares_exactly(self):
        # 6_000_001 output values through the certified FFT.
        sq = square(NewmanPolynomial.from_support([0, 7, 3_000_000]))
        nonzero = np.flatnonzero(sq)
        assert nonzero.tolist() == [0, 7, 14, 3_000_000, 3_000_007, 6_000_000]
        assert sq[nonzero].tolist() == [1, 2, 1, 2, 2, 1]

    @pytest.mark.parametrize("squaring, p", [
        (square, NewmanPolynomial.from_support([0, 3, 4])),
        (square, NewmanPolynomial.all_ones(300)),
        (square_oracle, NewmanPolynomial.all_ones(300)),
    ], ids=["tiny", "fft", "oracle"])
    def test_square_is_a_read_only_int64_array(self, squaring, p, monkeypatch):
        def barred_fft(*args, **kwargs):
            raise AssertionError("the oracle took an FFT")

        if squaring is square_oracle:
            monkeypatch.setattr(np.fft, "rfft", barred_fft)
        sq = squaring(p)
        assert isinstance(sq, np.ndarray) and sq.dtype == np.int64
        assert sq.shape == (2 * p.degree + 1,)
        assert not sq.flags.writeable
        with pytest.raises(ValueError):
            sq[0] = 0


class TestFFTCertificate:
    def test_perturbed_transform_raises(self, monkeypatch):
        real_irfft = np.fft.irfft

        def off_by_four_tenths(*args, **kwargs):
            raw = real_irfft(*args, **kwargs)
            raw[100] += 0.4
            return raw

        monkeypatch.setattr(np.fft, "irfft", off_by_four_tenths)
        with pytest.raises(ArithmeticError, match="rounding residual"):
            square(NewmanPolynomial.all_ones(100))

    # Rounding a NaN into the int64 result warns before the guard sees it.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("perturb", [
        pytest.param(lambda value: np.nan, id="nan"),
        pytest.param(lambda value: value - 0.4, id="minus-four-tenths"),
    ])
    def test_bad_value_at_one_index_raises(self, monkeypatch, perturb):
        real_irfft = np.fft.irfft

        def perturbed(*args, **kwargs):
            raw = real_irfft(*args, **kwargs)
            raw[100] = perturb(raw[100])
            return raw

        monkeypatch.setattr(np.fft, "irfft", perturbed)
        with pytest.raises(ArithmeticError, match="rounding residual"):
            square(NewmanPolynomial.all_ones(100))

    def test_tripped_bound_raises_before_transforming(self, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("rfft called")

        monkeypatch.setattr(poly, "_fft_error_bound", lambda l1, fft_length: _FFT_GUARD)
        monkeypatch.setattr(np.fft, "rfft", no_transform)
        with pytest.raises(ArithmeticError, match="degree 100, l1 101 on 216 points"):
            square(NewmanPolynomial.all_ones(100))

    def test_bound_holds_below_a_tebibyte_of_coefficients(self):
        # The bound leaves the guard only far beyond any array that fits in
        # memory: 2**40 terms spread over 2**41 + 1 output values.
        assert _fft_error_bound(2 ** 40, _fft_length(2 ** 41 + 1)) < _FFT_GUARD


def _no_c_library(name):
    raise OSError("no C library")


class TestKeepFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the mmap and trim thresholds are glibc's")
    def test_repeated_large_squares_take_no_page_faults(self):
        import resource

        degree = 2 ** 17
        rng = np.random.default_rng(17)
        inputs = []
        for _ in range(4):
            bits = (rng.random(degree + 1) < 0.3).astype(np.uint8)
            bits[-1] = 1
            inputs.append(NewmanPolynomial(bits))
        square(NewmanPolynomial.all_ones(degree))  # heap and FFT plan warm
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for p in inputs:
            square(p)
        # Without the thresholds each square faults in ~3k pages of buffers.
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200

    @pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                             ids=["no-c-library", "no-mallopt"])
    def test_without_mallopt_it_does_nothing(self, cdll, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert poly._keep_freed_memory.__wrapped__() is None
        # A fresh cache, so that square() takes the fallback without
        # recording it for the rest of this process.
        monkeypatch.setattr(poly, "_keep_freed_memory",
                            lru_cache(poly._keep_freed_memory.__wrapped__))
        p = NewmanPolynomial.all_ones(300)
        assert np.array_equal(square(p), square_oracle(p))


class TestFFTLength:
    def test_smallest_5_smooth_length(self):
        def smooth(m):
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            return m == 1

        expected = []
        m = 1
        for n in range(1, 20_001):
            m = max(m, n)
            while not smooth(m):
                m += 1
            expected.append(m)
        got = [_fft_length(n) for n in range(1, 20_001)]
        assert got == expected
        assert all(length <= 1 << (n - 1).bit_length() for n, length in enumerate(got, 1))


class TestMetrics:
    def test_constant(self):
        r = metrics(NewmanPolynomial([1]))
        assert (r.l1, r.height, r.ratio, r.product, r.trivial_bound) == (
            1, 1, Fraction(1), Fraction(0), Fraction(1))

    def test_binomial(self):
        r = metrics(parse_polynomial("11", "bitstring"))
        assert r.l1 == 2 and r.height == 2
        assert r.ratio == Fraction(1, 2)
        assert r.product == Fraction(1, 2)
        assert r.trivial_bound == Fraction(1, 3)

    def test_all_ones_closed_form_against_oracle(self):
        for degree in range(1, 101):
            p = NewmanPolynomial.all_ones(degree)
            r = metrics(p, square_coeffs=square_oracle(p))
            assert r.ratio == Fraction(1, degree + 1)
            assert r.product == Fraction(degree, degree + 1)

    def test_all_ones_closed_form_large(self):
        for degree in range(101, 1001, 7):
            r = metrics(NewmanPolynomial.all_ones(degree))
            assert r.product == Fraction(degree, degree + 1)

    @given(supports)
    @settings(max_examples=60)
    def test_trivial_bound(self, sup):
        r = metrics(poly_from(sup))
        assert r.ratio >= r.trivial_bound
        assert r.ratio == Fraction(r.height, r.l1 ** 2)

    def test_json_dict_is_flat_with_num_den_pairs(self):
        d = metrics(parse_polynomial("11", "bitstring")).to_json_dict()
        assert d == {
            "l1": 2, "degree": 1, "height": 2,
            "ratio_num": 1, "ratio_den": 2,
            "product_num": 1, "product_den": 2,
            "trivial_bound_num": 1, "trivial_bound_den": 3,
        }
