"""Thinning trials: expectations, pair counts, bad events, determinism."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newmanlab.poly
import newmanlab.sparsify
from newmanlab.concentration import exact_amplification
from newmanlab.poly import (
    NewmanPolynomial,
    RatioReport,
    metrics,
    parse_polynomial,
    square,
    square_oracle,
)
from newmanlab.sparsify import (
    BadEventFlags,
    KeepMask,
    SparsifyConfig,
    TrialRecord,
    alpha_of,
    pair_counts,
    sample,
    theorem_conclusion_check,
    verify_hypothesis,
)
from newmanlab.sparsify import _Cutoffs, _thin

from oracles import expectation_oracle

RHO = Fraction(8, 9)
RHO_PRIME = Fraction(19, 20)


def masked_polynomial(p, bits):
    kept = [int(j) for j in p.support if bits[j]]
    return NewmanPolynomial.from_support(kept) if kept else None


def exact_means(p, alpha):
    """E[(q**2)_k] for k = 0..2N, as 2*alpha**2*pairs + alpha*diagonal."""
    pairs, diagonal = pair_counts(p, square(p))
    return [2 * alpha * alpha * c + alpha * d for c, d in zip(pairs.tolist(), diagonal.tolist())]


class TestAlphaOf:
    def test_power_of_two_is_exact(self):
        assert alpha_of(1024, Fraction(1, 10)) == Fraction(1, 2)
        assert alpha_of(2 ** 20, Fraction(1, 10)) == Fraction(1, 4)
        assert alpha_of(2 ** 20, Fraction(1, 5)) == Fraction(1, 16)

    def test_one(self):
        assert alpha_of(1, Fraction(1, 10)) == Fraction(1)
        assert alpha_of(1, Fraction(7, 9)) == Fraction(1)

    def test_power_of_ten(self):
        assert alpha_of(10 ** 10, Fraction(1, 10)) == Fraction(1, 10)

    def test_inexact_falls_back_to_float(self):
        assert alpha_of(1000, Fraction(1, 10)) == Fraction(1000.0 ** -0.1)

    @pytest.mark.parametrize("exponent", [Fraction(1, 10 ** 11),
                                          Fraction(10 ** 11 - 1, 10 ** 11)])
    def test_huge_denominator_is_immediate(self, exponent):
        # N = 1000 is no perfect 10**11-th power; no root of N**a is taken.
        assert alpha_of(1000, exponent) == Fraction(1000.0 ** -float(exponent))
        assert alpha_of(1, exponent) == 1

    def test_range(self):
        for n in (2, 3, 17, 1000, 12345):
            a = alpha_of(n, Fraction(1, 10))
            assert isinstance(a, Fraction) and 0 < a <= 1

    def test_errors(self):
        with pytest.raises(ValueError):
            alpha_of(0, Fraction(1, 10))
        with pytest.raises(ValueError):
            alpha_of(10, Fraction(0))
        with pytest.raises(ValueError):
            alpha_of(10, Fraction(1))


class TestConfig:
    def test_epsilon_from_rhos(self):
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME)
        assert cfg.epsilon == pytest.approx(0.02208, abs=1e-5)

    def test_explicit_epsilon(self):
        cfg = SparsifyConfig(epsilon=0.3)
        assert cfg.epsilon == 0.3

    def test_epsilon_required_without_rhos(self):
        with pytest.raises(ValueError):
            SparsifyConfig()

    def test_inconsistent_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.5, rho=RHO, rho_prime=RHO_PRIME)

    @pytest.mark.parametrize("rho, rho_prime", [(RHO, RHO_PRIME), (Fraction(4, 5), RHO_PRIME)])
    def test_given_epsilon_admitted_up_to_the_chosen_one(self, rho, rho_prime):
        # Exactly the epsilons whose amplification keeps rho within rho_prime.
        chosen = SparsifyConfig(rho=rho, rho_prime=rho_prime).epsilon
        assert exact_amplification(chosen) * rho <= rho_prime
        assert SparsifyConfig(epsilon=chosen, rho=rho, rho_prime=rho_prime).epsilon == chosen
        above = math.nextafter(chosen, 1.0)
        assert exact_amplification(above) * rho > rho_prime
        with pytest.raises(ValueError, match="epsilon amplifies rho beyond rho_prime"):
            SparsifyConfig(epsilon=above, rho=rho, rho_prime=rho_prime)

    @pytest.mark.parametrize("pair, message", [
        ({"rho": RHO}, "rho and rho_prime must be given together"),
        ({"rho_prime": RHO_PRIME}, "rho and rho_prime must be given together"),
        ({"rho": 2, "rho_prime": 3}, "need 0 < rho < rho_prime <= 1"),
    ], ids=["lone-rho", "lone-rho-prime", "pair-out-of-range"])
    def test_rho_pair_checked_with_given_epsilon(self, pair, message):
        with pytest.raises(ValueError, match=message):
            SparsifyConfig(epsilon=0.1, **pair)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.1, alpha_exponent=Fraction(1))
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.1, c0=Fraction(0))
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.1, seed=-1)
        with pytest.raises(ValueError):
            SparsifyConfig(epsilon=0.1, seed=2 ** 64)


class TestKeepMask:
    """Keep bits given by a user become q through the constructor's 0/1 check."""

    @pytest.mark.parametrize("bad", [
        np.array([256, 1]),  # wraps to [0, 1] under a uint8 cast
        [0.5, 1.0],          # truncates to [0, 1] under an integer cast
        [2, 1],
        [-1, 1],
        [],
        [[0, 1]],
    ])
    def test_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="coefficients must"):
            NewmanPolynomial(bad)

    def test_accepts_ints_and_bools(self):
        def split(bits):
            q = NewmanPolynomial(bits)
            return pair_counts(q, square(q))

        pairs, diagonal = split([1, 0, 1])
        for other in (split([True, False, True]),
                      split(np.array([1, 0, 1], dtype=np.uint8))):
            assert pairs.tolist() == other[0].tolist()
            assert diagonal.tolist() == other[1].tolist()
        assert 2 * pairs[2] + diagonal[2] == 2  # (q^2)_2 of 1 + x^2: the pair {0, 2}


class TestExpectations:
    def test_odd_k_two_bits(self):
        p = parse_polynomial("11", "bitstring")
        assert exact_means(p, Fraction(1, 2))[1] == Fraction(1, 2)

    def test_even_k_zero_is_alpha(self):
        p = parse_polynomial("11", "bitstring")
        for alpha in (Fraction(1, 2), Fraction(2, 7), Fraction(9, 10)):
            assert exact_means(p, alpha)[0] == alpha  # (q^2)_0 is the kept constant bit itself

    def test_even_k_three_terms(self):
        # E[2 e0 e2 + e1] at alpha = 1/2: confirmed by the 8-mask enumeration.
        p = parse_polynomial("111", "bitstring")
        assert exact_means(p, Fraction(1, 2))[2] == 1
        assert expectation_oracle(p, Fraction(1, 2))[0][2] == 1

    def test_oracle_two_term_example(self):
        p = parse_polynomial("0,3")
        assert expectation_oracle(p, Fraction(1, 3))[0][3] == Fraction(2, 9)
        assert exact_means(p, Fraction(1, 3))[3] == Fraction(2, 9)

    @pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
    def test_formula_matches_enumeration_degree_le_6(self, alpha):
        for degree in range(7):
            for bits in range(1 << degree):
                coeffs = [(bits >> j) & 1 for j in range(degree)] + [1]
                p = NewmanPolynomial(coeffs)
                assert exact_means(p, alpha) == expectation_oracle(p, alpha)[0], (coeffs, alpha)

    @given(
        st.sets(st.integers(min_value=0, max_value=8), min_size=1),
        st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12),
                     max_denominator=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_formula_matches_enumeration_random(self, sup, alpha):
        p = NewmanPolynomial.from_support(sup)
        assert exact_means(p, alpha) == expectation_oracle(p, alpha)[0]

    @given(
        st.sets(st.integers(min_value=0, max_value=10), min_size=1),
        st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12),
                     max_denominator=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_l1_enumeration_matches_linearity(self, sup, alpha):
        p = NewmanPolynomial.from_support(sup)
        assert expectation_oracle(p, alpha)[1] == alpha * p.l1

    def test_l1_enumeration_at_degree_ten(self):
        p = NewmanPolynomial.all_ones(10)
        for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            assert expectation_oracle(p, alpha)[1] == alpha * 11

    def test_formula_matches_enumeration_over_several_blocks(self):
        # Degree 15: 2**16 masks, four enumeration blocks.
        rng = np.random.default_rng(15)
        bits = (rng.random(16) < 0.5).astype(np.uint8)
        bits[-1] = 1
        p = NewmanPolynomial(bits)
        alpha = Fraction(2, 7)
        oracle, mass = expectation_oracle(p, alpha)
        assert oracle == exact_means(p, alpha)
        assert mass == alpha * p.l1

    def test_oracle_squares_by_itself(self, monkeypatch):
        p = parse_polynomial("1101", "bitstring")
        alpha = Fraction(1, 3)
        formula = exact_means(p, alpha)

        def no_square(*args, **kwargs):
            raise AssertionError("the oracle used a squaring routine")

        monkeypatch.setattr(newmanlab.poly, "square", no_square)
        monkeypatch.setattr(newmanlab.poly, "square_oracle", no_square)
        monkeypatch.setattr(newmanlab.sparsify, "pair_counts", no_square)
        assert expectation_oracle(p, alpha) == (formula, alpha * 3)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="capped at degree 20"):
            expectation_oracle(NewmanPolynomial.all_ones(21), Fraction(1, 2))


class TestSplit:
    """`pair_counts`: each (p**2)_k split into unordered pairs and a diagonal term."""

    def test_hand_convolution_1111(self):
        p = parse_polynomial("1111", "bitstring")
        pairs, diagonal = pair_counts(p, square(p))
        assert pairs.tolist() == [0, 1, 1, 2, 1, 1, 0]
        assert diagonal.tolist() == [1, 0, 1, 0, 1, 0, 1]

    def test_even_diagonal_vanishes_without_center_term(self):
        p = parse_polynomial("0,3")  # p_2 = 0
        pairs, diagonal = pair_counts(p, square(p))
        assert diagonal.tolist() == [1, 0, 0, 0, 0, 0, 1]
        assert pairs.tolist() == [0, 0, 0, 1, 0, 0, 0]

    def test_errors(self):
        p = parse_polynomial("0,2")
        with pytest.raises(ValueError, match="must hold the 5 coefficients"):
            pair_counts(p, square(p)[:-1])
        # (1 + x + x**2)**2 has p's length, but leaves 3 at k = 2.
        with pytest.raises(ValueError, match="not the square of p"):
            pair_counts(p, square(parse_polynomial("111", "bitstring")))

    @given(st.sets(st.integers(min_value=0, max_value=60), min_size=1),
           st.integers(min_value=0, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_pairs_and_diagonal_rebuild_the_square(self, sup, moved):
        p = NewmanPolynomial.from_support(sup)
        p_square = square_oracle(p)
        pairs, diagonal = pair_counts(p, p_square)
        assert pairs.dtype == diagonal.dtype == np.int64
        assert np.array_equal(2 * pairs + diagonal, p_square)
        assert (pairs >= 0).all()
        # The unordered pairs, counted from the support directly.
        i, j = np.triu_indices(p.l1, 1)
        assert np.array_equal(pairs, np.bincount(p.support[i] + p.support[j],
                                                 minlength=2 * p.degree + 1))
        with pytest.raises(ValueError):
            pair_counts(p, p_square[:-1])
        with pytest.raises(ValueError):
            pair_counts(p, np.append(p_square, 0))
        off_by_one = p_square.copy()
        off_by_one[moved % len(p_square)] += 1
        with pytest.raises(ValueError):
            pair_counts(p, off_by_one)


class TestBadEvents:
    def test_all_zeros_mask(self):
        # alpha = 100**(-99/100) ~ 0.0105: about a third of the trials keep nothing.
        p = NewmanPolynomial.all_ones(100)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, alpha_exponent=Fraction(99, 100), seed=1)
        trial = next(t for t in (sample(p, cfg, i) for i in range(50)) if t.is_empty)
        assert not trial.mask.bits.any()
        assert trial.flags.E and trial.flags.D
        assert not trial.flags.E_k_any


class TestThin:
    @staticmethod
    def thin_with_height_cutoff(below_height):
        """_thin of a fixed p and mask, with the E_k cutoff `below_height`
        under height(q**2): (q**2 by the oracle, flags)."""
        p = NewmanPolynomial.all_ones(200)
        bits = (np.random.default_rng(30).random(201) < 0.5).view(np.uint8)
        q_square = square_oracle(masked_polynomial(p, bits))
        cutoffs = _Cutoffs(alpha=Fraction(1, 2), low_mass=Fraction(0),
                           height=int(q_square.max()) - below_height, degree=Fraction(0))
        return q_square, _thin(p, bits, cutoffs)[1]

    def test_no_overshoot_at_a_cutoff_equal_to_the_height(self):
        _, flags = self.thin_with_height_cutoff(0)
        assert flags.E_k_indices == () and not flags.E_k_any

    def test_every_peak_overshoots_a_cutoff_one_below_the_height(self):
        q_square, flags = self.thin_with_height_cutoff(1)
        assert flags.E_k_indices == tuple(np.flatnonzero(q_square == q_square.max()).tolist())

    # p = 1 + x**2 + x**3 + x**5; q is trimmed after its last kept term.
    EDGE_P = NewmanPolynomial.from_support([0, 2, 3, 5])
    EDGE_CUTOFFS = _Cutoffs(alpha=Fraction(1, 2), low_mass=Fraction(1, 2),
                            height=1, degree=Fraction(0))

    @pytest.mark.parametrize("bits", [[1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 0],
                                      [0, 0, 0, 0, 0, 1]],
                             ids=["only-x0", "drop-last", "only-x5"])
    def test_q_ends_at_its_last_kept_term(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        q = masked_polynomial(self.EDGE_P, bits)
        report, flags = _thin(self.EDGE_P, bits, self.EDGE_CUTOFFS)
        assert report == metrics(q)
        assert not flags.E and flags.D == (q.degree == 0)
        assert flags.E_k_indices == tuple(np.flatnonzero(square_oracle(q) > 1).tolist())

    def test_keeping_only_absent_terms_gives_an_empty_q(self):
        bits = np.array([0, 1, 0, 0, 1, 0], dtype=np.uint8)
        assert masked_polynomial(self.EDGE_P, bits) is None
        report, flags = _thin(self.EDGE_P, bits, self.EDGE_CUTOFFS)
        assert report is None
        assert flags == BadEventFlags(E=True, E_k_indices=(), D=True)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=63).map(lambda bits: bits + [1]),
           st.integers(0, 2 ** 64 - 1))
    def test_mask_and_q_keep_their_invariants(self, bits, seed):
        # The mask is read-only uint8 0/1, and q, caught on its way to
        # square(), has a read-only int64 support of its ones.
        p = NewmanPolynomial(bits)
        squared = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newmanlab.sparsify, "square", lambda q: squared.append(q) or square(q))
            trial = sample(p, SparsifyConfig(epsilon=0.3, seed=seed), 0,
                           p_square_height=int(square(p).max()))
        mask = trial.mask.bits
        assert mask.dtype == np.uint8 and not mask.flags.writeable
        assert set(mask.tolist()) <= {0, 1}
        assert [q.coefficients.tolist() for q in squared] == (
            [] if trial.is_empty else [masked_polynomial(p, mask).coefficients.tolist()])
        for q in squared:
            assert q.support.dtype == np.int64 and not q.support.flags.writeable
            assert np.array_equal(q.support, np.flatnonzero(q.coefficients))


class TestSample:
    def test_deterministic_replay(self):
        p = NewmanPolynomial.all_ones(300)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=123456789)
        a = sample(p, cfg, 7)
        b = sample(p, cfg, 7)
        assert a.trial_seed == b.trial_seed
        assert np.array_equal(a.mask.bits, b.mask.bits)
        assert a.flags == b.flags
        assert a.q_metrics == b.q_metrics

    def test_mask_is_trusted_and_frozen(self, monkeypatch):
        # sample() draws its bits 0/1 itself, so q skips the constructor's check.
        p = NewmanPolynomial.all_ones(300)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=11)

        def checked(*args, **kwargs):
            raise AssertionError("sample built q through the checked constructor")

        monkeypatch.setattr(newmanlab.poly.NewmanPolynomial, "__init__", checked)
        mask = sample(p, cfg, 0).mask
        monkeypatch.undo()
        assert mask.bits.dtype == np.uint8 and not mask.bits.flags.writeable

    def test_distinct_trials_differ(self):
        p = NewmanPolynomial.all_ones(300)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=5)
        assert not np.array_equal(sample(p, cfg, 0).mask.bits, sample(p, cfg, 1).mask.bits)

    def test_trial_seed_is_uint64(self):
        p = NewmanPolynomial.all_ones(32)
        cfg = SparsifyConfig(epsilon=0.1, seed=2 ** 64 - 1)
        trial = sample(p, cfg, 3)
        assert 0 <= trial.trial_seed < 2 ** 64

    def test_trial_index_is_recorded(self):
        p = NewmanPolynomial.all_ones(32)
        cfg = SparsifyConfig(epsilon=0.1, seed=4)
        assert [sample(p, cfg, t).trial_index for t in (0, 5)] == [0, 5]

    def test_negative_trial_index(self):
        p = NewmanPolynomial.all_ones(32)
        cfg = SparsifyConfig(epsilon=0.1)
        with pytest.raises(ValueError):
            sample(p, cfg, -1)

    def test_degree_one_alpha_is_one(self):
        # alpha_of(1, e) == 1, so every coefficient survives every trial.
        p = NewmanPolynomial.all_ones(1)
        cfg = SparsifyConfig(epsilon=0.5, alpha_exponent=Fraction(1, 10), seed=3)
        for t in range(50):
            trial = sample(p, cfg, t)
            assert not trial.is_empty
            assert trial.q_metrics.l1 == 2
            assert not trial.flags.E and not trial.flags.D

    @pytest.mark.parametrize("family", ["all-ones", "half-dense"])
    def test_trials_agree_with_the_oracle_square(self, family):
        # Each trial's report and E_k indices, against q and p squared by the
        # direct convolution and the cutoff computed here from alpha_of.
        if family == "all-ones":
            p = NewmanPolynomial.all_ones(8192)
        else:
            bits = (np.random.default_rng(8000).random(8001) < 0.5).astype(np.uint8)
            bits[-1] = 1
            p = NewmanPolynomial(bits)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=23)
        alpha = alpha_of(p.degree, cfg.alpha_exponent)
        cutoff = math.floor((1 + Fraction(cfg.epsilon)) * alpha ** 2 * int(square_oracle(p).max()))
        overshoots = 0
        for t in range(3):
            trial = sample(p, cfg, t)
            kept = np.flatnonzero(p.coefficients & trial.mask.bits)
            q = NewmanPolynomial.from_support(kept.tolist())
            oracle = square_oracle(q)
            assert trial.q_metrics == RatioReport(q.l1, q.degree, int(oracle.max()))
            assert trial.flags.E_k_indices == tuple(np.flatnonzero(oracle > cutoff).tolist())
            overshoots += trial.flags.E_k_any
        if family == "all-ones":
            assert overshoots  # the peak near k = N overshoots the height budget

    def test_binomial_mean_of_kept_mass(self):
        # all-ones degree 1024, alpha exactly 1/2: mean mass 512.5, and the
        # 1e4-trial sample mean must land within 4 standard errors.
        p = NewmanPolynomial.all_ones(1024)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=20080613)
        trials = 10_000
        alpha = float(alpha_of(1024, Fraction(1, 10)))
        assert alpha == 0.5
        masses = np.empty(trials)
        for t in range(trials):
            seq = np.random.SeedSequence([cfg.seed, t])
            rng = np.random.Generator(np.random.PCG64(seq))
            masses[t] = int((rng.random(1025) < alpha).sum())
        # The direct stream above is exactly what sample() draws.
        for t in range(25):
            trial = sample(p, cfg, t)
            l1 = 0 if trial.is_empty else trial.q_metrics.l1
            assert l1 == masses[t]
        sd_one = math.sqrt(1025 * 0.25)
        band = 4 * sd_one / math.sqrt(trials)
        assert abs(masses.mean() - 512.5) <= band

    CHUNK = newmanlab.sparsify._MASK_CHUNK

    @pytest.mark.parametrize("length", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5],
                             ids=["chunk-1", "chunk", "chunk+1", "3chunks+5"])
    def test_chunked_mask_is_one_draw_of_the_stream(self, length):
        # Drawn a chunk at a time, the mask is still one random(N+1) < alpha.
        N = length - 1
        p = NewmanPolynomial.all_ones(N)
        cfg = SparsifyConfig(epsilon=0.3, seed=20080613)
        alpha = float(alpha_of(N, cfg.alpha_exponent))
        for t in (0, 9):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, t])))
            bits = sample(p, cfg, t, p_square_height=N + 1).mask.bits
            assert bits.dtype == np.uint8 and not bits.flags.writeable
            assert np.array_equal(bits, (rng.random(N + 1) < alpha).view(np.uint8))

    def test_trial_allocates_no_full_length_float_array(self, monkeypatch):
        # With the square stubbed out, a trial holds the N+1-byte mask, the
        # N+1-byte q and one chunk of floats at most, not 8*(N+1) bytes.
        stub = np.zeros(1, dtype=np.int64)
        stub.setflags(write=False)
        monkeypatch.setattr(newmanlab.sparsify, "square", lambda q: stub)
        N = 2 ** 18
        p = NewmanPolynomial.all_ones(N)
        cfg = SparsifyConfig(epsilon=0.3, seed=3)
        sample(p, cfg, 0, p_square_height=N + 1)
        tracemalloc.start()
        try:
            sample(p, cfg, 1, p_square_height=N + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (N + 1) + 8 * self.CHUNK + 65_536

    def test_sparsity_ratio_trend_small_ladder(self):
        # mean kept-mass / degree falls as the degree climbs (alpha shrinks).
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=11)
        means = []
        for degree in (2 ** 8, 2 ** 10, 2 ** 12):
            alpha = float(alpha_of(degree, Fraction(1, 10)))
            vals = []
            for t in range(200):
                seq = np.random.SeedSequence([cfg.seed, t])
                rng = np.random.Generator(np.random.PCG64(seq))
                bits = rng.random(degree + 1) < alpha
                kept = np.flatnonzero(bits)
                if kept.size:
                    vals.append(kept.size / kept[-1])
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]


class TestVerifyHypothesis:
    def test_all_ones_is_tight(self):
        for degree in (3, 10, 57):
            p_report = metrics(NewmanPolynomial.all_ones(degree))
            assert verify_hypothesis(p_report, Fraction(1), Fraction(degree, degree + 1)) is True

    def test_sparse_fails_density(self):
        # 1 + x**d has ratio 2/2**2 <= d/d, and only its l1 = 2 < d/2 fails:
        # with c0 = 2/d it passes.
        for degree in (5, 12, 100):
            p_report = metrics(NewmanPolynomial.from_support([0, degree]))
            assert verify_hypothesis(p_report, Fraction(1, 2), Fraction(degree)) is False
            assert verify_hypothesis(p_report, Fraction(2, degree), Fraction(degree)) is True

    def test_rho_below_trivial_bound_always_fails(self):
        p_report = metrics(NewmanPolynomial.all_ones(9))
        # rho/deg < 1/(2 deg + 1) <= ratio, so the ratio conjunct alone fails.
        rho = Fraction(9, 19) - Fraction(1, 1000)
        assert verify_hypothesis(p_report, Fraction(1), rho) is False
        assert verify_hypothesis(p_report, Fraction(1), Fraction(1)) is True

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree 0"):
            verify_hypothesis(metrics(NewmanPolynomial([1])), Fraction(1), Fraction(1))

    def test_matches_the_definition_up_to_degree_ten(self):
        for degree in range(1, 11):
            for lower in range(1 << degree):
                coeffs = [(lower >> j) & 1 for j in range(degree)] + [1]
                p = NewmanPolynomial(coeffs)
                p_report = metrics(p)
                l1 = sum(coeffs)
                height = int(square_oracle(p).max())
                for c0 in (Fraction(1, 2), Fraction(1)):
                    for rho in (Fraction(1, 2), Fraction(8, 9), Fraction(1)):
                        expected = l1 >= c0 * degree and Fraction(height, l1 * l1) <= rho / degree
                        assert verify_hypothesis(p_report, c0, rho) is expected, (coeffs, c0, rho)

    def test_criterion_six_p_is_outside_the_hypothesis(self):
        # Acceptance criterion 6 thins all_ones(N) with rho = 8/9, but its
        # product N/(N+1) exceeds 8/9: density holds and the ratio does not.
        for degree in (2 ** 10, 2 ** 14, 2 ** 18):
            p_report = metrics(NewmanPolynomial.all_ones(degree))
            assert p_report.product == Fraction(degree, degree + 1)
            assert verify_hypothesis(p_report, Fraction(1), Fraction(8, 9)) is False
            assert verify_hypothesis(p_report, Fraction(1), Fraction(1)) is True

    def test_does_not_square_p(self, monkeypatch):
        # Both sides of the theorem read the one report a caller computes.
        p_report = metrics(NewmanPolynomial.all_ones(1024))

        def no_square(*args, **kwargs):
            raise AssertionError("verify_hypothesis squared a polynomial")

        monkeypatch.setattr(newmanlab.sparsify, "square", no_square)
        monkeypatch.setattr(newmanlab.poly, "square", no_square)
        assert verify_hypothesis(p_report, Fraction(1, 2), Fraction(1)) is True


class TestConclusion:
    def _clean_trial(self):
        p = NewmanPolynomial.all_ones(1024)
        cfg = SparsifyConfig(epsilon=0.5, seed=77)
        p_height = int(square(p).max())
        for t in range(50):
            trial = sample(p, cfg, t, p_square_height=p_height)
            if not trial.is_empty and trial.flags.clean:
                return p, cfg, trial
        pytest.fail("no clean trial found at epsilon=0.5, degree 1024")

    def test_clean_trial_satisfies_chain(self):
        p, cfg, trial = self._clean_trial()
        assert theorem_conclusion_check(metrics(p), trial, cfg) is True
        # (1 + 1/2) / (1 - 1/2)**2 = 6
        assert trial.q_metrics.product <= 6 * metrics(p).product

    def test_false_above_the_amplified_bound(self):
        p = NewmanPolynomial.all_ones(1024)
        cfg = SparsifyConfig(epsilon=0.5, seed=77)
        # Flags marked clean by hand: product(q) = 2 * 1024 / 2**2 = 512 > 6 * product(p).
        forged = TrialRecord(0, 0, RatioReport(l1=2, degree=1024, height=2),
                             BadEventFlags(E=False, E_k_indices=(), D=False))
        assert theorem_conclusion_check(metrics(p), forged, cfg) is False

    def test_does_not_square_p(self, monkeypatch):
        # p's report is computed once per polynomial, not once per trial.
        p, cfg, trial = self._clean_trial()
        p_report = metrics(p)

        def no_square(*args, **kwargs):
            raise AssertionError("theorem_conclusion_check squared a polynomial")

        monkeypatch.setattr(newmanlab.sparsify, "square", no_square)
        monkeypatch.setattr(newmanlab.poly, "square", no_square)
        assert theorem_conclusion_check(p_report, trial, cfg) is True

    def test_rejects_bad_event_trial(self):
        p = NewmanPolynomial.all_ones(100)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=1)
        trial = next(
            t for t in (sample(p, cfg, i) for i in range(50))
            if not t.is_empty and not t.flags.clean
        )
        with pytest.raises(ValueError):
            theorem_conclusion_check(metrics(p), trial, cfg)

    def test_rejects_empty_trial(self):
        p = NewmanPolynomial.all_ones(50)
        cfg = SparsifyConfig(epsilon=0.5, seed=3)
        empty = TrialRecord(
            trial_index=0,
            trial_seed=0,
            q_metrics=None,
            flags=BadEventFlags(E=True, E_k_indices=(), D=True),
            mask=KeepMask(np.zeros(51, dtype=np.uint8)),
        )
        with pytest.raises(ValueError):
            theorem_conclusion_check(metrics(p), empty, cfg)
