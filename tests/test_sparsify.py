"""Thinning trials: expectations, splits, bad events, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newmanlab.poly
import newmanlab.sparsify
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
    expectation_oracle,
    expected_square_coeff,
    sample,
    split_coefficient,
    theorem_conclusion_check,
    verify_hypothesis,
)

RHO = Fraction(8, 9)
RHO_PRIME = Fraction(19, 20)


def masked_polynomial(p, bits):
    kept = [int(j) for j in p.support if bits[j]]
    return NewmanPolynomial.from_support(kept) if kept else None


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
    """Keep bits given by a user: `split_coefficient` checks them at entry."""

    @pytest.mark.parametrize("bad", [
        np.array([256, 1]),  # wraps to [0, 1] under a uint8 cast
        [0.5, 1.0],          # truncates to [0, 1] under an integer cast
        [2, 1],
        [-1, 1],
        [],
        [[0, 1]],
    ])
    def test_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="mask bits must"):
            split_coefficient(parse_polynomial("11", "bitstring"), bad, 1)

    def test_accepts_ints_and_bools(self):
        p = parse_polynomial("111", "bitstring")
        for k in range(5):
            assert (split_coefficient(p, [1, 0, 1], k)
                    == split_coefficient(p, [True, False, True], k)
                    == split_coefficient(p, np.array([1, 0, 1], dtype=np.uint8), k))
        assert split_coefficient(p, [1, 0, 1], 2).total == 2


class TestExpectations:
    def test_odd_k_two_bits(self):
        p = parse_polynomial("11", "bitstring")
        value, theta = expected_square_coeff(p, Fraction(1, 2), 1)
        assert value == Fraction(1, 2)
        assert theta == 0

    def test_even_k_zero_is_alpha(self):
        p = parse_polynomial("11", "bitstring")
        for alpha in (Fraction(1, 2), Fraction(2, 7), Fraction(9, 10)):
            value, theta = expected_square_coeff(p, alpha, 0)
            assert value == alpha  # (q^2)_0 is the kept constant bit itself
            assert theta == alpha * (1 - alpha)

    def test_even_k_three_terms(self):
        # E[2 e0 e2 + e1] at alpha = 1/2: confirmed by the 8-mask enumeration.
        p = parse_polynomial("111", "bitstring")
        value, theta = expected_square_coeff(p, Fraction(1, 2), 2)
        assert value == 1
        assert theta == Fraction(1, 4)
        assert expectation_oracle(p, Fraction(1, 2))[0][2] == 1

    def test_oracle_two_term_example(self):
        p = parse_polynomial("0,3")
        assert expectation_oracle(p, Fraction(1, 3))[0][3] == Fraction(2, 9)
        value, _ = expected_square_coeff(p, Fraction(1, 3), 3)
        assert value == Fraction(2, 9)

    def test_k_out_of_range(self):
        p = parse_polynomial("111", "bitstring")
        with pytest.raises(ValueError):
            expected_square_coeff(p, Fraction(1, 2), 5)

    @pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
    def test_formula_matches_enumeration_degree_le_6(self, alpha):
        for degree in range(7):
            for bits in range(1 << degree):
                coeffs = [(bits >> j) & 1 for j in range(degree)] + [1]
                p = NewmanPolynomial(coeffs)
                sq = square(p)
                oracle, _ = expectation_oracle(p, alpha)
                for k in range(2 * degree + 1):
                    value, _ = expected_square_coeff(p, alpha, k, square_coeffs=sq)
                    assert value == oracle[k], (coeffs, k, alpha)

    @given(
        st.sets(st.integers(min_value=0, max_value=8), min_size=1),
        st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12),
                     max_denominator=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_formula_matches_enumeration_random(self, sup, alpha):
        p = NewmanPolynomial.from_support(sup)
        oracle, _ = expectation_oracle(p, alpha)
        for k in range(2 * p.degree + 1):
            value, theta = expected_square_coeff(p, alpha, k)
            assert value == oracle[k]
            if k % 2 == 0:
                assert 0 <= theta < 1

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
        sq = square(p)
        assert oracle == [expected_square_coeff(p, alpha, k, square_coeffs=sq)[0]
                          for k in range(31)]
        assert mass == alpha * p.l1

    def test_oracle_squares_by_itself(self, monkeypatch):
        p = parse_polynomial("1101", "bitstring")
        alpha = Fraction(1, 3)
        formula = [expected_square_coeff(p, alpha, k)[0] for k in range(7)]

        def no_square(*args, **kwargs):
            raise AssertionError("the oracle used a squaring routine")

        monkeypatch.setattr(newmanlab.sparsify, "square", no_square)
        monkeypatch.setattr(newmanlab.poly, "square", no_square)
        monkeypatch.setattr(newmanlab.sparsify, "expected_square_coeff", no_square)
        assert expectation_oracle(p, alpha) == (formula, alpha * 3)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="capped at degree 20"):
            expectation_oracle(NewmanPolynomial.all_ones(21), Fraction(1, 2))


class TestSplit:
    def test_hand_convolution_1111(self):
        p = parse_polynomial("1111", "bitstring")
        s = split_coefficient(p, np.ones(4, dtype=np.uint8), 3)
        assert (s.first, s.second, s.diagonal) == (2, 2, 0)
        assert s.total == square(p)[3] == 4

    def test_even_diagonal_vanishes_without_center_term(self):
        p = parse_polynomial("0,3")  # p_2 = 0
        s = split_coefficient(p, np.ones(4, dtype=np.uint8), 4)
        assert s.diagonal == 0

    def test_errors(self):
        p = parse_polynomial("111", "bitstring")
        with pytest.raises(ValueError):
            split_coefficient(p, np.ones(3, dtype=np.uint8), 5)
        with pytest.raises(ValueError):
            split_coefficient(p, np.ones(2, dtype=np.uint8), 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_half_symmetry(self, data):
        sup = data.draw(st.sets(st.integers(min_value=0, max_value=50), min_size=1))
        p = NewmanPolynomial.from_support(sup)
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=p.degree + 1, max_size=p.degree + 1)
        )
        q = masked_polynomial(p, bits)
        q_sq = square(q) if q is not None else None
        for k in range(2 * p.degree + 1):
            s = split_coefficient(p, bits, k)
            if q_sq is not None and k <= 2 * q.degree:
                assert s.total == q_sq[k]
            else:
                assert s.total == 0
            # j <-> k-j maps each half onto the other, at odd and even k.
            assert s.first == s.second


class TestBadEvents:
    def test_all_zeros_mask(self):
        # alpha = 100**(-99/100) ~ 0.0105: about a third of the trials keep nothing.
        p = NewmanPolynomial.all_ones(100)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, alpha_exponent=Fraction(99, 100), seed=1)
        trial = next(t for t in (sample(p, cfg, i) for i in range(50)) if t.is_empty)
        assert not trial.mask.bits.any()
        assert trial.flags.E and trial.flags.D
        assert not trial.flags.E_k_any


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
        # sample() draws its bits 0/1 itself, so it skips the public check.
        p = NewmanPolynomial.all_ones(300)
        cfg = SparsifyConfig(rho=RHO, rho_prime=RHO_PRIME, seed=11)
        monkeypatch.setattr(newmanlab.sparsify, "as_zero_one", None)
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
        from newmanlab.sparsify import SparsifyTrial

        p = NewmanPolynomial.all_ones(50)
        cfg = SparsifyConfig(epsilon=0.5, seed=3)
        empty = SparsifyTrial(
            trial_index=0,
            trial_seed=0,
            q_metrics=None,
            flags=BadEventFlags(E=True, E_k_indices=(), D=True),
            mask=KeepMask(np.zeros(51, dtype=np.uint8)),
        )
        with pytest.raises(ValueError):
            theorem_conclusion_check(metrics(p), empty, cfg)
