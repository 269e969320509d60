"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 6-8 share one
Monte Carlo campaign (all-ones family, ladder 2**10 / 2**14 / 2**18, 1000
trials per degree, fixed master seed), which dominates the runtime; the
whole module takes a few minutes.
"""

import math
import os
from fractions import Fraction

import numpy as np
import pytest

from newmanlab.concentration import tail_bound
from newmanlab.experiment import CampaignConfig, emit_results, run_campaign
from newmanlab.poly import (
    NewmanPolynomial,
    metrics,
    square,
    square_oracle,
)
from newmanlab.search import SearchSpec, exhaustive_search
from newmanlab.sparsify import (
    expectation_oracle,
    expected_square_coeff,
    split_coefficient,
)

MASTER_SEED = 20080613
LADDER = (2 ** 10, 2 ** 14, 2 ** 18)
TRIALS = 1000
RHO = Fraction(8, 9)
RHO_PRIME = Fraction(19, 20)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def every_polynomial(degree: int, leading_only: bool = True):
    """All 0/1 polynomials of exactly this degree (leading coefficient 1)."""
    free = degree  # indices 0..degree-1 are free
    for bits in range(1 << free):
        yield NewmanPolynomial([(bits >> j) & 1 for j in range(free)] + [1])


def every_canonical_polynomial(degree: int):
    """Constant and leading coefficient fixed to 1."""
    if degree == 0:
        yield NewmanPolynomial([1])
        return
    for bits in range(1 << (degree - 1)):
        yield NewmanPolynomial([1] + [(bits >> j) & 1 for j in range(degree - 1)] + [1])


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    config = CampaignConfig(
        family="all_ones",
        degree_ladder=LADDER,
        trials_per_degree=TRIALS,
        rho=RHO,
        rho_prime=RHO_PRIME,
        seed=MASTER_SEED,
        output_dir=str(tmp_path_factory.mktemp("campaign")),
        format="csv",
    )
    # Records do not depend on the worker count (tests/test_experiment.py).
    return run_campaign(config, workers=2)


def test_criterion_01_trivial_bound_exhaustive():
    violations = 0
    checked = 0
    for degree in range(0, 13):
        for p in every_canonical_polynomial(degree):
            r = metrics(p)
            checked += 1
            if r.ratio < Fraction(1, 2 * degree + 1):
                violations += 1
    report(1, violations == 0,
           f"ratio >= 1/(2N+1) for all {checked} canonical polynomials of degree <= 12; "
           f"{violations} violations")


def test_criterion_02_convolution_oracle_equivalence():
    mismatches = 0
    checked = 0
    for degree in range(0, 13):
        for p in every_polynomial(degree):
            checked += 1
            if not np.array_equal(square(p), square_oracle(p)):
                mismatches += 1
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(1000):
        bits = (rng.random(1001) < 0.5).astype(np.uint8)
        bits[-1] = 1
        p = NewmanPolynomial(bits)
        checked += 1
        if not np.array_equal(square(p), square_oracle(p)):
            mismatches += 1
    report(2, mismatches == 0,
           f"square == square_oracle on {checked} polynomials "
           f"(exhaustive deg <= 12 plus 1000 random deg-1000); {mismatches} mismatches")


def test_criterion_03_expectation_identities():
    alphas = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    mismatches = 0
    comparisons = 0
    for degree in range(0, 11):
        for p in every_polynomial(degree):
            sq = square(p)
            for alpha in alphas:
                enumerated, _ = expectation_oracle(p, alpha)
                for k in range(2 * degree + 1):
                    value, theta = expected_square_coeff(p, alpha, k, square_coeffs=sq)
                    comparisons += 1
                    if value != enumerated[k]:
                        mismatches += 1
                    if k % 2 == 0 and not 0 <= theta < 1:
                        mismatches += 1
    report(3, mismatches == 0,
           f"parity-split formula == full mask enumeration over {comparisons} "
           f"(p, alpha, k) cases; {mismatches} mismatches")


def test_criterion_04_split_reconstruction_and_symmetry():
    rng = np.random.default_rng(MASTER_SEED + 4)
    failures = 0
    checked = 0
    for _ in range(500):
        degree = int(rng.integers(1, 51))
        bits = (rng.random(degree + 1) < 0.5).astype(np.uint8)
        bits[-1] = 1
        p = NewmanPolynomial(bits)
        mask = (rng.random(degree + 1) < 0.5).astype(np.uint8)
        kept = p.support[mask[p.support] == 1]
        if kept.size:
            q = NewmanPolynomial((p.coefficients & mask)[: int(kept[-1]) + 1])
            q_sq = square(q)
        else:
            q_sq = None
        for k in map(int, rng.integers(0, 2 * degree + 1, size=20)):
            checked += 1
            s = split_coefficient(p, mask, k)
            expected = q_sq[k] if q_sq is not None and k <= len(q_sq) - 1 else 0
            if s.total != expected:
                failures += 1
            if k % 2 == 1 and s.first != s.second:
                failures += 1
    report(4, failures == 0,
           f"split parts reconstruct the squared coefficient and halves agree for "
           f"odd k on {checked} random (p, mask, k); {failures} failures")


def test_criterion_05_chernoffs_hold_empirically():
    trials = 100_000
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst = ""
    ok = True
    for m, prob in ((100, 0.5), (1000, 0.1), (10_000, 0.01)):
        mean = m * prob
        draws = rng.binomial(m, prob, size=trials)
        for eps in (0.5, 1.0):
            bound = min(1.0, tail_bound(eps, mean))
            freq = float(np.mean(np.abs(draws - mean) > eps * mean))
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            if freq > bound + 3 * se:
                ok = False
                worst = f" VIOLATION at (m={m}, p={prob}, eps={eps})"
    report(5, ok, f"empirical tail frequency <= bound + 3*MC_se on all 6 grid points "
                  f"(10^5 trials each){worst}")


def _se(freq: float, trials: int) -> float:
    return math.sqrt(max(freq * (1 - freq), 0.0) / trials)


def test_criterion_06_bad_event_decay(campaign):
    rows = campaign
    eps = campaign[0].epsilon
    detail = "; ".join(
        f"N=2^{int(math.log2(r.degree))}: freq_E={r.freq_E:.3f} "
        f"freq_Ek={r.freq_Ek:.3f} clean={r.freq_clean:.3f}"
        for r in rows
    )
    ok = abs(eps - 0.02208) < 1e-4
    for a, b in zip(rows, rows[1:]):
        slack_E = 3 * math.hypot(_se(a.freq_E, a.trials), _se(b.freq_E, b.trials))
        slack_Ek = 3 * math.hypot(_se(a.freq_Ek, a.trials), _se(b.freq_Ek, b.trials))
        if b.freq_E > a.freq_E + slack_E:
            ok = False
        if b.freq_Ek > a.freq_Ek + slack_Ek:
            ok = False
    clean_top = rows[-1].freq_clean
    if not clean_top > 0.99:
        ok = False
    report(6, ok, f"eps={eps:.5f}; {detail}; requires non-increasing freq_E/freq_Ek "
                  f"and clean@2^18 > 0.99 (got {clean_top:.3f})")


def test_criterion_07_theorem_implication_exact(campaign):
    eps = Fraction(campaign[0].epsilon)
    amplification = (1 + eps) / (1 - eps) ** 2
    exceptions = 0
    clean_total = 0
    for row in campaign:
        p_product = metrics(NewmanPolynomial.all_ones(row.degree)).product
        budget = amplification * p_product
        for record in row.records:
            if not record.flags.clean or record.is_empty:
                continue
            clean_total += 1
            if record.q_metrics.product > budget:
                exceptions += 1
    report(7, exceptions == 0,
           f"ratio(q)*deg(q) <= (1+eps)/(1-eps)^2 * ratio(p)*deg(p) held exactly in "
           f"all {clean_total} clean trials; {exceptions} exceptions")


def test_criterion_08_sparsity_trend_over_clean_trials(campaign):
    means = []
    counts = []
    for row in campaign:
        clean = [r.q_metrics for r in row.records if r.flags.clean and not r.is_empty]
        counts.append(len(clean))
        if clean:
            means.append(float(np.mean([q.l1 / q.degree for q in clean])))
        else:
            means.append(float("nan"))
    decreasing = all(
        not math.isnan(a) and not math.isnan(b) and a > b
        for a, b in zip(means, means[1:])
    )
    threshold = 2.0 * LADDER[-1] ** (-1 / 10)
    endpoint_ok = counts[-1] > 0 and means[-1] < threshold
    shown = ", ".join(
        f"2^{int(math.log2(n))}: {m:.4f} ({c} clean)"
        for n, m, c in zip(LADDER, means, counts)
    )
    report(8, decreasing and endpoint_ok,
           f"mean l1(q)/deg(q) over clean trials must strictly decrease and end "
           f"below {threshold:.4f}; got {shown}")


def test_module_invariant_sparsity_trend_all_trials(campaign):
    # Unconditional companion to criterion 8: the mean of l1(q)/deg(q) over
    # every surviving trial (no clean-trial conditioning) falls along the
    # ladder, witnessing that thinned mass grows slower than the degree.
    means = []
    for row in campaign:
        surviving = [r.q_metrics for r in row.records if not r.is_empty]
        means.append(float(np.mean([q.l1 / q.degree for q in surviving])))
    ok = means[0] > means[1] > means[2]
    line = (f"[INVARIANT] sparsity trend over all surviving trials: "
            f"{'PASS' if ok else 'FAIL'} - means {[f'{m:.4f}' for m in means]}")
    print(line, flush=True)
    assert ok, line


def test_criterion_09_search_regression():
    result = exhaustive_search(SearchSpec(1, 14))
    by_degree = {row.degree: row.report.product for row in result.degree_table}
    mismatches = []
    for degree in range(1, 15):
        best = None
        for interior in range(1 << (degree - 1)):
            coeffs = [1] + [(interior >> j) & 1 for j in range(degree - 1)] + [1]
            p = NewmanPolynomial(coeffs)
            product = metrics(p, square_coeffs=square_oracle(p)).product
            if best is None or product < best:
                best = product
        if by_degree[degree] != best:
            mismatches.append(degree)
    ok = not mismatches and by_degree[2] == Fraction(2, 3)
    report(9, ok, f"exhaustive minima match the independent naive enumerator for "
                  f"degrees 1..14 and equal 2/3 at degree 2; mismatches: {mismatches}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    def demo(out_dir: str, workers: int) -> dict:
        config = CampaignConfig(
            family="all_ones",
            degree_ladder=(64, 128),
            trials_per_degree=50,
            rho=RHO,
            rho_prime=RHO_PRIME,
            seed=7,
            output_dir=out_dir,
            format="csv",
        )
        return emit_results(config, run_campaign(config, workers=workers))

    names = ("summary.csv", "manifest.json", "trials_degree_64.csv",
             "trials_degree_128.csv")
    runs = {
        "first": demo(str(tmp_path / "first"), workers=1),
        "second": demo(str(tmp_path / "second"), workers=1),
        "parallel": demo(str(tmp_path / "parallel"), workers=3),
    }
    dirs = {key: os.path.dirname(paths["manifest"]) for key, paths in runs.items()}

    def blob(run: str) -> dict:
        out = {}
        for name in names:
            with open(os.path.join(dirs[run], name), "rb") as handle:
                out[name] = handle.read()
        return out

    first = blob("first")
    identical_rerun = first == blob("second")
    identical_parallel = first == blob("parallel")
    report(10, identical_rerun and identical_parallel,
           f"demo campaign byte-identical across reruns ({identical_rerun}) and "
           f"across 1 vs 3 workers ({identical_parallel})")
