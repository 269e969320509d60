"""Correctness gate: checks the artifacts a round wrote, outside any timing.

Every function returns a list of failure messages; an empty list passes.
The checks recompute what they can without the program's own squaring:
exact row invariants, the flags E and D, q**2 for a few trials (direct int64
convolution up to 2**14 coefficients, otherwise an independent FFT certified
by its sum and by evaluation modulo primes near 2**31), the search products,
and SHA-256 digests of the reference round.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# Direct O(N**2) convolution is affordable up to this many coefficients.
DIRECT_LIMIT = 2 ** 14 + 1
# Primes just below 2**31; products of two residues fit in int64.
PRIMES = (2147483647, 2147483629, 2147483587)
_POINTS = (3, 1_000_003, 987_654_321)


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file a round wrote, by path relative to out_dir."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def check_digests(out_dir: Path, expected: dict[str, str]) -> list[str]:
    got = digests(out_dir)
    if got == expected:
        return []
    bad = sorted(set(got) ^ set(expected) | {n for n in got if got.get(n) != expected.get(n)})
    return [f"{out_dir.name}: artifact digests differ from the reference: {bad}"]


# ---------------------------------------------------------------------------
# Campaign artifacts.


def _load_table(path: Path) -> list[dict[str, str]]:
    """Rows of a trial or summary table, every value as its text."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))
    rows = json.loads(path.read_text(encoding="utf-8"))
    return [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]


def _opt_int(text: str) -> int | None:
    return None if text == "" else int(text)


def load_campaign(out_dir: Path) -> tuple[dict, dict[int, dict[str, str]], dict[int, list[dict[str, str]]]]:
    """(manifest, summary row by degree, trial rows by degree)."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    summary = {int(row["degree"]): row for row in _load_table(out_dir / manifest["summary_file"])}
    trials = {
        int(degree): _load_table(out_dir / name)
        for degree, name in manifest["trial_files"].items()
    }
    return manifest, summary, trials


def check_campaign(out_dir: Path, ladder: tuple[int, ...], trials_per_degree: int,
                   master_seed: int) -> list[str]:
    """Exact invariants of every row and of every summary count."""
    failures: list[str] = []
    where = out_dir.name
    try:
        manifest, summary, tables = load_campaign(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{where}: unreadable artifacts: {exc!r}"]
    if manifest.get("master_seed") != master_seed:
        failures.append(f"{where}: manifest master_seed {manifest.get('master_seed')} != {master_seed}")
    if sorted(tables) != sorted(ladder) or sorted(summary) != sorted(ladder):
        return failures + [f"{where}: degrees {sorted(tables)} do not match the ladder {list(ladder)}"]
    epsilon = Fraction(float(manifest["epsilon"]))
    for degree in ladder:
        rows = tables[degree]
        srow = summary[degree]
        alpha = Fraction(float(srow["alpha"]))
        failures += _check_rows(f"{where}/{degree}", degree, rows, trials_per_degree, alpha, epsilon)
        failures += _check_summary(f"{where}/{degree}", srow, rows, epsilon)
    return failures


def _check_rows(where: str, degree: int, rows: list[dict[str, str]], trials: int,
                alpha: Fraction, epsilon: Fraction) -> list[str]:
    failures: list[str] = []
    if [int(r["trial_index"]) for r in rows] != list(range(trials)):
        failures.append(f"{where}: trial indices are not 0..{trials - 1}")
    # For the all-ones p, l1(p) = degree + 1 and the low-mass cutoff is exact.
    l1_cutoff = (1 - epsilon) * alpha * (degree + 1)
    for row in rows:
        t = row["trial_index"]
        try:
            l1 = int(row["l1_q"])
            deg = _opt_int(row["deg_q"])
            height = _opt_int(row["height_q2"])
            flag_e, flag_d, num_ek = int(row["flag_E"]), int(row["flag_D"]), int(row["num_Ek"])
            first = _opt_int(row["first_Ek_index"])
            rn, rd = _opt_int(row["ratio_num"]), _opt_int(row["ratio_den"])
            pn, pd = _opt_int(row["product_num"]), _opt_int(row["product_den"])
        except (KeyError, ValueError) as exc:
            failures.append(f"{where}: trial {t}: malformed row: {exc!r}")
            continue
        if flag_e not in (0, 1) or flag_d not in (0, 1) or num_ek < 0:
            failures.append(f"{where}: trial {t}: bad flag values")
        if (num_ek > 0) != (first is not None):
            failures.append(f"{where}: trial {t}: num_Ek={num_ek} but first_Ek_index={first}")
        if bool(flag_e) != (Fraction(l1) < l1_cutoff):
            failures.append(f"{where}: trial {t}: flag_E={flag_e} disagrees with l1_q={l1}")
        if l1 == 0:
            if (deg, height, rn, rd, pn, pd) != (None,) * 6 or num_ek or not flag_d:
                failures.append(f"{where}: trial {t}: empty survivor with non-blank fields")
            continue
        if None in (deg, height, rn, rd, pn, pd) or rd <= 0 or pd <= 0:
            failures.append(f"{where}: trial {t}: missing fields on a nonempty survivor")
            continue
        ratio = Fraction(height, l1 * l1)
        if (rn, rd) != (ratio.numerator, ratio.denominator):
            failures.append(f"{where}: trial {t}: ratio {rn}/{rd} != height/l1**2 = {ratio}")
        product = ratio * deg
        if (pn, pd) != (product.numerator, product.denominator):
            failures.append(f"{where}: trial {t}: product {pn}/{pd} != ratio*deg = {product}")
        if not 1 <= height <= l1 <= deg + 1 or deg > degree:
            failures.append(f"{where}: trial {t}: need 1 <= height <= l1 <= deg+1, deg <= N")
        if first is not None and not 0 <= first <= 2 * deg:
            failures.append(f"{where}: trial {t}: first_Ek_index {first} out of range")
        if bool(flag_d) != (2 * deg <= degree):
            failures.append(f"{where}: trial {t}: flag_D={flag_d} disagrees with deg_q={deg}")
    return failures


def _check_summary(where: str, srow: dict[str, str], rows: list[dict[str, str]],
                   epsilon: Fraction) -> list[str]:
    n = len(rows)
    count_e = sum(int(r["flag_E"]) for r in rows)
    count_ek = sum(int(r["num_Ek"]) > 0 for r in rows)
    count_d = sum(int(r["flag_D"]) for r in rows)
    count_clean = sum(
        not (int(r["flag_E"]) or int(r["flag_D"]) or int(r["num_Ek"])) for r in rows
    )
    products = [Fraction(int(r["product_num"]), int(r["product_den"]))
                for r in rows if int(r["l1_q"]) > 0]
    expected = {
        "trials": n,
        "freq_E": count_e / n,
        "freq_Ek": count_ek / n,
        "freq_D": count_d / n,
        "freq_clean": count_clean / n,
        "epsilon": float(epsilon),
    }
    failures = []
    for key, value in expected.items():
        got = float(srow[key]) if isinstance(value, float) else int(srow[key])
        if got != value:
            failures.append(f"{where}: summary {key}={srow[key]} but the rows give {value}")
    if products:
        mean = sum(products, Fraction(0)) / len(products)
        den = int(srow["mean_product_den_proxy"])
        if int(srow["mean_product_num"]) != round(mean * den):
            failures.append(f"{where}: summary mean_product_num disagrees with the rows")
    return failures


# ---------------------------------------------------------------------------
# Independent squares.


def _smooth_length(n: int) -> int:
    """Least 5-smooth integer >= n (an FFT length pocketfft handles fast)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _powers_mod(r: int, length: int, prime: int) -> np.ndarray:
    """r**k mod prime for k = 0..length-1, as int64."""
    block = 1024
    low = np.empty(block, dtype=np.int64)
    acc = 1
    for i in range(block):
        low[i] = acc
        acc = acc * r % prime
    step = pow(r, block, prime)
    high = np.empty(-(-length // block), dtype=np.int64)
    acc = 1
    for j in range(len(high)):
        high[j] = acc
        acc = acc * step % prime
    return (high[:, None] * low[None, :] % prime).ravel()[:length]


def certify_square(q: np.ndarray, c: np.ndarray) -> str | None:
    """None if c is q**2 for the 0/1 int64 array q, else the failed test.

    Tests sum(c) == l1(q)**2 and q(r)**2 == sum_k c_k r**k modulo three
    primes near 2**31.  By Schwartz-Zippel, a wrong c passes one evaluation
    with probability at most len(c) / prime.
    """
    l1 = int(q.sum())
    if len(c) != 2 * len(q) - 1 or int(c.sum()) != l1 * l1 or int(c.min()) < 0:
        return "sum == l1**2"
    support = np.flatnonzero(q)
    for prime, r in zip(PRIMES, _POINTS):
        powers = _powers_mod(r, len(c), prime)
        q_at_r = int(powers[support].sum()) % prime
        c_at_r = int((c % prime * powers % prime).sum()) % prime
        if q_at_r * q_at_r % prime != c_at_r:
            return f"evaluation mod {prime}"
    return None


def independent_square(q: np.ndarray) -> tuple[np.ndarray | None, str]:
    """Exact q**2 of a 0/1 int64 array, computed without the program.

    Returns (coefficients, method), or (None, reason) when the FFT result
    fails its certificate.
    """
    n = len(q)
    if n <= DIRECT_LIMIT:
        return np.convolve(q, q), "direct int64 convolution"
    out_len = 2 * n - 1
    length = _smooth_length(out_len)
    spectrum = np.fft.rfft(q.astype(np.float64), n=length)
    c = np.rint(np.fft.irfft(spectrum * spectrum, n=length)[:out_len]).astype(np.int64)
    failed = certify_square(q, c)
    if failed is not None:
        return None, f"FFT square fails {failed}"
    return c, "FFT certified by sum and evaluation mod primes near 2**31"


def check_trial_squares(out_dir: Path, ladder: tuple[int, ...], master_seed: int,
                        indices: tuple[int, ...], nl) -> list[str]:
    """Rebuild q from sample()'s mask for the given trials; check q**2 and E_k.

    `nl` is the imported `newmanlab` package.
    """
    failures: list[str] = []
    manifest, summary, tables = load_campaign(out_dir)
    config = nl.SparsifyConfig(
        alpha_exponent=Fraction(manifest["config"]["alpha_exponent"]),
        epsilon=float(manifest["epsilon"]),
        c0=Fraction(manifest["config"]["c0"]),
        seed=master_seed,
    )
    for degree in ladder:
        p = nl.NewmanPolynomial.all_ones(degree)
        rows = tables[degree]
        alpha = Fraction(float(summary[degree]["alpha"]))
        # height(p**2) = degree + 1 for the all-ones p: the central coefficient.
        cutoff = math.floor((1 + Fraction(config.epsilon)) * alpha * alpha * (degree + 1))
        for t in indices:
            where = f"{out_dir.name}/{degree}/trial {t}"
            row = rows[t]
            mask = np.asarray(nl.sample(p, config, t, p_square_height=degree + 1).mask.bits)
            kept = np.flatnonzero(mask)
            if int(row["l1_q"]) != len(kept):
                failures.append(f"{where}: l1_q={row['l1_q']} but the mask keeps {len(kept)}")
                continue
            if len(kept) == 0:
                continue
            q = mask[: int(kept[-1]) + 1].astype(np.int64)
            if int(row["deg_q"]) != len(q) - 1:
                failures.append(f"{where}: deg_q={row['deg_q']} but the mask gives {len(q) - 1}")
            c, method = independent_square(q)
            if c is None:
                failures.append(f"{where}: {method}")
                continue
            if int(row["height_q2"]) != int(c.max()):
                failures.append(f"{where}: height_q2={row['height_q2']} but {method} gives {int(c.max())}")
            over = np.flatnonzero(c > cutoff)
            first = "" if len(over) == 0 else str(int(over[0]))
            if int(row["num_Ek"]) != len(over) or row["first_Ek_index"] != first:
                failures.append(f"{where}: E_k columns disagree with the independent square")
    return failures


# ---------------------------------------------------------------------------
# Search artifacts.


def _exact_report(exponents: str) -> tuple[int, int, Fraction]:
    """(degree, l1, product) of the polynomial with the given exponent list."""
    support = [int(e) for e in exponents.split(",")]
    coeffs = np.zeros(max(support) + 1, dtype=np.int64)
    coeffs[support] = 1
    height = int(np.convolve(coeffs, coeffs).max())
    l1 = len(support)
    degree = len(coeffs) - 1
    return degree, l1, Fraction(height, l1 * l1) * degree


def load_search(out_dir: Path) -> tuple[dict, list[dict[str, str]]]:
    result = json.loads((out_dir / "search_result.json").read_text(encoding="utf-8"))
    return result, _load_table(out_dir / "degree_table.csv")


def check_search(out_dir: Path, degrees: range, floor: Fraction) -> tuple[list[str], dict[int, Fraction]]:
    """Recompute every reported polynomial's product; returns (failures, product by degree)."""
    where = f"{out_dir.parent.name}/{out_dir.name}"
    try:
        result, table = load_search(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{where}: unreadable search artifacts: {exc!r}"], {}
    failures: list[str] = []
    products: dict[int, Fraction] = {}
    for row in table:
        degree, l1, product = _exact_report(row["polynomial"])
        reported = Fraction(int(row["product_num"]), int(row["product_den"]))
        if degree != int(row["degree"]) or l1 != int(row["l1"]) or product != reported:
            failures.append(f"{where}: degree {row['degree']}: reported product {reported} "
                            f"but the polynomial gives {product}")
        if Fraction(l1) < floor * degree:
            failures.append(f"{where}: degree {row['degree']}: below the density floor")
        products[int(row["degree"])] = reported
    if sorted(products) != list(degrees):
        failures.append(f"{where}: degree table covers {sorted(products)}, expected {list(degrees)}")
    json_table = {
        int(r["degree"]): Fraction(r["product_num"], r["product_den"]) for r in result["degree_table"]
    }
    if json_table != products:
        failures.append(f"{where}: search_result.json and degree_table.csv disagree")
    _, _, best = _exact_report(result["best_polynomial"])
    best_reported = Fraction(result["best"]["product_num"], result["best"]["product_den"])
    if best != best_reported or (products and best_reported != min(products.values())):
        failures.append(f"{where}: best product {best_reported} is not the recomputed table minimum")
    return failures, products
