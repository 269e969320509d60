"""Tests of the benchmark itself: inputs, tracing transparency, the gate.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gate
from run import BENCH, END_TO_END, ROOT, check_round, import_program, run_round
from tracing import LAYER_METRICS, Tracer
from workloads import REFERENCE_SEED, WORKLOADS, round_seed

nl = import_program()
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def _round(tmp_path: Path, name: str, seed: int = REFERENCE_SEED, tracer=None) -> Path:
    workload = WORKLOADS[name]
    config = workload.write_inputs(tmp_path / "inputs")
    out = tmp_path / f"{name}-{seed}-{'traced' if tracer else 'plain'}"
    if tracer is not None:
        tracer.install(nl)
    try:
        _, code = run_round(nl, workload, config, seed, out, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert code == 0
    return out


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(tmp_path, name):
    workload = WORKLOADS[name]
    first, second = workload.write_inputs(tmp_path / "a"), workload.write_inputs(tmp_path / "b")
    if workload.kind == "campaign":
        assert first.read_bytes() == second.read_bytes()
    else:
        assert first is None and second is None
    for r in range(4):
        assert workload.calls(Path("c"), round_seed(5, r), Path("o")) == \
            workload.calls(Path("c"), round_seed(5, r), Path("o"))
    assert len({round_seed(s, r) for s in range(3) for r in range(50)}) == 150


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_artifacts_are_identical(tmp_path, name):
    original_square = nl.poly.square
    tracer = Tracer()
    traced = _round(tmp_path, name, tracer=tracer)
    plain = _round(tmp_path, name)
    assert gate.digests(traced) == gate.digests(plain)
    assert nl.poly.square is original_square
    assert "cli.main" in tracer.names and len(tracer.names) > 10


def test_reference_rounds_pass_the_gate(tmp_path):
    for name, workload in WORKLOADS.items():
        out = _round(tmp_path, name)
        assert check_round(nl, workload, out, REFERENCE_SEED, REFERENCE[name],
                           is_reference=True, check_squares=True) == []


def _edit_trial(path: Path, trial: int, **changes) -> None:
    rows = json.loads(path.read_text(encoding="utf-8"))
    rows[trial].update({k: str(v) for k, v in changes.items()})
    path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


def test_gate_rejects_height_off_by_one(tmp_path):
    workload = WORKLOADS["thin-small"]
    out = _round(tmp_path, "thin-small")
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    table = copy / "trials_degree_1024.json"
    row = json.loads(table.read_text(encoding="utf-8"))[0]
    _edit_trial(table, 0, height_q2=int(row["height_q2"]) + 1)
    assert any("ratio" in f for f in gate.check_campaign(copy, workload.ladder, workload.trials,
                                                         REFERENCE_SEED))
    assert gate.check_digests(copy, REFERENCE["thin-small"]["digests"])


def test_gate_rejects_consistent_but_wrong_height(tmp_path):
    # Height, ratio and product edited together pass the row invariants;
    # the independent square still catches them.
    workload = WORKLOADS["thin-small"]
    copy = _round(tmp_path, "thin-small")
    table = copy / "trials_degree_16384.json"
    row = json.loads(table.read_text(encoding="utf-8"))[0]
    l1, deg, height = int(row["l1_q"]), int(row["deg_q"]), int(row["height_q2"]) + 1
    ratio = Fraction(height, l1 * l1)
    _edit_trial(table, 0, height_q2=height, ratio_num=ratio.numerator, ratio_den=ratio.denominator,
                product_num=(ratio * deg).numerator, product_den=(ratio * deg).denominator)
    summary = copy / "summary.json"
    rows = json.loads(table.read_text(encoding="utf-8"))
    products = [Fraction(int(r["product_num"]), int(r["product_den"])) for r in rows if r["l1_q"] != "0"]
    entries = json.loads(summary.read_text(encoding="utf-8"))
    entries[1]["mean_product_num"] = round(sum(products) / len(products) * 10 ** 12)
    summary.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    assert gate.check_campaign(copy, workload.ladder, workload.trials, REFERENCE_SEED) == []
    failures = gate.check_trial_squares(copy, workload.ladder, REFERENCE_SEED, (0,), nl)
    assert any("height_q2" in f for f in failures)


def test_gate_rejects_wrong_search_product(tmp_path):
    workload = WORKLOADS["search"]
    out = _round(tmp_path, "search")
    (_, exhaustive), (_, local) = workload.calls(None, REFERENCE_SEED, out)
    degrees = range(1, workload.max_degree + 1)
    assert gate.check_search(exhaustive, degrees, Fraction(0))[0] == []
    table = exhaustive / "degree_table.csv"
    lines = table.read_text(encoding="utf-8").splitlines()
    fields = lines[5].split(",")
    fields[-2] = str(int(fields[-2]) + 1)  # product_num
    lines[5] = ",".join(fields)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("reported product" in f for f in gate.check_search(exhaustive, degrees, Fraction(0))[0])

    result_path = local / "search_result.json"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["best"]["product_num"] -= 1
    result_path.write_text(json.dumps(result), encoding="utf-8")
    n = workload.degree
    assert any("best product" in f for f in gate.check_search(local, range(n, n + 1), Fraction(1, 2))[0])


def test_certificate_rejects_a_wrong_square():
    rng = np.random.default_rng(0)
    q = (rng.random(3000) < 0.4).astype(np.int64)
    q[-1] = 1
    c = np.convolve(q, q)
    assert gate.certify_square(q, c) is None
    wrong = c.copy()
    wrong[100] += 1
    wrong[2000] -= 1  # the sum still equals l1**2
    assert gate.certify_square(q, wrong) is not None
    big = np.ones(gate.DIRECT_LIMIT + 1, dtype=np.int64)
    square, method = gate.independent_square(big)
    assert square is not None and "FFT" in method and int(square.max()) == len(big)


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thin-small", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = _result_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = END_TO_END if trace == 0 else {n: u for n, u, _ in LAYER_METRICS}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thin-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
