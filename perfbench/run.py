"""newmanlab benchmark: thinning campaigns and extremal search through the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload thin-small --seed 1 --seconds 30 --trace 0

Each round is one in-process `newman` call (two for `search`) through
`newmanlab.cli.main`, with one worker.  A run does one untimed reference round (warm-up, checked
against pinned digests), then timed rounds with seeds derived from --seed
until --seconds have passed, then checks every round's artifacts.  The last
stdout line is a JSON object with `correct`, `attempted` (rounds), `failed`
(rounds with a failed check) and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run alternates
untraced and traced rounds, so that the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
TRACES = BENCH / "_traces"

sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Workload, round_seed  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
SETUP_REPEATS = 5

# Runs in a fresh interpreter: import the program and write the workload's
# inputs, then print the elapsed seconds.
_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import newmanlab.cli
from pathlib import Path
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]].write_inputs(Path(sys.argv[4]))
print(time.perf_counter() - start)
"""


def import_program():
    """Import newmanlab from this checkout's src/, or exit non-zero."""
    package = ROOT / "src" / "newmanlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import newmanlab
    import newmanlab.cli

    if Path(newmanlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported newmanlab from {newmanlab.__file__}, not {package}")
    return newmanlab


def measure_setup(workload: Workload, work: Path) -> float:
    """Median over fresh interpreters of import time plus input generation."""
    samples = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(ROOT / "src"), str(BENCH),
             workload.name, str(work / f"setup{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_round(nl, workload: Workload, config: Path | None, seed: int, out: Path, tracer=None) -> tuple[float, int]:
    """One round of `newman` calls; returns (wall seconds, first nonzero exit code or 0)."""
    calls = [argv for argv, _ in workload.calls(config, seed, out)]
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in calls:
            if tracer is None:
                codes.append(nl.cli.main(argv))
            else:
                codes.append(tracer.call("cli.main", nl.cli.main, (argv,), {}))
    elapsed = time.perf_counter() - start
    return elapsed, next((c for c in codes if c != 0), 0)


def check_round(nl, workload: Workload, out: Path, seed: int, reference: dict,
                is_reference: bool, check_squares: bool) -> list[str]:
    """Every failure the gate finds in one round's artifacts."""
    if workload.kind == "campaign":
        failures = gate.check_campaign(out, workload.ladder, workload.trials, seed)
        if is_reference:
            failures += gate.check_digests(out, reference["digests"])
        if check_squares and not failures:
            t = workload.trials
            indices = tuple(sorted({0, t // 2, t - 1}))
            failures += gate.check_trial_squares(out, workload.ladder, seed, indices, nl)
        return failures
    (_, exhaustive), (_, local) = workload.calls(None, seed, out)
    failures, products = gate.check_search(exhaustive, range(1, workload.max_degree + 1), Fraction(0))
    expected = {int(d): Fraction(v) for d, v in reference["products"].items()}
    if products and products != expected:
        failures.append(f"{out.name}: exhaustive degree table differs from the reference table")
    n = workload.degree
    local_failures, products = gate.check_search(local, range(n, n + 1), Fraction(workload.floor))
    failures += local_failures
    best = products.get(n)
    # The dense start 1 + x + ... + x**n is always evaluated.
    if best is not None and best > Fraction(n, n + 1):
        failures.append(f"{out.name}: best product {best} is worse than the dense start")
    if is_reference and best is not None and best > Fraction(reference["best_product"]):
        failures.append(f"{out.name}: best product {best} is worse than the reference "
                        f"{reference['best_product']}")
    return failures


def environment(workload: Workload) -> dict:
    """Machine, versions and the workload's computed working set."""

    def cache_bytes(index: int) -> int | None:
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        try:
            text = path.read_text().strip()
        except OSError:
            return None
        scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
        return int(text.rstrip("KM")) * scale

    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_bytes_per_core": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "working_set_computed": working_set(workload),
    }


def working_set(workload: Workload) -> list[dict]:
    """Computed (not measured) bytes that one square touches on each path.

    `pairs_bytes` is the int64 support-pair sum array (8 * l1**2);
    `fft_pow2_bytes` is a float64 input, complex128 spectrum and float64
    output at the next power of two >= 2N+1.
    """
    if workload.kind == "campaign":
        sizes = [(n, (n + 1) * float(n) ** -0.1) for n in workload.ladder]
    else:
        sizes = [(n, n + 1.0) for n in (workload.max_degree, workload.degree)]
    rows = []
    for n, l1 in sizes:
        length = 1 << (2 * n).bit_length()
        rows.append({
            "N": n,
            "l1": round(l1),
            "pairs_bytes": 8 * round(l1) ** 2,
            "fft_pow2_bytes": 8 * length + 16 * (length // 2 + 1) + 8 * length,
        })
    return rows


def round_times(times: list[float]) -> str:
    """Count, median and the highest whole percentile with ten rounds beyond it."""
    text = f"n={len(times)} median={statistics.median(times):.6g} s"
    top = int(100 * (1 - 10 / len(times)))
    if top >= 50:
        text += f" p{top}={np.percentile(times, top):.6g} s"
    return text


def run(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    nl = import_program()
    work = WORK / f"{workload.name}-{os.getpid()}"
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[workload.name]
    try:
        setup_s = None if traced else measure_setup(workload, work)
        config = workload.write_inputs(work / "inputs")

        # rounds[0] is the untimed warm-up at the reference seed, whose
        # artifacts are pinned; the timed rounds follow.  Entries are
        # (master seed, output directory, exit code).
        reference_out = work / "reference"
        _, code = run_round(nl, workload, config, REFERENCE_SEED, reference_out)
        rounds = [(REFERENCE_SEED, reference_out, code)]

        tracer = Tracer() if traced else None
        durations: dict[bool, list[float]] = {False: [], True: []}
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline or not durations[traced]:
            s = round_seed(seed, index)
            out = work / f"round{index}"
            trace_this = traced and index % 2 == 1
            if trace_this:
                tracer.run_id = index
                tracer.install(nl)
                usage = resource.getrusage(resource.RUSAGE_SELF)
            try:
                elapsed, code = run_round(nl, workload, config, s, out, tracer if trace_this else None)
            finally:
                if trace_this:
                    tracer.count_process(usage, resource.getrusage(resource.RUSAGE_SELF))
                    tracer.uninstall()
            durations[trace_this].append(elapsed)
            rounds.append((s, out, code))
            index += 1
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed = 0
        for position, (s, out, code) in enumerate(rounds):
            failures = [f"{out.name}: exit code {code}"] if code != 0 else check_round(
                nl, workload, out, s, reference, is_reference=position == 0,
                check_squares=position <= 1)
            for line in failures[:5]:
                print(f"perfbench: FAILED {line}", file=sys.stderr)
            failed += bool(failures)

        if traced:
            metrics = tracer.layer_metrics(durations[True], durations[False])
            identity = metrics["trace.self_sum_s"] + metrics["trace.unspanned_s"] - metrics["trace.run_s"]
            if abs(identity) > 1e-6:
                print(f"perfbench: FAILED self times do not add up to run_s ({identity})", file=sys.stderr)
                failed += 1
            tracer.write(TRACES / f"{workload.name}.csv")
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            run_s = statistics.median(durations[False])
            metrics = {
                "setup_s": setup_s,
                "run_s": run_s,
                "ops_per_s": workload.ops_per_round() / run_s,
                "peak_rss_mib": peak_rss_mib,
            }
            units = END_TO_END
        print("perfbench-env " + json.dumps(environment(workload), sort_keys=True))
        print(f"perfbench: {workload.name} seed={seed} op={workload.op!r} "
              f"ops_per_round={workload.ops_per_round()}")
        for traced_rounds, times in durations.items():
            if times:
                print(f"  {'traced' if traced_rounds else 'untraced'} rounds: {round_times(times)}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        return {
            "correct": failed == 0,
            "attempted": len(rounds),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
