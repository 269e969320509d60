"""Record reference.json: what the reference round of each workload must yield.

Run from the root of a checkout at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py

Campaign workloads pin the SHA-256 of every artifact.  The search workload
pins the exact minimum product per degree of its exhaustive pass, and the
best product of its local pass, which later runs at the reference seed may
match or improve.
"""

from __future__ import annotations

import json
import shutil
from fractions import Fraction

import gate
from run import BENCH, WORK, import_program, run_round
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    nl = import_program()
    work = WORK / "record"
    reference = {}
    try:
        for workload in WORKLOADS.values():
            config = workload.write_inputs(work / "inputs")
            out = work / workload.name
            _, code = run_round(nl, workload, config, REFERENCE_SEED, out)
            if code != 0:
                raise SystemExit(f"{workload.name}: exit code {code}")
            if workload.kind == "campaign":
                failures = gate.check_campaign(out, workload.ladder, workload.trials, REFERENCE_SEED)
                reference[workload.name] = {"digests": gate.digests(out)}
            else:
                (_, exhaustive), (_, local) = workload.calls(config, REFERENCE_SEED, out)
                failures, table = gate.check_search(exhaustive, range(1, workload.max_degree + 1),
                                                    Fraction(0))
                n = workload.degree
                local_failures, best = gate.check_search(local, range(n, n + 1),
                                                         Fraction(workload.floor))
                failures += local_failures
                reference[workload.name] = {
                    "products": {str(d): str(v) for d, v in table.items()},
                    "best_product": str(best[n]),
                }
            if failures:
                raise SystemExit(f"{workload.name}: {failures[:3]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
