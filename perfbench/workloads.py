"""The benchmark's workloads: inputs made from a seed, one round per CLI call.

A round is one `newman` invocation through `newmanlab.cli.main`, the entry
point a user reaches.  The program receives only the generated inputs: a
campaign config file plus a master seed, or the arguments of a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Master seed of the reference round.  Every run executes one untimed round
# with it before timing starts (as warm-up), and its artifacts are checked
# against digests recorded in reference.json.
REFERENCE_SEED = 20080613

_SEED_MODULUS = 2 ** 63


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `kind` is `campaign` (one `newman experiment` call per round) or
    `search` (per round, one exhaustive `newman search` over degrees
    1..max_degree, then one local search at `degree`).  `op` names the unit
    that `ops_per_s` counts.
    """

    name: str
    kind: str
    op: str
    why: str
    ladder: tuple[int, ...] = ()
    trials: int = 0
    format: str = ""
    max_degree: int = 0
    degree: int = 0
    floor: str = "0"
    budget: int = 0

    def ops_per_round(self) -> int:
        """Operations one round performs, fixed by the inputs alone."""
        if self.kind == "campaign":
            return self.trials * len(self.ladder)
        # Every canonical candidate of degrees 1..max_degree (2**(d-1)
        # interior patterns at degree d, examined or skipped by symmetry),
        # plus the annealing steps: 4 restarts of budget//4 steps.
        return 2 ** self.max_degree - 1 + (self.budget // 4) * 4

    def config_text(self) -> str:
        """The campaign config file; the master seed is passed per round."""
        return "\n".join([
            "family = all_ones",
            "degree_ladder = " + ", ".join(str(n) for n in self.ladder),
            f"trials_per_degree = {self.trials}",
            "alpha_exponent = 1/10",
            "rho = 8/9",
            "rho_prime = 19/20",
            "c0 = 1",
            "seed = 0",
            f"format = {self.format}",
        ]) + "\n"

    def write_inputs(self, directory: Path) -> Path | None:
        """Write the campaign config file and return its path; a search needs none."""
        if self.kind != "campaign":
            return None
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.cfg"
        path.write_text(self.config_text(), encoding="utf-8")
        return path

    def calls(self, config: Path | None, round_seed: int, out: Path) -> list[tuple[list[str], Path]]:
        """(`newman` arguments, output directory) of each call in one round."""
        if self.kind == "campaign":
            return [(["experiment", "--config", str(config), "--seed", str(round_seed),
                      "--out", str(out), "--workers", "1"], out)]
        exhaustive, local = out / "exhaustive", out / "local"
        return [
            (["search", "--min-degree", "1", "--max-degree", str(self.max_degree),
              "--seed", str(round_seed), "--out", str(exhaustive)], exhaustive),
            (["search", "--min-degree", str(self.degree), "--max-degree", str(self.degree),
              "--mode", "local_search", "--floor", self.floor, "--budget", str(self.budget),
              "--seed", str(round_seed), "--out", str(local)], local),
        ]


def round_seed(seed: int, round_index: int) -> int:
    """Master seed of timed round `round_index` of a run made with `seed`."""
    return (seed * 1_000_003 + round_index) % _SEED_MODULUS


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="thin-small", kind="campaign", op="thinning trial",
            why="all-ones ladder 2^10, 2^14, JSON: small squares (pairs path, 2^15 FFT), "
                "so fixed per-trial costs and the JSON writer weigh most",
            ladder=(1024, 16384), trials=25, format="json",
        ),
        Workload(
            name="thin-large", kind="campaign", op="thinning trial",
            why="all-ones rung 2^18, CSV: one large FFT square per trial dominates; "
                "the rung of acceptance criterion 6",
            ladder=(262144,), trials=4, format="csv",
        ),
        Workload(
            name="search", kind="search", op="candidate (exhaustive or annealing step)",
            why="exhaustive search, degrees 1..11, then local search at N=1024, floor 1/2: "
                "many tiny squares, then one mid-size dense square per step; no thinning code",
            max_degree=11, degree=1024, floor="1/2", budget=300,
        ),
    )
}
