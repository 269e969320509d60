"""Reproducible experiment campaigns over a ladder of degrees.

A campaign builds one dense polynomial per ladder degree and runs a fixed
number of seeded thinning trials against it.  Its config is a thinning
config (`SparsifyConfig`, which declares and checks every thinning
parameter) that adds the family, ladder, trial count and output settings,
and every trial takes the campaign config itself.  A campaign returns its
rungs, each with its trial records and the unclamped tail bound of event E;
every summary column (bad-event frequencies, surviving counts, exact
l1/degree/product aggregates) is derived from those records when it is
rendered.  The flat deterministic artifacts are a summary table, per-degree
trial tables, and a manifest recording the RNG algorithm, master seed and
config digest.
Identical configs produce byte-identical files, whatever the worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Optional

from . import __version__, poly
from .concentration import bad_event_E_bound, choose_epsilon
from .poly import NewmanPolynomial, metrics, parse_polynomial
from .sparsify import (
    RNG_ALGORITHM,
    SparsifyConfig,
    TrialRecord,
    alpha_of,
    sample,
)

__all__ = [
    "TRIAL_COLUMNS",
    "SUMMARY_COLUMNS",
    "MEAN_PROXY_DEN",
    "CampaignConfig",
    "DegreeSummary",
    "record_from_trial",
    "parse_campaign_file",
    "run_campaign",
    "csv_text",
    "json_text",
    "write_text",
    "trial_table_text",
    "emit_results",
]

TRIAL_COLUMNS = [
    "trial_index", "seed", "l1_q", "deg_q", "height_q2",
    "ratio_num", "ratio_den", "product_num", "product_den",
    "flag_E", "flag_D", "num_Ek", "first_Ek_index",
]
SUMMARY_COLUMNS = [
    "degree", "alpha", "epsilon", "trials",
    "freq_E", "freq_Ek", "freq_D", "freq_clean",
    "mean_product_num", "mean_product_den_proxy",
    "bound_E_raw", "bound_E_clamped",
]
# Exact product means are emitted as round(mean * 10**12) / 10**12.
MEAN_PROXY_DEN = 10 ** 12

_FORMATS = ("csv", "json")

square = poly.square  # not called here: perfbench's tracer binds experiment.square


def _text_lines(path: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of a text file, read lazily, with `#` comments and blank lines dropped."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(handle, 1))
        yield from ((n, line) for n, line in lines if line)


def _polynomials_from_file(config: CampaignConfig) -> list[NewmanPolynomial]:
    """The first polynomial of each ladder degree in the family file.

    One pass reads the file up to the last line it needs, and closes it
    there; a malformed line that it reaches is reported with its file and
    line number, and the first ladder degree it did not find is named.
    """
    path, ladder = config.family_file, config.degree_ladder
    assert path is not None
    found: dict[int, NewmanPolynomial] = {}
    with closing(_text_lines(path)) as lines:
        for lineno, line in lines if ladder else ():
            try:
                p = parse_polynomial(line, "exponent_list")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if p.degree in ladder and p.degree not in found:
                found[p.degree] = p
                if len(found) == len(ladder):
                    break
    for degree in ladder:
        if degree not in found:
            raise ValueError(f"no polynomial of degree {degree} in {path}")
    return [found[degree] for degree in ladder]


# Family name -> the builder of its polynomials, one per ladder degree.
_FAMILIES = {
    "all_ones": lambda config: [NewmanPolynomial.all_ones(d) for d in config.degree_ladder],
    "from_file": _polynomials_from_file,
}


@dataclass(frozen=True, kw_only=True)
class CampaignConfig(SparsifyConfig):
    """A thinning config plus the ladder it runs on and where it writes.

    The thinning parameters and their checks are `SparsifyConfig`'s, so a
    campaign config is passed to `sample` as it is.  The epsilon is hashed
    and written to the manifest config as null when (rho, rho_prime) gives
    that very epsilon, whether it was derived or given.
    """

    family: str
    degree_ladder: tuple[int, ...]
    trials_per_degree: int
    output_dir: str = "results"
    format: str = "csv"
    family_file: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree_ladder", tuple(int(n) for n in self.degree_ladder))
        super().__post_init__()
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {tuple(_FAMILIES)}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if any(b <= a for a, b in zip(self.degree_ladder, self.degree_ladder[1:])):
            raise ValueError("degree ladder must be strictly increasing")
        if self.degree_ladder and self.degree_ladder[0] < 1:
            raise ValueError(f"degree_ladder degrees must be at least 1, got {self.degree_ladder[0]}")
        if self.degree_ladder and self.trials_per_degree < 1:
            raise ValueError("trials_per_degree must be at least 1")
        if self.family == "from_file" and not self.family_file:
            raise ValueError("from_file family needs family_file")

    def canonical_dict(self) -> dict:
        """Stable JSON-ready form used for hashing and the manifest: every field
        but output_dir, with epsilon None when (rho, rho_prime) gives it."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output_dir"}
        if self.rho is not None and self.epsilon == choose_epsilon(self.rho, self.rho_prime):
            values["epsilon"] = None
        return {name: _canonical(value) for name, value in values.items()}

    def sha256(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _canonical(value):
    """A config value as the manifest and the hash render it."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass(frozen=True)
class DegreeSummary:
    """One rung of a campaign: its parameters and its trial records in trial order.

    `bound_E` is the unclamped `bad_event_E_bound` at density min(c0, l1/N)
    of the rung's p.  Every summary column is derived from `records` when
    it is read.
    """

    degree: int
    alpha: float
    epsilon: float
    bound_E: float
    records: tuple[TrialRecord, ...]

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def freq_E(self) -> float:
        return sum(r.flags.E for r in self.records) / self.trials

    @property
    def freq_Ek(self) -> float:
        return sum(r.flags.E_k_any for r in self.records) / self.trials

    @property
    def freq_D(self) -> float:
        return sum(r.flags.D for r in self.records) / self.trials

    @property
    def freq_clean(self) -> float:
        return sum(r.flags.clean for r in self.records) / self.trials

    def to_json_dict(self) -> dict:
        """The summary row; l1, degree and product aggregate the surviving q exactly."""
        reports = [r.q_metrics for r in self.records if r.q_metrics is not None]

        def stats(values):
            if not values:
                return None, None, None
            return min(values), max(values), sum(values, Fraction(0)) / len(values)

        def frac12(v: Optional[Fraction]) -> Optional[str]:
            return None if v is None else f"{float(v):.12f}"

        def pair(v: Optional[Fraction]) -> Optional[list[int]]:
            return None if v is None else [v.numerator, v.denominator]

        l1_min, l1_max, l1_mean = stats([q.l1 for q in reports])
        deg_min, deg_max, deg_mean = stats([q.degree for q in reports])
        product_min, product_max, product_mean = stats([q.product for q in reports])
        proxy = None if product_mean is None else round(product_mean * MEAN_PROXY_DEN)
        return {
            "degree": self.degree,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "trials": self.trials,
            "freq_E": self.freq_E,
            "freq_Ek": self.freq_Ek,
            "freq_D": self.freq_D,
            "freq_clean": self.freq_clean,
            "mean_product_num": proxy,
            "mean_product_den_proxy": None if proxy is None else MEAN_PROXY_DEN,
            "bound_E_raw": self.bound_E,
            "bound_E_clamped": min(1.0, self.bound_E),
            "successful_trials": len(reports),
            "l1": {"mean": frac12(l1_mean), "min": l1_min, "max": l1_max},
            "deg": {"mean": frac12(deg_mean), "min": deg_min, "max": deg_max},
            "product": {"mean": frac12(product_mean), "min": pair(product_min), "max": pair(product_max)},
        }


def _parse_ladder(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# How parse_campaign_file converts a key's value; any other key stays a string.
_PARSERS = {
    "degree_ladder": _parse_ladder,
    "trials_per_degree": int,
    "seed": int,
    "epsilon": float,
    "alpha_exponent": Fraction,
    "rho": Fraction,
    "rho_prime": Fraction,
    "c0": Fraction,
}


def parse_campaign_file(path: str, **overrides) -> CampaignConfig:
    """Read a campaign config from a `key = value` text file.

    The keys are the `CampaignConfig` fields; an omitted key takes the
    field's default.  Lists are comma separated; `#` starts a comment.
    Unknown, repeated, missing and malformed keys are rejected, naming the
    file, so typos fail loudly.  `overrides` are field values that replace
    the file's before the config is built; an invalid override is reported
    without the file's name, as the file is not at fault.
    """
    values: dict[str, str] = {}
    for lineno, line in list(_text_lines(path)):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    config_fields = fields(CampaignConfig)
    unknown = set(values) - {f.name for f in config_fields}
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in config_fields if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"{path}: config needs {', '.join(missing)}")
    kwargs = {}
    for key, text in values.items():
        try:
            kwargs[key] = _PARSERS.get(key, str)(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}: bad {key} = {text!r} ({exc})") from exc
    try:
        return CampaignConfig(**{**kwargs, **overrides})
    except ValueError as exc:
        error = exc
    try:  # blame the file only for an error its own values make
        CampaignConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    raise error


def record_from_trial(trial: TrialRecord) -> TrialRecord:
    """The trial without its mask: what a campaign keeps."""
    return TrialRecord(trial.trial_index, trial.trial_seed, trial.q_metrics, trial.flags)


def _trial(p: NewmanPolynomial, config: SparsifyConfig, p_square_height: int, t: int) -> TrialRecord:
    return record_from_trial(sample(p, config, t, p_square_height=p_square_height))


def _run_degree(p: NewmanPolynomial, config: CampaignConfig, workers: int) -> tuple[TrialRecord, ...]:
    """The rung's trial records in trial order, whatever the worker count."""
    trials = config.trials_per_degree
    trial = partial(_trial, p, config, metrics(p).height)
    if workers == 1 or trials < 2 * workers:
        return tuple(map(trial, range(trials)))
    # Imported here: multiprocessing would add to the start-up of every other command.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return tuple(pool.map(trial, range(trials), chunksize=math.ceil(trials / workers)))


def run_campaign(config: CampaignConfig, workers: int = 1) -> list[DegreeSummary]:
    """Run every ladder degree, one rung each; reproducible from (config, seed)."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # Every rung's polynomial is built first, so a missing one fails before any trial.
    polys = _FAMILIES[config.family](config)
    return [
        DegreeSummary(
            degree=degree,
            alpha=float(alpha_of(p.degree, config.alpha_exponent)),
            epsilon=config.epsilon,
            bound_E=bad_event_E_bound(degree, min(config.c0, Fraction(p.l1, p.degree)),
                                      config.epsilon, config.alpha_exponent),
            records=_run_degree(p, config, workers),
        )
        for degree, p in zip(config.degree_ladder, polys)
    ]


def write_text(path: Optional[str], text: str) -> None:
    """Write `text` to stdout, or to `path` as UTF-8 after creating its directory."""
    if path is None:
        sys.stdout.write(text)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def csv_text(header: list[str], rows) -> str:
    """A CSV table, one LF-terminated line per row.

    None is an empty cell, and a cell holding a comma is quoted.
    """
    def cell(value) -> str:
        text = "" if value is None else str(value)
        return f'"{text}"' if "," in text else text

    return "".join(",".join(map(cell, line)) + "\n" for line in [header, *rows])


def json_text(payload, sort_keys: bool = False) -> str:
    """A JSON document, indented by two spaces and LF-terminated."""
    return json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"


def _trial_row(record: TrialRecord) -> list[str]:
    """The TRIAL_COLUMNS of one record; an empty q has l1 0 and blank q columns."""
    rep, flags = record.q_metrics, record.flags
    q_columns = ["0"] + [""] * 6 if rep is None else [
        str(rep.l1), str(rep.degree), str(rep.height),
        str(rep.ratio.numerator), str(rep.ratio.denominator),
        str(rep.product.numerator), str(rep.product.denominator),
    ]
    overs = flags.E_k_indices
    return [
        str(record.trial_index), str(record.trial_seed), *q_columns,
        str(int(flags.E)), str(int(flags.D)),
        str(len(overs)), str(overs[0]) if overs else "",
    ]


def trial_table_text(records: Sequence[TrialRecord], format: str) -> str:
    """One trial table in `format` ("csv" or "json"), as the campaign writes it."""
    rows = [_trial_row(r) for r in records]
    if format == "csv":
        return csv_text(TRIAL_COLUMNS, rows)
    return json_text([dict(zip(TRIAL_COLUMNS, row)) for row in rows])


def emit_results(config: CampaignConfig, rungs: Sequence[DegreeSummary]) -> dict[str, str]:
    """Write the rungs' summary, per-degree trial tables and the manifest; returns paths.

    Output is deterministic: fixed column orders, shortest-round-trip float
    formatting, LF newlines, and no timestamps.
    """
    fmt = config.format
    out_dir = config.output_dir
    paths: dict[str, str] = {}

    summary_name = f"summary.{fmt}"
    rows = [row.to_json_dict() for row in rungs]
    if fmt == "csv":
        summary_text = csv_text(SUMMARY_COLUMNS, [[row[c] for c in SUMMARY_COLUMNS] for row in rows])
    else:
        summary_text = json_text(rows)
    summary_path = os.path.join(out_dir, summary_name)
    write_text(summary_path, summary_text)
    paths["summary"] = summary_path

    trial_files: dict[str, str] = {}
    for row in rungs:
        name = f"trials_degree_{row.degree}.{fmt}"
        write_text(os.path.join(out_dir, name), trial_table_text(row.records, fmt))
        trial_files[str(row.degree)] = name
    paths["trials"] = out_dir

    manifest = {
        "artifact": "newmanlab",
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "master_seed": config.seed,
        "epsilon": repr(config.epsilon),
        "config": config.canonical_dict(),
        "config_sha256": config.sha256(),
        "summary_file": summary_name,
        "trial_files": trial_files,
        "summary_columns": SUMMARY_COLUMNS,
        "trial_columns": TRIAL_COLUMNS,
        "mean_product_den_proxy": MEAN_PROXY_DEN,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_text(manifest_path, json_text(manifest, sort_keys=True))
    paths["manifest"] = manifest_path
    return paths
