"""Command line interface: `newman square|ratio|chernoff|sparsify|search|experiment`."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from fractions import Fraction

from . import __version__
from .concentration import (
    bad_event_E_bound,
    c_epsilon,
    choose_epsilon,
    exact_amplification,
    tail_bound,
)
from .experiment import (
    _text_lines,
    csv_text,
    emit_results,
    json_text,
    parse_campaign_file,
    record_from_trial,
    run_campaign,
    trial_table_text,
    write_text,
)
from .poly import NewmanPolynomial, format_polynomial, metrics, parse_polynomial, square
from .search import DEGREE_TABLE_COLUMNS, SearchSpec, exhaustive_search, local_search
from .sparsify import SparsifyConfig, sample


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _add_output(parser: argparse.ArgumentParser, format_default: str | None) -> None:
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--format", choices=("csv", "json"), default=format_default)


def _add_thinning(parser: argparse.ArgumentParser) -> None:
    """SparsifyConfig's parameters other than the seed, with its defaults."""
    for f in dataclasses.fields(SparsifyConfig):
        if f.name != "seed":
            parser.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                                type=float if f.name == "epsilon" else _fraction)


def _add_poly_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="polynomial text")
    group.add_argument("--poly-file", help="file with the polynomial on one line (# comments)")
    group.add_argument("--all-ones", type=int, metavar="N",
                       help="use 1 + x + ... + x**N")
    parser.add_argument("--poly-format", choices=("exponent_list", "bitstring"),
                        default="exponent_list", help="format of --poly/--poly-file")


def _load_polynomial(args: argparse.Namespace) -> NewmanPolynomial:
    if args.all_ones is not None:
        return NewmanPolynomial.all_ones(args.all_ones)
    if args.poly_file is None:
        return parse_polynomial(args.poly, args.poly_format)
    lines = list(_text_lines(args.poly_file))
    if len(lines) != 1:
        raise ValueError(f"{args.poly_file}: expected one polynomial line, found {len(lines)}")
    (lineno, line), = lines
    try:
        return parse_polynomial(line, args.poly_format)
    except ValueError as exc:
        raise ValueError(f"{args.poly_file}:{lineno}: {exc}") from exc


def _cmd_square(args: argparse.Namespace) -> int:
    p = _load_polynomial(args)
    sq = square(p)
    if args.format == "csv":
        write_text(args.out, csv_text(["k", "coefficient"], enumerate(sq.tolist())))
    else:
        payload = {
            "polynomial": format_polynomial(p),
            "degree": p.degree,
            "l1": p.l1,
            "square": sq.tolist(),
        }
        write_text(args.out, json_text(payload))
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    p = _load_polynomial(args)
    report = metrics(p)
    payload = {"polynomial": format_polynomial(p), **report.to_json_dict()}
    if args.format == "csv":
        write_text(args.out, csv_text(list(payload), [payload.values()]))
    else:
        write_text(args.out, json_text(payload))
    return 0


def _cmd_chernoff(args: argparse.Namespace) -> int:
    payload: dict = {}
    epsilon = args.epsilon
    if args.rho is not None or args.rho_prime is not None:
        # A pair admits the epsilons that it admits for thinning, and no other.
        epsilon = SparsifyConfig(epsilon=epsilon, rho=args.rho, rho_prime=args.rho_prime).epsilon
        chosen = choose_epsilon(args.rho, args.rho_prime)
        payload["choice"] = {
            "rho": str(args.rho),
            "rho_prime": str(args.rho_prime),
            "epsilon": chosen,
            "amplification": float(exact_amplification(chosen)),
        }
    if epsilon is not None:
        payload["epsilon"] = epsilon
        payload["c_epsilon"] = c_epsilon(epsilon)
        if args.mean is not None:
            bound = tail_bound(epsilon, args.mean)
            payload["tail_bound"] = {"mean": args.mean, "raw": bound, "clamped": min(1.0, bound)}
        if args.n is not None:
            bound = bad_event_E_bound(args.n, args.c0, epsilon, args.alpha_exponent)
            payload["bad_event_E_bound"] = {
                "N": args.n,
                "c0": str(Fraction(args.c0)),
                "alpha_exponent": str(Fraction(args.alpha_exponent)),
                "raw": bound,
                "clamped": min(1.0, bound),
            }
    if not payload:
        raise ValueError("nothing to compute: give --epsilon or --rho/--rho-prime")
    write_text(args.out, json_text(payload))
    return 0


def _cmd_sparsify(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    p = _load_polynomial(args)
    config = SparsifyConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(SparsifyConfig)})
    p_height = metrics(p).height
    records = [
        record_from_trial(sample(p, config, t, p_square_height=p_height))
        for t in range(args.trials)
    ]
    write_text(args.out, trial_table_text(records, args.format))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.budget is not None and args.mode == "exhaustive":
        raise ValueError("--budget applies only to --mode local_search")
    spec = SearchSpec(
        min_degree=args.min_degree,
        max_degree=args.max_degree,
        density_floor=args.floor,
        seed=args.seed,
        iteration_budget=SearchSpec.iteration_budget if args.budget is None else args.budget,
    )
    result = exhaustive_search(spec) if args.mode == "exhaustive" else local_search(spec)
    payload = result.to_json_dict()
    if args.out is None:
        write_text(None, json_text(payload))
    else:
        write_text(os.path.join(args.out, "search_result.json"), json_text(payload))
        rows = [[row[c] for c in DEGREE_TABLE_COLUMNS] for row in payload["degree_table"]]
        write_text(os.path.join(args.out, "degree_table.csv"),
                   csv_text(DEGREE_TABLE_COLUMNS, rows))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    flags = {"seed": args.seed, "output_dir": args.out,
             "trials_per_degree": args.trials, "format": args.format}
    config = parse_campaign_file(args.config, **{k: v for k, v in flags.items() if v is not None})
    rungs = run_campaign(config, workers=args.workers)
    paths = emit_results(config, rungs)
    sys.stdout.write(f"wrote {paths['manifest']}\n")
    for row in rungs:
        sys.stdout.write(
            f"degree {row.degree}: freq_E={row.freq_E:.4f} freq_Ek={row.freq_Ek:.4f} "
            f"freq_D={row.freq_D:.4f} clean={row.freq_clean:.4f}\n"
        )
    return 0


# Built once per process and shared by every main() call, so callers must not
# change it: in-process callers (tests, the benchmark) run main() many times,
# and the parser takes about 2 ms to build.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newman",
        description="Exact metrics, randomized thinning trials, tail bounds and "
                    "extremal search for 0/1-coefficient polynomials.",
    )
    parser.add_argument("--version", action="version", version=f"newman {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_square = sub.add_parser("square", help="exact coefficients of p**2")
    _add_output(p_square, "json")
    _add_poly_source(p_square)
    p_square.set_defaults(func=_cmd_square)

    p_ratio = sub.add_parser("ratio", help="term count, square height and exact ratios")
    _add_output(p_ratio, "json")
    _add_poly_source(p_ratio)
    p_ratio.set_defaults(func=_cmd_ratio)

    p_ch = sub.add_parser("chernoff", help="tail exponent, tail bounds, epsilon choice")
    p_ch.add_argument("--out", default=None, help="output file")
    _add_thinning(p_ch)
    p_ch.add_argument("--mean", type=float, default=None)
    p_ch.add_argument("--n", type=int, default=None, help="degree for the low-mass bound")
    p_ch.set_defaults(func=_cmd_chernoff)

    p_sp = sub.add_parser("sparsify", help="seeded thinning trials, one row per trial")
    p_sp.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    _add_output(p_sp, "csv")
    _add_poly_source(p_sp)
    p_sp.add_argument("--trials", type=int, default=100)
    _add_thinning(p_sp)
    p_sp.set_defaults(func=_cmd_sparsify)

    p_se = sub.add_parser("search", help="extremal search over canonical candidates")
    p_se.add_argument("--seed", type=int, default=0, help="local-search seed")
    p_se.add_argument("--out", default=None, help="output directory")
    p_se.add_argument("--min-degree", type=int, required=True)
    p_se.add_argument("--max-degree", type=int, required=True)
    p_se.add_argument("--mode", choices=("exhaustive", "local_search"), default="exhaustive")
    p_se.add_argument("--floor", type=_fraction, default=Fraction(0),
                      help="density floor c0 (l1 >= c0 * degree)")
    p_se.add_argument("--budget", type=int, default=None,
                      help="annealing steps per degree (local_search only; default "
                           "10000): budget // 4 steps in each of 4 restarts, so a "
                           "remainder is dropped and a budget below 4 runs none")
    p_se.set_defaults(func=_cmd_search)

    p_ex = sub.add_parser("experiment", help="run a campaign from a config file")
    p_ex.add_argument("--config", required=True)
    p_ex.add_argument("--seed", type=int, default=None)
    _add_output(p_ex, None)
    p_ex.add_argument("--trials", type=int, default=None,
                      help="override trials_per_degree")
    p_ex.add_argument("--workers", type=int, default=1)
    p_ex.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"newman: error: {exc}\n")
        return 1
    except MemoryError as exc:
        # pocketfft raises a bare MemoryError(); name the subcommand instead.
        where = f": {exc}" if str(exc) else f" in {args.command}"
        sys.stderr.write(f"newman: error: out of memory{where}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
