"""Command line interface.

Subcommands:

* ``run SPECFILE``  - run a registered experiment from a flat key=value
  spec file and write its CSV/JSON table;
* ``eval``          - one-shot hybrid distortion for an inline model+policy;
* ``solve``         - policy search with a chosen algorithm;
* ``validate``      - Monte Carlo versus analytic distortion report.

SNRs are linear by default; pass ``--db`` to give the inline SNR flags in
decibels.  ``--seed`` pins all randomness, so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import analytic, experiments, optimize, simulate
from .model import CodingPolicy, SystemModel, ValidationError, _require_count, snr_from_db

_ALGORITHMS = {
    "global": lambda model, args: optimize.global_search(model),
    "pure": lambda model, args: optimize.pure_greedy(model),
    "group": lambda model, args: optimize.group_greedy(model, args.group_size),
    "sorted": lambda model, args: optimize.sorted_greedy(model, args.ranking),
}


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=None,
                        help="node count; broadcasts scalar SNRs")
    parser.add_argument("--gamma-ob", required=True,
                        help="observation SNR (scalar or comma list)")
    parser.add_argument("--gamma-ch", required=True,
                        help="channel SNR (scalar or comma list)")
    parser.add_argument("--sigma-theta", type=float, default=1.0,
                        help="source signal power (default 1)")
    parser.add_argument("--db", action="store_true",
                        help="interpret the SNR flags as decibels")


def _parse_snrs(text: str, db: bool) -> list[float]:
    values = []
    for part in text.split(","):
        if not part.strip():
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise ValidationError(f"bad SNR value {part.strip()!r}") from None
    if db:
        values = [snr_from_db(v) for v in values]
    return values


def _model_from_args(args) -> SystemModel:
    gob = _parse_snrs(args.gamma_ob, args.db)
    gch = _parse_snrs(args.gamma_ch, args.db)
    k = args.k
    if k is not None:
        _require_count(k, "--k")
        if len(gob) == 1:
            gob = gob * k
        if len(gch) == 1:
            gch = gch * k
        if len(gob) != k or len(gch) != k:
            raise ValidationError(
                f"--k {k} does not match SNR list lengths {len(gob)}/{len(gch)}")
    return SystemModel.from_snrs(gob, gch, sigma_theta_sq=args.sigma_theta)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        rendered = experiments._json_text(payload) + "\n"
    else:
        rendered = text
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _cmd_run(args) -> int:
    spec = experiments.parse_spec_file(args.spec_file)
    path = experiments.run_experiment(spec, seed=args.seed, fmt=args.format,
                                      out=args.out)
    print(f"wrote {path}")
    return 0


def _cmd_eval(args) -> int:
    model = _model_from_args(args)
    policy = CodingPolicy.from_bits(args.policy)
    breakdown = analytic.hybrid_distortion(model, policy)
    payload = {
        "policy": policy.as_bits(),
        "distortion": breakdown.total,
        "per_term": list(breakdown.per_term),
    }
    _emit(args, payload, f"policy {policy.as_bits()}  D = {breakdown.total:.12g}\n")
    return 0


def _cmd_solve(args) -> int:
    model = _model_from_args(args)
    result = _ALGORITHMS[args.algo](model, args)
    payload = {
        "algorithm": args.algo,
        "policy": result.policy.as_bits(),
        "distortion": result.distortion,
        "visit_order": list(result.visit_order),
        "evaluations": result.evaluations,
    }
    _emit(args, payload,
          f"policy {result.policy.as_bits()}  D = {result.distortion:.12g}  "
          f"({result.evaluations} evaluations)\n")
    return 0


def _cmd_validate(args) -> int:
    model = _model_from_args(args)
    policy = CodingPolicy.from_bits(args.policy)
    expected = analytic.hybrid_distortion(model, policy).total
    stats = simulate.empirical_distortion(model, policy, args.trials, args.seed)
    z = (stats.mean_sq_error - expected) / stats.std_error
    payload = {
        "policy": policy.as_bits(),
        "analytic": expected,
        "empirical": stats.mean_sq_error,
        "std_error": stats.std_error,
        "n_trials": stats.n_trials,
        "seed": stats.seed,
        "z_score": z,
        "within_3_sigma": bool(abs(z) <= 3.0),
    }
    verdict = "OK" if abs(z) <= 3.0 else "DEVIATES"
    _emit(args, payload,
          f"analytic {expected:.8g}  empirical {stats.mean_sq_error:.8g} "
          f"+/- {stats.std_error:.2g}  z = {z:+.2f}  [{verdict}]\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensefuse",
        description="Distortion analysis and coding-policy search for "
                    "distributed sensing systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a registered experiment from a spec file")
    run.add_argument("spec_file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="hybrid distortion of a model+policy")
    _add_model_flags(ev)
    ev.add_argument("--policy", required=True, help="bit string, e.g. 1011")
    ev.add_argument("--out", default=None)
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.set_defaults(func=_cmd_eval)

    solve = sub.add_parser("solve", help="search a coding policy")
    _add_model_flags(solve)
    solve.add_argument("--algo", choices=sorted(_ALGORITHMS), default="group")
    solve.add_argument("--group-size", type=int, default=16)
    solve.add_argument("--ranking", choices=("coded", "uncoded"), default="coded",
                       help="single-node ranking used by the sorted search")
    solve.add_argument("--out", default=None)
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.set_defaults(func=_cmd_solve)

    val = sub.add_parser("validate", help="Monte Carlo vs analytic report")
    _add_model_flags(val)
    val.add_argument("--policy", required=True)
    val.add_argument("--trials", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--out", default=None)
    val.add_argument("--format", choices=("text", "json"), default="text")
    val.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    every call gets a fresh namespace."""
    return build_parser()


def cli_entry(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_entry())


if __name__ == "__main__":
    main()
