"""Command-line frontend.

Subcommands: generate, solve, uc, ucrate, predict, sweep, verify.
Output is plain text (no color, so NO_COLOR needs no special handling).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analytics
from .backtracker import solve_all
from .generator import sample_instance
from .harness import ExperimentConfig, emit_csv, emit_plotdata, format_csv, run_sweep
from .model import Params, dumps_instance, loads_instance
from .oracle import verification_report
from .rng import SeedSpec
from .uc import run_uc, uc_success_rate

_LN10 = math.log(10)


def _add_param_flags(sub, with_t=True):
    sub.add_argument("--n", type=int, required=True, help="variable count")
    sub.add_argument("--d", type=int, required=True, help="domain size")
    sub.add_argument("--k", type=int, required=True, help="constraint arity")
    if with_t:
        sub.add_argument("--t", type=int, required=True, help="constraint count")
    sub.add_argument("--q", type=int, required=True, help="forbidden tuples per constraint")


def _params(args, t=None) -> Params:
    return Params(n=args.n, d=args.d, k=args.k, t=args.t if t is None else t, q=args.q)


def _read_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def _logline(name: str, value: float) -> str:
    return f"{name:<14} {value!r} nats ({value / _LN10!r} log10)"


def cmd_generate(args) -> int:
    inst = sample_instance(_params(args), SeedSpec(args.seed, args.trial))
    text = dumps_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    inst = _read_instance(getattr(args, "in"))
    stats = solve_all(inst, collect=args.collect)
    print(f"nodes          {stats.nodes}")
    print(f"solutions      {stats.solution_count}")
    if args.profile:
        print("levels         " + " ".join(str(c) for c in stats.level_counts))
    if args.collect:
        for sol in stats.solutions:
            print("solution       " + " ".join(str(v) for v in sol))
    return 0


def cmd_uc(args) -> int:
    inst = _read_instance(getattr(args, "in"))
    outcome = run_uc(inst, SeedSpec(args.seed, args.trial))
    print(f"outcome        {outcome.tag}")
    if outcome.assignment is not None:
        print("assignment     " + " ".join(str(v) for v in outcome.assignment))
    return 0


def cmd_ucrate(args) -> int:
    rate = uc_success_rate(_params(args), args.trials, args.seed)
    print(f"trials         {args.trials}")
    print(f"success_rate   {rate!r}")
    return 0


def cmd_predict(args) -> int:
    params = _params(args)
    pred = analytics.predict(params, tol=args.tol)
    print(f"n              {params.n}")
    print(f"d              {params.d}")
    print(f"k              {params.k}")
    print(f"t              {params.t}")
    print(f"q              {params.q}")
    print(f"p              {params.p!r}")
    print(f"r              {params.r!r}")
    print(f"regime         {pred.regime}")
    print(f"r0             {pred.r0!r}")
    print(f"r_cr           {pred.r_cr!r}")
    print(f"zeta           {pred.zeta!r}")
    print(_logline("F_per_var", pred.F))
    print(_logline("log_prefactor", pred.log_prefactor))
    print(_logline("log_T_exact", pred.log_T_exact))
    print(_logline("log_T_asym", pred.log_T_asym))
    print(_logline("log_EN", pred.log_expected_solutions))
    for w in pred.warnings:
        print(f"warning        {w}")
    return 0


def cmd_sweep(args) -> int:
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    flags = {name: getattr(args, name) for name in ("n", "d", "k", "q", "trials", "out", "jobs")}
    if args.t_grid is not None:
        flags["t_grid"] = [int(x) for x in args.t_grid.split(",") if x != ""]
    flags["master_seed"] = args.seed
    if args.measure is not None:
        flags["measures"] = [m for m in args.measure.split(",") if m != ""]
    config = ExperimentConfig.from_doc(doc, {name: v for name, v in flags.items() if v is not None})
    rows = run_sweep(config)
    if not rows:
        print("no valid grid points", file=sys.stderr)
        return 1
    if args.plotdata:
        emit_plotdata(rows, args.plotdata)
    if config.out:
        emit_csv(rows, config.out)
        print(f"wrote {config.out}")
        if args.plotdata:
            print(f"wrote {args.plotdata}")
    else:
        sys.stdout.write(format_csv(rows))
    return 0


def cmd_verify(args) -> int:
    results = verification_report(master_seed=args.seed, instances=args.instances)
    failed = 0
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        line = f"{tag}  {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbcsp",
        description="Model GB random CSP workbench: generate, solve, analyze.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("generate", help="sample one instance to a canonical document")
    _add_param_flags(sub)
    sub.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    sub.add_argument("--trial", type=int, default=0, help="stream index (trial number)")
    sub.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    sub.set_defaults(func=cmd_generate)

    sub = subs.add_parser("solve", help="count nodes and solutions of an instance file")
    sub.add_argument("--in", type=str, required=True, help="instance file")
    sub.add_argument("--collect", action="store_true", help="list all solutions")
    sub.add_argument("--profile", action="store_true", help="print per-level consistent counts")
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("uc", help="run the unit-constraint heuristic on an instance file")
    sub.add_argument("--in", type=str, required=True, help="instance file")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--trial", type=int, default=0)
    sub.set_defaults(func=cmd_uc)

    sub = subs.add_parser("ucrate", help="unit-constraint success rate over fresh instances")
    _add_param_flags(sub)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.set_defaults(func=cmd_ucrate)

    sub = subs.add_parser("predict", help="print every analytic prediction for a parameter set")
    _add_param_flags(sub)
    sub.add_argument("--tol", type=float, default=analytics.DEFAULT_TOL,
                     help="root-finder tolerance")
    sub.set_defaults(func=cmd_predict)

    sub = subs.add_parser("sweep", help="Monte Carlo sweep over a grid of constraint counts")
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    for name in ("n", "d", "k", "q"):
        sub.add_argument(f"--{name}", type=int, default=None)
    sub.add_argument("--t-grid", dest="t_grid", type=str, default=None,
                     help="comma-separated constraint counts")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--measure", type=str, default=None,
                     help="comma-separated subset of nodes,sat,uc")
    sub.add_argument("--out", type=str, default=None, help="CSV output path")
    sub.add_argument("--plotdata", type=str, default=None,
                     help="also write whitespace-separated plot data here")
    sub.add_argument("--jobs", type=int, default=None, help="at most this many worker processes")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("verify", help="run the brute-force cross-check suite")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--instances", type=int, default=50)
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gbcsp {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
