"""Command-line surface: run, sweep, verify, curves, report.

``run`` executes a single trial and writes a CSV trace plus a JSON summary;
``sweep`` runs a seeded ensemble over an n-grid and emits the aggregate JSON
report; ``verify`` runs the exact identity suites and exits nonzero on any
failure; ``curves`` emits the trajectory/envelope CSV on a p-grid; ``report``
prints the tail-bound tables.  A JSON config file mirroring the run options
can be supplied with --config; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .engine import RunConfig, run
from .ensemble import report_to_json, run_ensemble
from .identities import run_identity_suites
from .tail_bounds import azuma_bound, bohman_bound, chernoff_bound, union_bound_at_horizon
from .trajectory import TrajectoryParams, emit_curves

MAX_GAMMA_M = 7
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} | {"n_grid"}


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="horizon log exponent (default 1)")
    p.add_argument("--mu", type=float, default=None,
                   help="lower-envelope log exponent (default 2)")
    for m in range(2, MAX_GAMMA_M + 1):
        p.add_argument(f"--gamma{m}", type=float, default=None,
                       help=f"band log exponent for m={m} (default 1)")


def _params_from_args(args, n: int, k: int, p_floor: float) -> TrajectoryParams:
    gamma = {}
    for m in range(2, k):
        val = getattr(args, f"gamma{m}", None) if m <= MAX_GAMMA_M else None
        gamma[m] = val if val is not None else 1.0
    return TrajectoryParams(
        k=k, n=n,
        lam=args.lam if args.lam is not None else 1.0,
        mu=args.mu if args.mu is not None else 2.0,
        gamma=gamma, p_floor=p_floor,
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=str, required=False, help="vertex count (sweep: comma list)")
    p.add_argument("--k", type=int, default=None, help="clique order (>= 3)")
    p.add_argument("--stride", type=int, default=None, help="checkpoint stride")
    p.add_argument("--panel", type=int, default=None, help="panel sets per m")
    p.add_argument("--p-floor", type=float, default=None)
    p.add_argument("--stop", choices=["hitting-time", "p-floor"], default=None)
    p.add_argument("--materialize-at", type=int, default=None,
                   help="clique count at which the dense index is built")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with run options; flags override")


def _merge_config(args, single_n: bool) -> dict | None:
    """Config-file options overridden by flags; None if the file has unknown keys."""
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if unknown := sorted(set(base) - _CONFIG_KEYS):
            print(f"{args.command}: unknown config keys: {', '.join(unknown)}", file=sys.stderr)
            return None
    base.setdefault("seed", 0)
    for flag, key in (("k", "k"), ("seed", "seed"), ("stride", "checkpoint_stride"),
                      ("panel", "panel_sizes"), ("p_floor", "p_floor"),
                      ("materialize_at", "materialize_at")):
        if (val := getattr(args, flag, None)) is not None:
            base[key] = val
    if args.stop is not None:
        base["stop"] = args.stop.replace("-", "_")
    if args.n is not None:
        if single_n:
            base["n"] = int(args.n)
        else:
            base["n_grid"] = [int(x) for x in args.n.split(",")]
    return base


def _cmd_run(args) -> int:
    opts = _merge_config(args, single_n=True)
    if opts is None:
        return 2
    n_grid = opts.pop("n_grid", None)
    if n_grid:
        opts["n"] = n_grid[0]
    cfg = RunConfig(**opts)
    trace = run(cfg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trace.to_csv())
    summary = trace.summary_json()
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(summary + "\n")
    else:
        print(summary)
    return 0


def _cmd_sweep(args) -> int:
    opts = _merge_config(args, single_n=False)
    if opts is None:
        return 2
    n_grid = opts.pop("n_grid", None)
    if not n_grid:
        n_val = opts.pop("n", None)
        if n_val is None:
            print("sweep: --n is required", file=sys.stderr)
            return 2
        n_grid = [int(n_val)]
    grid = [RunConfig(n=n, **opts) for n in n_grid]
    params = None
    k = grid[0].k
    if k >= 4 and args.envelopes:
        params = _params_from_args(args, n=grid[0].n, k=k,
                                   p_floor=grid[0].p_floor)
    report = run_ensemble(grid, trials=args.trials, master_seed=args.master_seed,
                          params=params, jobs=args.jobs)
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    report = run_identity_suites(max_n=args.max_n, ks=tuple(int(x) for x in args.ks.split(",")),
                                 seed=args.seed, max_n_destroying=args.max_n_destroying)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for suite in report["suites"]:
        status = "ok" if suite["passed"] else "FAILED"
        print(f"{suite['name']}: {suite['instances']} instances, {status}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def _cmd_curves(args) -> int:
    params = _params_from_args(args, n=int(args.n), k=args.k,
                               p_floor=args.p_floor if args.p_floor is not None else 0.3)
    text = emit_curves(params, points=args.points)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    params = _params_from_args(args, n=int(args.n), k=args.k,
                               p_floor=args.p_floor if args.p_floor is not None else 0.3)
    ub = union_bound_at_horizon(params, constant_c=args.constant_c)
    payload = {
        "closed_form_examples": {
            "azuma a=10, c=1 x100": azuma_bound(10, [1.0] * 100),
            "bohman a=10, l=100, eta=0.5, N=10": bohman_bound(10, 100, 0.5, 10),
            "chernoff n=100, p=0.5, xi=30": chernoff_bound(100, 0.5, 30),
        },
        "horizon": {"i0": ub.horizon.i0, "p0": ub.horizon.p0,
                    "vacuous_at_this_n": ub.horizon.vacuous},
        "constant_c": ub.constant_c,
        "union_bound_terms": [
            {"m": t.m, "xi": t.xi, "log_term": t.log_term, "term": t.term,
             "analytic_exponent": t.analytic_exponent}
            for t in ub.terms
        ],
        "increasing_in_m": ub.increasing_in_m,
        "dominant_m": ub.dominant_m,
        "total": ub.total,
        "log_total": ub.log_total,
    }
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        lines = ["tail-bound calculators:"]
        for name, val in payload["closed_form_examples"].items():
            lines.append(f"  {name}: {val:.9g}")
        hor = payload["horizon"]
        lines.append(f"horizon: i0={hor['i0']:.6g} p0={hor['p0']:.6g}"
                     + (" (vacuous at this n)" if hor["vacuous_at_this_n"] else ""))
        lines.append(f"union bound at the horizon (constant_c={ub.constant_c:g}):")
        lines.append("  m    xi             ln(term)        term          n-exponent")
        for t in ub.terms:
            lines.append(f"  {t.m}    {t.xi:<13.6g}  {t.log_term:<14.6g}"
                         f"  {t.term:<12.6g}  {t.analytic_exponent:.6g}")
        lines.append(f"  increasing in m: {ub.increasing_in_m}; dominant m = {ub.dominant_m}")
        lines.append(f"  total = {ub.total:.6g}  (ln = {ub.log_total:.6g})")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kremoval",
        description="Random clique-removal process: simulator, identity checks, envelope reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single trial: CSV trace + JSON summary")
    _add_run_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="trace CSV path")
    p.add_argument("--summary", type=str, default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="seeded ensemble over an n-grid")
    _add_run_flags(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--envelopes", action="store_true",
                   help="score envelope concentration (k >= 4 only)")
    _add_param_flags(p)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="exact identity suites; exit 0 iff all pass")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--max-n-destroying", type=int, default=8)
    p.add_argument("--ks", type=str, default="3,4,5")
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("curves", help="trajectory and envelope CSV on a p-grid")
    p.add_argument("--n", type=str, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--p-floor", type=float, default=None)
    p.add_argument("--points", type=int, default=200)
    _add_param_flags(p)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("report", help="tail-bound tables")
    p.add_argument("--n", type=str, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--p-floor", type=float, default=None)
    p.add_argument("--constant-c", type=float, default=1.0)
    _add_param_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
