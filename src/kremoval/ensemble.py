"""Ensemble orchestration, concentration scoring and exponent fitting.

Trials are the unit of parallel work: each gets an independent RNG stream
derived from the master seed by spawn-key splitting, so the report is
byte-identical for a fixed master seed regardless of scheduling or worker
count.  Aggregation is a pure fold over (config index, trial index) order.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import comb, log

import numpy as np

from .engine import ProcessTrace, RunConfig, run
from .trajectory import TrajectoryParams, beta, envelopes, residuals, sigma


def trial_seed(master_seed: int, config_index: int, trial_index: int) -> int:
    """64-bit per-trial seed split from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(config_index, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_trial(args: tuple[RunConfig, int, bool]) -> ProcessTrace | dict:
    """One trial: its whole trace if ``keep`` is set, else only its summary."""
    cfg, seed, keep = args
    trace = run(replace(cfg, seed=seed))
    return trace if keep else trace.summary()


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    stderr: float
    n_values: tuple[int, ...]

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.slope - 1.96 * self.stderr, self.slope + 1.96 * self.stderr)

    def as_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "stderr": self.stderr, "ci95": list(self.ci95),
                "n_values": list(self.n_values)}


def exponent_fit(final_edges_by_n: dict[int, list[float]]) -> ExponentFit:
    """Least squares of log(mean final edge count) against log n."""
    ns = sorted(n for n, vals in final_edges_by_n.items() if vals)
    if len(ns) < 3:
        raise ValueError(f"need >= 3 distinct n values with data, got {len(ns)}")
    xs = [log(n) for n in ns]
    ys = [log(sum(final_edges_by_n[n]) / len(final_edges_by_n[n])) for n in ns]
    npts = len(xs)
    xbar = sum(xs) / npts
    ybar = sum(ys) / npts
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    ssr = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(ssr / (npts - 2) / sxx) if npts > 2 else 0.0
    return ExponentFit(slope=slope, intercept=intercept, stderr=stderr,
                       n_values=tuple(ns))


def concentration_score(traces: list[ProcessTrace], params: TrajectoryParams) -> dict:
    """Envelope hit rates and relative-deviation profile, per p-bucket.

    A checkpoint contributes one (checkpoint, observable) pair per tracked
    observable.  Hit means inside the band; the relative-deviation profile
    |observed / trajectory - 1| is reported separately because at desk-scale
    n the asymptotic band widths are not meaningful (they can dwarf or be
    dwarfed by the main term; see the main/error ratios).

    For the extension counts the primary deviation is that of the panel mean:
    a single m-set's count carries O(1/sqrt(n p^-..)) relative noise that no
    desk-scale n suppresses, while the mean over the panel tracks the
    trajectory tightly.  The worst per-set deviation is kept as a diagnostic
    under ``rel_extreme``.
    """
    if not traces:
        return {"error": "empty trace list"}
    ns = {t.config.n for t in traces}
    ks = {t.config.k for t in traces}
    if len(ns) != 1 or len(ks) != 1:
        return {"error": f"traces mix (n, k): n={sorted(ns)}, k={sorted(ks)}"}
    if ks != {params.k} or ns != {params.n}:
        return {"error": "params do not match the traces' (n, k)"}

    def bucket(p: float) -> str:
        lo = math.floor(p * 20) / 20
        return f"{lo:.2f}"

    buckets: dict[str, dict[str, dict]] = {}
    per_checkpoint: list[dict] = []

    def acc(b: str, obs: str, hit: bool, rel: float, rel_extreme: float) -> None:
        cell = buckets.setdefault(b, {}).setdefault(
            obs, {"count": 0, "hits": 0, "sum_rel": 0.0, "max_rel": 0.0, "max_rel_extreme": 0.0})
        cell["count"] += 1
        cell["hits"] += int(hit)
        cell["sum_rel"] += rel
        cell["max_rel"] = max(cell["max_rel"], rel)
        cell["max_rel_extreme"] = max(cell["max_rel_extreme"], rel_extreme)

    for trace in traces:
        for cp in trace.checkpoints:
            if cp.p < params.p_floor or cp.p <= 0:
                continue
            env = envelopes(params, cp.p)
            b = bucket(cp.p)
            q_rel = abs(cp.q_k / env.q_center - 1.0)
            q_hit = env.q_lower <= cp.q_k <= env.q_upper
            acc(b, "q", q_hit, q_rel, q_rel)
            entry = {"p": cp.p, "i": cp.i, "q_rel": q_rel, "r_rel": {}, "r_rel_extreme": {}}
            for m, vals in cp.panel_r.items():
                if not vals:
                    continue
                lo, hi = min(vals), max(vals)
                rel = abs(sum(vals) / len(vals) / env.r_center[m] - 1.0)
                rel_ext = max(abs(lo / env.r_center[m] - 1.0), abs(hi / env.r_center[m] - 1.0))
                hit = (env.r_center[m] - env.r_half_width[m] <= lo
                       and hi <= env.r_center[m] + env.r_half_width[m])
                acc(b, f"r_m{m}", hit, rel, rel_ext)
                entry["r_rel"][m] = rel
                entry["r_rel_extreme"][m] = rel_ext
            per_checkpoint.append(entry)

    for cells in buckets.values():
        for cell in cells.values():
            cell["hit_rate"] = cell["hits"] / cell["count"]
            cell["mean_rel"] = cell["sum_rel"] / cell["count"]
            del cell["sum_rel"]

    return {
        "note": (
            "asymptotic envelope widths are not meaningful at desk-scale n; "
            "band hit rates are reported for completeness and the "
            "relative-deviation profile is the desk-scale tracking check"
        ),
        "p_floor": params.p_floor,
        "checkpoints": len(per_checkpoint),
        "buckets": {b: buckets[b] for b in sorted(buckets)},
        "per_checkpoint": per_checkpoint,
    }


def _max_residuals(traces: list[ProcessTrace], params: TrajectoryParams) -> dict:
    lo_u = lo_l = math.inf
    hi_u = hi_l = -math.inf
    z_lo: dict[int, float] = {}
    z_hi: dict[int, float] = {}
    for trace in traces:
        for cp in trace.checkpoints:
            if cp.p < params.p_floor or cp.p <= 0:
                continue
            r_obs = {m: max(vals) for m, vals in cp.panel_r.items() if vals}
            res = residuals(params, cp.p, cp.q_k, r_obs)
            lo_u, hi_u = min(lo_u, res.U), max(hi_u, res.U)
            lo_l, hi_l = min(lo_l, res.L), max(hi_l, res.L)
            for m, z in res.Z.items():
                z_lo[m] = min(z_lo.get(m, math.inf), z)
                z_hi[m] = max(z_hi.get(m, -math.inf), z)
    if not math.isfinite(lo_u):
        return {"error": "no checkpoints above p_floor"}
    return {
        "U": [lo_u, hi_u],
        "L": [lo_l, hi_l],
        "Z": {str(m): [z_lo[m], z_hi[m]] for m in sorted(z_lo)},
    }


def _fitted_claim_constants(traces: list[ProcessTrace], params: TrajectoryParams) -> dict:
    """Observed leading constants for the one-step drop shapes.

    The hidden constants in the drop bounds are not specified anywhere, so
    they are reported as the max observed ratio of the drop to its shape
    sigma(p) n^(k-5/2) (ln n)^gamma_2 for Q, and n^(k-m-1) p^(C(k,2)-C(m+1,2))
    for the panel extensions (checkpoint-gap granularity for the latter).
    No fidelity to any asymptotic constant is claimed.
    """
    k, n = params.k, params.n
    ln_n = log(n)
    c_q = 0.0
    c_r: dict[int, float] = {}
    for trace in traces:
        if trace.max_step_drop_q_at is not None:
            p_at = max(1.0 - k * (k - 1) * trace.max_step_drop_q_at / (n * n), 1e-9)
            shape = sigma(p_at, k) * n ** (k - 2.5) * ln_n ** params.gamma[2]
            c_q = max(c_q, trace.max_step_drop_q / shape)
        for m, drop in trace.max_step_drop_r.items():
            at = trace.max_step_drop_r_at.get(m)
            if at is None:
                continue
            p_at = max(1.0 - k * (k - 1) * at / (n * n), 1e-9)
            shape = n ** (k - m - 1) * p_at ** (comb(k, 2) - comb(m + 1, 2))
            c_r[m] = max(c_r.get(m, 0.0), drop / shape)
    return {"q_one_step_drop": c_q,
            "r_gap_drop": {str(m): c_r[m] for m in sorted(c_r)}}


def run_ensemble(grid: list[RunConfig], trials: int, master_seed: int,
                 params: TrajectoryParams | None = None, jobs: int = 1,
                 keep_traces: bool = False) -> dict:
    """Run trials x |grid| independent trials and aggregate.

    Per-trial engine errors are recorded in the report, not raised.  The
    returned dict serializes to byte-identical JSON for a fixed master seed
    (see :func:`report_to_json`); per-checkpoint concentration detail is kept
    out of it for size, but is available via ``keep_traces`` +
    :func:`concentration_score`.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    for cfg in grid:
        cfg.validate()

    def scored(cfg: RunConfig) -> bool:
        return params is not None and cfg.k == params.k and cfg.n == params.n

    # Whole traces are kept only where they are used; other trials keep their
    # summary, so memory does not grow with trials x configs.
    tasks = [(gi, ti, (grid[gi], trial_seed(master_seed, gi, ti), keep_traces or scored(grid[gi])))
             for gi in range(len(grid)) for ti in range(trials)]
    results: dict[tuple[int, int], ProcessTrace | dict | Exception] = {}
    if jobs > 1 and tasks:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {(gi, ti): pool.submit(_run_trial, args) for gi, ti, args in tasks}
        for key, fut in futures.items():
            try:
                results[key] = fut.result()
            except Exception as exc:  # recorded, not fatal
                results[key] = exc
    else:
        for gi, ti, args in tasks:
            try:
                results[(gi, ti)] = _run_trial(args)
            except Exception as exc:
                results[(gi, ti)] = exc

    report: dict = {"master_seed": master_seed, "trials": trials,
                    "configs": [], "traces": [] if keep_traces else None}
    final_edges_by_n: dict[int, list[float]] = {}

    for gi, cfg in enumerate(grid):
        summaries = []
        errors = []
        traces: list[ProcessTrace] = []
        for ti in range(trials):
            res = results.get((gi, ti))
            if isinstance(res, Exception):
                errors.append({"trial": ti, "seed": trial_seed(master_seed, gi, ti),
                               "type": type(res).__name__, "error": str(res)})
            elif isinstance(res, ProcessTrace):
                s = res.summary()
                s["trial"] = ti
                summaries.append(s)
                traces.append(res)
            elif res is not None:
                res["trial"] = ti
                summaries.append(res)
        entry: dict = {
            "n": cfg.n, "k": cfg.k, "stop": cfg.stop,
            "p_floor": cfg.p_floor,
            "stride": cfg.resolved_stride(),
            "trial_summaries": summaries,
            "errors": errors,
        }
        completed = [s for s in summaries if s["M"] is not None]
        finals = sorted(s["final_edges"] for s in completed)
        if trials == 0 or not summaries:
            entry["aggregate"] = {"undefined": True,
                                  "reason": "no completed trials" if trials else "zero trials requested"}
        else:
            agg = {
                "mean_M": (sum(s["M"] for s in completed) / len(completed)) if completed else None,
                "mean_final_edges": (sum(finals) / len(finals)) if finals else None,
                "median_final_edges": (finals[len(finals) // 2] if finals else None),
                "completed_to_M": len(completed),
            }
            if agg["mean_final_edges"] is not None:
                agg["final_edges_over_n2"] = agg["mean_final_edges"] / (cfg.n * cfg.n)
            entry["aggregate"] = agg
        if completed:
            final_edges_by_n.setdefault(cfg.n, []).extend(
                float(s["final_edges"]) for s in completed)

        if scored(cfg) and traces:
            score = concentration_score(traces, params)
            score.pop("per_checkpoint", None)
            entry["concentration"] = score
            entry["max_residuals"] = _max_residuals(traces, params)
            entry["fitted_claim_constants"] = _fitted_claim_constants(traces, params)
        elif params is not None:
            entry["concentration"] = {"skipped": "params (n, k) do not match this config"}
        else:
            entry["concentration"] = {"skipped": "no trajectory params supplied (k=3 has none)"}
        report["configs"].append(entry)
        if keep_traces:
            report["traces"].append(traces)

    try:
        report["exponent_fit"] = exponent_fit(final_edges_by_n).as_dict()
    except ValueError as exc:
        report["exponent_fit"] = {"error": str(exc)}
    if not keep_traces:
        del report["traces"]
    return report


def report_to_json(report: dict) -> str:
    """Canonical serialization: sorted keys, no timestamps, stable floats."""
    clean = {k: v for k, v in report.items() if k != "traces"}
    return json.dumps(clean, sort_keys=True, indent=2)
