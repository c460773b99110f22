"""Fixed-work ensemble benchmark for kremoval.

    python3 ensbench/run.py --workload k4_hitting --seed 1 --seconds 30 --trace 0

Run from the root of a kremoval source tree; the package is imported from
its ``src/`` directory.  One run executes one workload as a seeded ensemble
through ``ensemble.run_ensemble(jobs=1)`` and ``ensemble.report_to_json``,
the path ``kremoval sweep`` takes, then checks every trial's output with
``checks.py`` outside the timed region.  The number of trials per size
follows from the workload and ``--seconds`` only, never from the clock.

Times are taken with ``SpeedClock``, which scales wall time to a reference
machine speed sampled while the benchmark runs, so that other tenants of a
shared machine move them less.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs the same ensemble untraced and then
traced, requires the two reports to be byte-identical, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
_NPROC = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > int(_NPROC):
        os.environ[_var] = _NPROC

import argparse
import json
import resource
import signal
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def process_age_s() -> float:
    """Seconds since this process started, on the kernel's boot-time clock.

    /proc/self/stat gives the start in clock ticks since boot (10 ms steps);
    the elapsed part is read from the same clock with full resolution.
    """
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Workload:
    k: int
    ns: tuple[int, ...]
    round_s: float          # reference seconds for one trial at every n
    stop: str = "hitting_time"
    p_floor: float = 0.3    # RunConfig's default; used only by stop="p_floor"
    envelopes: bool = False

    def trials(self, seconds: int) -> int:
        return max(1, round(seconds / self.round_s))


# round_s is the median unscaled wall time per round over ten 30 s runs on
# the reference machine in README.md, taken before SpeedClock; it only sets
# how many trials a run of a given length attempts.
WORKLOADS = {
    "k4_hitting": Workload(k=4, ns=(60, 90, 120, 160), round_s=13.6),
    "k3_hitting": Workload(k=3, ns=(100, 200, 400, 800), round_s=9.7),
    "k4_tracking": Workload(k=4, ns=(200, 300), round_s=6.1, stop="p_floor",
                            p_floor=0.5, envelopes=True),
}

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master seed of the ensemble")
    p.add_argument("--seconds", type=int, required=True, help="run length; sets the trial count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_kremoval():
    """Import kremoval from this tree's src/, never from anywhere else."""
    if not (SRC / "kremoval" / "__init__.py").is_file():
        sys.exit(f"ensbench: no kremoval sources under {SRC}; run from a kremoval source tree")
    sys.path.insert(0, str(SRC))
    import kremoval
    if not Path(kremoval.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"ensbench: kremoval was imported from {kremoval.__file__}, not {SRC}")


def adjacency(g):
    """Dense 0/1 matrix of a kremoval Graph (rows are int bitsets)."""
    import numpy as np
    nbytes = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in g.rows), np.uint8)
    return np.unpackbits(packed.reshape(g.n, nbytes), axis=1, bitorder="little")[:, :g.n].astype(bool)


def bytes_per_clique() -> float:
    """tracemalloc bytes per clique of CliqueIndex.from_cliques on K_26, k=4."""
    from kremoval.graph import Graph, enumerate_k_cliques
    from kremoval.index import CliqueIndex
    g = Graph.new_complete(26)
    cliques = enumerate_k_cliques(g, 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idx = CliqueIndex.from_cliques(g, 4, cliques)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / len(idx)


# Every PROBE_EVERY_S seconds of wall time the clock times probe(); a probe
# takes PROBE_REF_S on the reference machine in README.md when no other
# tenant slows it.  Scaled times are seconds of a machine that runs probe()
# in PROBE_REF_S.
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.0003
_PROBE_ROWS = tuple(((1 << 160) - 1) ^ (1 << i) ^ ((i * 0x9E3779B97F4A7C15) << 40)
                    for i in range(160))
_PROBE_HEAP = bytes(range(256)) * (1 << 15)     # 8 MiB, more than a core's share of cache
_PROBE_READS = 1000
# Odd, so that the reads cycle through the whole heap, and near 0.618 of
# its size, so that reads close in time land far apart.
_PROBE_STEP = 5_184_463


def probe(start: int) -> int:
    """A fixed small piece of pure-Python work of the kinds kremoval does:
    bitwise AND, bit_count and bit_length on 160-bit rows, and reads spread
    over an 8 MiB heap, most of which miss the cache.  The reads go on from
    heap position ``start``.  It makes no container objects, so it never
    sets off the garbage collector."""
    rows, heap = _PROBE_ROWS, _PROBE_HEAP
    mask = len(heap) - 1
    total = 0
    for i in range(0, 160, 3):
        row = rows[i]
        for j in range(0, 160, 8):
            common = row & rows[j]
            total += common.bit_count() + (common & -common).bit_length()
    at = start
    for _ in range(_PROBE_READS):
        at = (at + _PROBE_STEP) & mask
        total += heap[at]
    return total


class SpeedClock:
    """Seconds since the process started, scaled to the reference speed.

    This machine is shared, and its speed drifts by up to 1.8x within seconds
    (README.md), so a wall time mostly measures the other tenants.  From
    construction until stop(), a timer interrupts the program every
    PROBE_EVERY_S seconds and times probe().  Each stretch of wall time since
    the previous probe counts PROBE_REF_S / (probe time) times; the stretch
    from the process's start to the first probe is scaled by the first probe.
    The probes' own time counts in neither total.
    """

    def __init__(self) -> None:
        # (scaled seconds, wall seconds, perf_counter at the last probe's end,
        # scale factor of the last probe): replaced whole, so that now() never
        # sees half of an update made by the signal handler.
        self._state = (0.0, 0.0, time.perf_counter() - process_age_s(), 1.0)
        self._busy = False
        self._probes = 0
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _sample(self, *_) -> None:
        if self._busy:      # a probe stalled past the next alarm
            return
        self._busy = True
        scaled, wall, last, _ = self._state
        self._probes += 1
        t0 = time.perf_counter()
        probe(self._probes * _PROBE_READS * _PROBE_STEP & (len(_PROBE_HEAP) - 1))
        t1 = time.perf_counter()
        factor = PROBE_REF_S / (t1 - t0)
        self._state = (scaled + (t0 - last) * factor, wall + (t0 - last), time.perf_counter(), factor)
        self._busy = False

    def now(self) -> tuple[float, float]:
        """(scaled seconds, wall seconds) since the process started, probes left out."""
        scaled, wall, last, factor = self._state
        elapsed = time.perf_counter() - last
        return scaled + elapsed * factor, wall + elapsed

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_once(grid, trials, seed, params, clock: SpeedClock, tracer=None):
    """One ensemble; returns (report text, scaled seconds, wall seconds, observed trials)."""
    from kremoval.ensemble import report_to_json, run_ensemble
    from tracing import Observer, patched

    observer = Observer()
    with patched(observer.targets()):
        if tracer is None:
            scaled0, wall0 = clock.now()
            text = report_to_json(run_ensemble(grid, trials, seed, params=params, jobs=1))
        else:
            with patched(tracer.layer_targets()):
                scaled0, wall0 = clock.now()
                report = tracer.wrap("ensemble.run_ensemble", run_ensemble)(
                    grid, trials, seed, params=params, jobs=1)
                text = tracer.wrap("ensemble.report_to_json", report_to_json)(report)
        scaled1, wall1 = clock.now()
    return text, scaled1 - scaled0, wall1 - wall0, observer.trials


def check(wl: Workload, text: str, observed, trials: int) -> tuple[dict, int, list[str]]:
    from checks import FinalState, check_panel_means, check_slope, check_trials
    report = json.loads(text)
    finals = [[None] * trials for _ in wl.ns]
    for i, obs in enumerate(observed):
        if obs is not None and obs[0] is not None:
            g, panel, panel_r = obs
            finals[i // trials][i % trials] = FinalState(adjacency(g), panel, panel_r)
    failed, problems = check_trials(report, finals)
    if wl.k == 3:
        problems += check_slope(report)
    if wl.stop == "p_floor":
        problems += check_panel_means(report, finals)
    return report, failed, problems


def as_metrics(values: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def layer_metrics(tracer, report: dict, untraced_s: float, traced_s: float) -> dict:
    engine_sampling = engine_indexed = 0
    for cfg in report["configs"]:
        for s in cfg["trial_summaries"]:
            switch = s["switched_to_index_at"]
            sampling = s["steps"] if switch is None else switch
            engine_sampling += sampling
            engine_indexed += s["steps"] - sampling
    t, st, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    return as_metrics({
        "engine.self_s": (st["engine.run"], "s"),
        "engine.one_step_drop_s": (t["engine.one_step_drop"], "s"),
        "engine.one_step_drop_calls": (calls["engine.one_step_drop"], "count"),
        "engine.panel_s": (t["engine.panel_r_values"], "s"),
        "engine.panel_sets": (counts["engine.panel_sets"], "count"),
        "engine.sampling_steps": (engine_sampling, "count"),
        "engine.indexed_steps": (engine_indexed, "count"),
        "graph.enumerate_s": (t["graph.enumerate_k_cliques"], "s"),
        "graph.enumerated_cliques": (counts["graph.enumerated_cliques"], "count"),
        "graph.remove_clique_edges_s": (t["graph.remove_clique_edges"], "s"),
        "graph.remove_clique_edges_calls": (calls["graph.remove_clique_edges"], "count"),
        "index.build_s": (t["index.from_cliques"], "s"),
        "index.built_cliques": (counts["index.built_cliques"], "count"),
        "index.apply_removal_s": (st["index.apply_removal"], "s"),
        "index.apply_removal_calls": (calls["index.apply_removal"], "count"),
        "index.purged_cliques": (counts["index.purged_cliques"], "count"),
        "index.bytes_per_clique": (bytes_per_clique(), "B"),
        "ensemble.self_s": (st["ensemble.run_ensemble"], "s"),
        "ensemble.report_json_s": (t["ensemble.report_to_json"], "s"),
        "trajectory.envelopes_calls": (calls["trajectory.envelopes"], "count"),
        "trajectory.envelopes_s": (t["trajectory.envelopes"], "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    clock = SpeedClock()
    try:
        import_kremoval()
        sys.path.insert(0, str(HERE))
        from kremoval.engine import RunConfig
        from kremoval.trajectory import TrajectoryParams

        trials = wl.trials(args.seconds)
        grid = [RunConfig(n=n, k=wl.k, seed=0, stop=wl.stop, p_floor=wl.p_floor) for n in wl.ns]
        for cfg in grid:
            cfg.validate()
        # as `kremoval sweep --envelopes`: params for the first size of the grid
        params = TrajectoryParams(k=wl.k, n=wl.ns[0], p_floor=wl.p_floor) if wl.envelopes else None
        setup_s, setup_wall_s = clock.now()

        text, ensemble_s, ensemble_wall_s, observed = run_once(grid, trials, args.seed, params, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report, failed, problems = check(wl, text, observed, trials)
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            traced_text, traced_s, _, _ = run_once(grid, trials, args.seed, params, clock, tracer)
            if traced_text != text:
                problems.append("traced report_to_json bytes differ from the untraced run")
    finally:
        clock.stop()
    attempted = trials * len(wl.ns)
    steps = sum(s["steps"] for cfg in report["configs"] for s in cfg["trial_summaries"])

    if args.trace:
        metrics = layer_metrics(tracer, report, ensemble_s, traced_s)
        OUT.mkdir(exist_ok=True)
        spans = {name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                        "self_s": tracer.self_time[name]} for name in sorted(tracer.total)}
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "trials": trials,
                        "spans": spans, "counts": dict(tracer.counts)}, indent=2) + "\n")
    else:
        metrics = as_metrics({"setup_s": (setup_s, "s"), "ensemble_s": (ensemble_s, "s"),
                              "steps_per_s": (steps / ensemble_s, "steps/s"),
                              "peak_rss_mb": (peak_rss_mb, "MB")})

    print(f"workload {args.workload}: k={wl.k}, n={list(wl.ns)}, stop={wl.stop}, "
          f"{trials} trials per n, master seed {args.seed}")
    print(f"attempted {attempted} trials, failed {failed}, {steps} removal steps")
    print(f"unscaled wall time: set-up {setup_wall_s:.4g} s, ensemble {ensemble_wall_s:.4g} s")
    if args.trace:
        print(f"scaled ensemble time: untraced {ensemble_s:.4g} s, traced {traced_s:.4g} s")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
