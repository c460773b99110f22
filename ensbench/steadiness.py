"""Run-to-run steadiness of the end-to-end metrics.

    python3 ensbench/steadiness.py [--first-seed 1]

Runs ``run.py --trace 0`` ten times, once per seed from ``--first-seed`` on,
one process after another, for every workload in BENCHMARK.json, with that
file's ``run_seconds``.  For every end-to-end metric it prints the median,
the quartiles (Python's ``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound, and the same for the
unscaled wall time of the ensemble, and writes everything to ensbench/out/.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    seeds = range(args.first_seed, args.first_seed + RUNS)

    table = {}
    for name in (w["name"] for w in bench["workloads"]):
        runs, walls = [], []
        for seed in seeds:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            walls.append(float(re.search(r"ensemble ([0-9.e+-]+) s", proc.stdout)[1]))
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        series = {m["name"]: ([r["metrics"][m["name"]]["value"] for r in runs], m["unit"], m["bound"])
                  for m in bench["end_to_end"]}
        series["unscaled_ensemble_s"] = (walls, "s", None)
        rows = {}
        for metric, (values, unit, bound) in series.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                            "bound": bound, "unit": unit, "values": values}
        table[name] = {"seeds": list(seeds), "rows": rows,
                       "all_correct": all(r["correct"] for r in runs),
                       "failed_share": [r["failed"] / r["attempted"] for r in runs]}

    print(f"\n{'workload':12s} {'metric':19s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}  within bound/3")
    for name, entry in table.items():
        for metric, row in entry["rows"].items():
            bound = row["bound"]
            print(f"{name:12s} {metric:19s} {row['median']:10.4f} {row['q1']:10.4f} "
                  f"{row['q3']:10.4f} {row['spread']:7.4f} "
                  + (f"{bound:6.2f}  {'yes' if row['spread'] < bound / 3 else 'NO'}"
                     if bound is not None else "     -  (unscaled, no bound)"))
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"steadiness-seed{args.first_seed}.json"
    out.write_text(json.dumps(table, indent=2) + "\n")
    print(f"\nwritten to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
