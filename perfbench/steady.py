"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--seeds 10]

With `--seeds 1` it is the one command that runs every workload once and
prints each end-to-end metric with its unit and the attempted and failed
counts.

Runs `run.py` once per seed (1..N) on each workload in BENCHMARK.json, at
its `run_seconds`, then prints, per workload and end-to-end metric, the
median and quartiles of the N values and their spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.  A spread under a third of
the bound is steady; one above the bound makes the metric useless as a
gate, and the command then exits 1.  The share of failed operations must
be the same in every run.  The last line is the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: incorrect run\n{proc.stderr}", file=sys.stderr)
                return 1
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted={result['attempted']} failed={result['failed']}  "
                  + "  ".join(f"{n}={m['value']:.4f} {m['unit']}" for n, m in result["metrics"].items()),
                  flush=True)
        rows = {}
        for name, vals in values.items() if args.seeds > 1 else ():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            verdict = ("steady" if spread < bounds[name] / 3
                       else "within bound" if spread <= bounds[name] else "TOO WIDE")
            steady &= spread <= bounds[name]
            print(f"  {workload:18} {name:12} median {med:9.4f}  q1 {q1:9.4f}  q3 {q3:9.4f}"
                  f"  spread {spread:6.3f}  bound {bounds[name]:.2f}  {verdict}")
        failed_share_same = len(shares) == 1
        steady &= failed_share_same
        table[workload] = {"metrics": rows, "failed_share_same": failed_share_same}
    print(json.dumps({"seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": table}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
