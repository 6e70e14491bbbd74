#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload, runs `BENCHMARK.json`'s command once per seed and
prints, per metric, the median of the values and the distance between
their first and third quartile as a share of that median (the spread),
next to the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --workloads serve_zipf --seeds 1 2 3 4 5

`--trace 1` reports the per-layer metrics instead (they have no bound).
The diagnostics each run records in `perfbench/out/` (such as
`query_p90_ms` and `host.steal_frac`) are reported too, without a bound.
A row is flagged when its spread passes a third of its bound, and
again when it passes the bound itself.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", args.trace]
            started = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {lines[-1]}")
            print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            recorded = f"perfbench/out/{workload}-seed{seed}-trace{args.trace}.json"
            for name, m in json.load(open(recorded))["diagnostics"].items():
                if m["value"] is not None:
                    values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                if spread > bound:
                    flag = "  OVER BOUND"
                elif spread > bound / 3:
                    flag = "  over bound/3"
            print(f"{workload:14s} {name:26s} median {med:12.5g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
    print(f"largest spread/bound over every bounded metric: {worst:.3f}")


if __name__ == "__main__":
    main()
