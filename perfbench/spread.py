#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end
metric's median and quartile spread (the distance between the first
and third quartile as a share of the median), next to a third of the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload fleet-units --seeds 1-10 --seconds 25
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        start = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        took = time.monotonic() - start
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: outputs wrong")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({took:.0f}s): " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f"{bound / 3:.3f}" if bound else "-"
        print(f"{name:24s} median={med:.6g} spread={spread:.3f} third-of-bound={limit}")


if __name__ == "__main__":
    main()
