#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload dashboard-mixed --seeds 1-10 [--out FILE]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median,
next to the bound BENCHMARK.json allows. With --out, every run's full
output is appended to FILE.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(f"$ {' '.join(cmd)}\n{p.stdout}")
                if p.returncode:
                    f.write(f"exit {p.returncode}: {p.stderr}\n")
        if p.returncode:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  OK" if spread <= bound / 3 else ("  <bound" if spread <= bound else "  OVER"))
        print(f"{name:34s} median {med:12.6g}  iqr/median {spread:7.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
