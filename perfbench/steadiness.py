#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs every chosen workload once per seed, untraced, from the repository
root, and prints for each metric the median, the first and third quartiles
(statistics.quantiles with n=4) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json. A run that is not
correct or fails ops aborts the measurement.

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads serve-miss --seeds 11-15 \\
        --markdown perfbench/STEADINESS.md
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}\n{proc.stderr}")
    return res


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--markdown", help="also write the table to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    lines = [
        f"Seeds {args.seeds}, {args.seconds} s per run, one untraced run per seed.",
        "",
        "| workload | metric | median | q1 | q3 | (q3-q1)/median | bound |",
        "|---|---|---|---|---|---|---|",
    ]
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            res = run_once(bench["command"], wl, seed, args.seconds)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), file=sys.stderr, flush=True)
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            lines.append(f"| {wl} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                         f"| {spread:.4f} | {bounds[name]} |")
    lines += ["", f"Largest spread as a share of its bound (setup_s aside): {worst:.3f}"]
    text = "\n".join(lines) + "\n"
    print(text)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
