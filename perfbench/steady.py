#!/usr/bin/env python3
"""The benchmark's own steadiness and determinism checks.

Run from the repository root.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]

runs each workload --runs times (one seed per run, untraced) and prints,
for every end-to-end metric in BENCHMARK.json, the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and the
metric's bound. A spread must stay under its bound (setup_s excepted);
the bounds were chosen so that it stays under a third of it.

    python3 perfbench/steady.py --counts [--workloads a,b]

runs each workload traced at 1 thread and at nproc threads and checks
that the deterministic per-layer counts are identical.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# Per-layer metrics that are pure functions of the inputs.
COUNT_METRICS = (
    "experiments.phases", "experiments.tdiff_phases", "trace.background_flows",
    "netsim.events", "netsim.heap_depth_peak", "netsim.delivered_packets",
    "netsim.drops", "netsim.fluid_steps", "transport.tcp_flows",
    "transport.retx_segments", "transport.rto_timeouts", "obs.report_bytes",
)


def run(bench, workload, seed, trace, threads=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    if threads:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady.py: {' '.join(cmd)} failed ({proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady.py: {workload} seed {seed} reported failures")
    return {k: v["value"] for k, v in result["metrics"].items()}


def steadiness(bench, workloads, runs, first_seed):
    ok = True
    for workload in workloads:
        samples = [run(bench, workload, first_seed + i, 0) for i in range(runs)]
        print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [s[name] for s in samples]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO WIDE")
            if name != "setup_s" and spread > metric["bound"]:
                ok = False
            print(f"  {name:<12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {metric['bound']:6.3f}  {verdict}")
    return ok


def counts(bench, workloads):
    ok = True
    for workload in workloads:
        one = run(bench, workload, 0, 1, threads=1)
        many = run(bench, workload, 0, 1, threads=os.cpu_count() or 1)
        for name in COUNT_METRICS:
            same = one[name] == many[name]
            ok &= same
            print(f"  {workload:<17} {name:<26} {one[name]:>14.10g} "
                  f"{many[name]:>14.10g}  {'same' if same else 'DIFFERENT'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--counts", action="store_true",
                        help="check count determinism across thread counts")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    if args.counts:
        ok = counts(bench, workloads)
    else:
        ok = steadiness(bench, workloads, args.runs, args.first_seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
