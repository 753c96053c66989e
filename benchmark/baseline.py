#!/usr/bin/env python3
"""Measure a set of benchmark runs and record it in results/baseline.json.

Calls `encore-bench run --seed N` once per seed (seeds SEED0 .. SEED0+RUNS-1;
each call runs every workload, so drift on the host spreads over all of
them) and reads the results file it writes, out/run-seed<N>.json.  It then
stores, per workload and end-to-end metric, the median, the quartiles and
the spread (quartile distance over the median) as Python's
statistics.quantiles(values, n=4) gives them.  With --trace it also stores
the per-layer metrics of one `encore-bench trace` run.  Run it from the
repository root:

    python3 benchmark/baseline.py --set first --runs 10
    python3 benchmark/baseline.py --set second --runs 10 --trace
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "encore-bench", "--"]


def bench(mode, seed, seconds):
    """Run `encore-bench MODE` and return its results file's workloads."""
    started = time.time()
    proc = subprocess.run(COMMAND + [mode, "--seed", str(seed), "--seconds", str(seconds)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    with open(os.path.join(HERE, "out", f"{mode}-seed{seed}.json")) as f:
        workloads = json.load(f)["workloads"]
    print(f"{mode} seed {seed}: {time.time() - started:.1f} s wall", flush=True)
    return workloads


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--set", required=True, help="name of this set of runs")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also record one traced run")
    parser.add_argument("--out", default=os.path.join(HERE, "results", "baseline.json"))
    opts = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = [bench("run", seed, opts.seconds)
            for seed in range(opts.seed0, opts.seed0 + opts.runs)]

    entry = {"started": started, "runs": opts.runs,
             "seeds": [opts.seed0, opts.seed0 + opts.runs - 1],
             "seconds": opts.seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run[workload] for run in runs]
        metrics = {}
        for name, bound in bounds.items():
            metric = summarize([r["metrics"][name]["value"] for r in results])
            metric["unit"] = results[0]["metrics"][name]["unit"]
            metric["bound"] = bound
            metrics[name] = metric
            print(f"{workload:10} {name:18} median {metric['median']:12.4f} "
                  f"spread {metric['spread']:.4f} (bound {bound})")
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
    if opts.trace:
        traced = bench("trace", opts.seed0, opts.seconds)
        entry["trace"] = {w: r["metrics"] for w, r in traced.items()}

    record = {}
    if os.path.exists(opts.out):
        with open(opts.out) as f:
            record = json.load(f)
    record["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                      "processor": platform.processor() or "unknown"}
    record.setdefault("sets", {})[opts.set] = entry
    os.makedirs(os.path.dirname(opts.out), exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {opts.out}")


if __name__ == "__main__":
    main()
