"""Run the benchmark over several seeds and write a ledger of the results.

    python3 perfbench/ledger.py --out perfbench/baseline.json [--seeds 1-10]

Each workload runs once per seed with tracing off (run_seconds from
BENCHMARK.json), round-robin over the workloads seed by seed, so that a slow
phase of the host spreads over all of them; then once with tracing on at
TRACE_SEED. The ledger keeps every run's metrics, and per end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and their distance as
a share of the median, the same spread the bounds in BENCHMARK.json are
checked against.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SEED = 1              # the default seed of every workload


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{r.returncode}:\n{r.stderr}")
    result = json.loads(r.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench_work", "results",
                           f"{workload}-seed{seed}-trace{trace}.json")) as f:
        full = json.load(f)
    print(f"{workload} seed {seed} trace {trace}: correct "
          f"{result['correct']}, attempted {result['attempted']}, failed "
          f"{result['failed']}", flush=True)
    if trace == 0:
        for k in sorted(full["metrics"]):
            print(f"    {k:18s} {full['metrics'][k]:.6g} {full['units'][k]}")
    return result, full


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = p.parse_args()

    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ledger = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(run_once(name, seed, spec["run_seconds"], 0))
    for name in names:
        traced, traced_full = run_once(name, TRACE_SEED,
                                       spec["run_seconds"], 1)
        ledger["environment"] = traced_full["environment"]
        gated = runs[name][0][0]["metrics"]
        ledger["workloads"][name] = {
            "correct": (all(r["correct"] for r, _ in runs[name])
                        and traced["correct"]),
            "end_to_end": {
                k: dict(summarize([r["metrics"][k]["value"]
                                   for r, _ in runs[name]]),
                        unit=gated[k]["unit"], bound=bound[k])
                for k in gated},
            "runs": [{"seed": s, "metrics": full["metrics"]}
                     for s, (_, full) in zip(args.seeds, runs[name])],
            "traced": {"seed": TRACE_SEED,
                       "metrics": traced_full["metrics"]},
        }
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    for name, w in ledger["workloads"].items():
        for k, s in w["end_to_end"].items():
            spread = s.get("iqr_over_median")
            print(f"{name:18s} {k:12s} median {s['median']:.4g} "
                  f"iqr/median {'-' if spread is None else f'{spread:.3f}'} "
                  f"(bound {s['bound']})")


if __name__ == "__main__":
    main()
