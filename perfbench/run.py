"""Benchmark of the rtopt command line on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every measured run is a fresh process that goes through ``rtopt.cli.main``
exactly as the ``rtopt`` console command does, on a config generated from
the seed (see workloads.py). Generated configs, cached input tables and run
artifacts live under ``.perfbench_work/`` in the checkout.

``--trace 0`` repeats the workload's command on the same input until S
seconds have passed, adds set-up-only processes (stopped where the solve
begins) until there are SETUP_SAMPLES set-up samples, and checks every
run's outputs. ``setup_s`` is the median of the set-up samples; ``wall_s``,
``solve_s`` and ``eval_s`` are the median repeat. The work of every repeat
is the same (the check below enforces identical outputs), so the repeats
differ by noise from the machine.

Every time is taken at a reference speed of the CPU. On a shared host the
same work runs up to about 50 % slower in phases of a second to minutes
(README.md has the numbers). The benchmark pins itself and its processes to
one CPU, where a probe thread (probe.py) times a small fixed kernel every
50 ms; an interval's clock reading times the probe's speed over the
interval is the reported time. The clock readings are reported as
``<metric>.raw``, beside ``<metric>.fastest_raw``.

``--trace 1`` runs the same input in pairs of a plain run and one with
every layer wrapped (tracer.py), for S seconds and at least TRACE_PAIRS
pairs; it reports the per-layer metrics of the last traced run and the
tracing overhead as the median over pairs of traced minus plain wall time
(at the reference speed). Host noise can exceed the overhead, so it can
read below zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
BENCHMARK.json. The lines before it report every metric, including the ones
BENCHMARK.json does not gate, with units and the run's environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCH = os.path.join(HERE, "launch.py")

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 11
TRACE_PAIRS = 3             # least plain/traced pairs of a --trace 1 run
CHILD_TIMEOUT_S = 150.0
OK_EXIT_CODES = (0, 4)      # 4: the descent stalled, artifacts written

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "solve_s": "s", "eval_s": "s",
             "sample_s": "s", "peak_rss_mb": "MB", "design_torque": "N.m/m",
             "final_theta_deg": "deg", "error_rate": "ratio"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def median(values):
    return float(statistics.median(values))


# --- environment --------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("RTOPT_OUTPUT_ROOT", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def environment(seed):
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    try:
        import threadpoolctl  # noqa: F401
        has_tpc = True
    except ImportError:
        has_tpc = False
    return {"git_sha": git_sha or "unknown (not a git checkout)",
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threadpoolctl": has_tpc,
            "threads": {var: str(THREADS) for var in THREAD_VARS}
            | {"rtopt --threads": THREADS},
            "processes_at_once": 1,
            "seed": seed}


# --- child processes ------------------------------------------------------------

def spawn(argv, cwd, log_path):
    """Run argv to completion; returns (exit code, t_spawn, t_exit, rss MB)."""
    with open(log_path, "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, t_exit, usage.ru_maxrss / 1024.0


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rtopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + f.read())
    return h.hexdigest()


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, probe):
        self.w = workload
        self.seed = seed
        self.probe = probe
        self.base = os.path.join(WORK, "runs", workload.name)
        self.attempted = 0
        self.failures = []
        self._checker = None

    # inputs ---------------------------------------------------------------

    def tables_dir(self):
        """Sensitivity tables of this workload, sampled once per checkout."""
        from workloads import TABLE_FILES

        text = self.w.config.format(seed=0, outdir=".")
        key = hashlib.sha256((text + source_digest()).encode()).hexdigest()
        cache = os.path.join(WORK, "tables", f"{self.w.name}-{key[:16]}")
        if all(os.path.exists(os.path.join(cache, "tables", f))
               for f in TABLE_FILES):
            return os.path.join(cache, "tables")
        tmp = cache + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        with open(os.path.join(tmp, "tables.cfg"), "w") as f:
            f.write(text)
        code, *_ = spawn([sys.executable, "-m", "rtopt.cli", "--threads",
                          str(THREADS), "precompute-td", "tables.cfg"],
                         tmp, os.path.join(tmp, "log.txt"))
        if code != 0:
            fail(f"sampling the input tables failed (exit {code}); "
                 f"see {tmp}/log.txt")
        shutil.rmtree(cache, ignore_errors=True)
        os.rename(tmp, cache)
        return os.path.join(cache, "tables")

    def prepare(self, tag):
        """Fresh run directory with the generated config (and tables)."""
        d = os.path.join(self.base, f"{self.seed}-{tag}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        self.w.write_config(os.path.join(d, "run.cfg"), self.seed, "out")
        if self.w.needs_tables:
            shutil.copytree(self.tables, os.path.join(d, "out", "tables"))
        return d

    # processes ------------------------------------------------------------

    def launch(self, tag, mode):
        d = self.prepare(tag)
        marks_path = os.path.join(d, "marks.json")
        argv = [sys.executable, LAUNCH, mode, marks_path, "--threads",
                str(THREADS)] + self.w.cli_args("run.cfg")
        code, t_spawn, t_exit, rss = spawn(argv, d, os.path.join(d, "log.txt"))
        self.attempted += 1
        rec = {"tag": tag, "mode": mode, "dir": d, "exit_code": code,
               "t_spawn": t_spawn, "peak_rss_mb": rss, "errors": []}
        self.interval(rec, "wall_s", t_spawn, t_exit)
        marks = None
        if os.path.exists(marks_path):
            with open(marks_path) as f:
                marks = json.load(f)
        if marks is None or marks["solve_start"] is None:
            rec["errors"].append("the solve call never began")
        else:
            self.interval(rec, "setup_s", t_spawn, marks["solve_start"])
        if mode == "setup":
            if code != 0:
                rec["errors"].append(f"exit code {code}")
        else:
            try:
                self._finish(rec, marks, code)
            except Exception as exc:     # malformed artifacts
                rec["errors"].append(f"reading the outputs raised {exc!r}")
        if rec["errors"]:
            self.failures.append(rec)
        return rec

    def interval(self, rec, key, t0, t1):
        """rec[key] is t1 - t0 at the reference speed of the CPU (probe.py);
        the clock reading is kept as key.raw, the speed as key.speed."""
        speed = self.probe.speed(t0, t1)
        rec[key + ".raw"] = t1 - t0
        rec[key + ".speed"] = speed
        rec[key] = (t1 - t0) * speed

    def _finish(self, rec, marks, code):
        from workloads import missing_artifacts, read_outcome, table_samples

        if code not in OK_EXIT_CODES:
            rec["errors"].append(f"exit code {code}")
            return
        out = os.path.join(rec["dir"], "out")
        missing = missing_artifacts(self.w, out)
        if missing:
            rec["errors"].append(f"missing artifacts {missing}")
            return
        if marks is None or marks["solve_end"] is None:
            rec["errors"].append("the solve call never returned")
            return
        self.interval(rec, "solve_s", marks["solve_start"], marks["solve_end"])
        outcome = read_outcome(self.w, out)
        if outcome is None:
            rec["units"] = table_samples(self.checker.cfg)
        else:
            rec.update(outcome)
            rec["units"] = outcome["evaluations"]
            if (code == 4) != (outcome["status"] == "stalled"):
                rec["errors"].append(
                    f"exit code {code} with status {outcome['status']}")
        rec["eval_s"] = rec["solve_s"] / rec["units"]
        rec["eval_s.raw"] = rec["solve_s.raw"] / rec["units"]

    @property
    def checker(self):
        if self._checker is None:
            from workloads import Checker

            d = self.prepare("check")
            self._checker = Checker(self.w, os.path.join(d, "run.cfg"))
        return self._checker

    def check(self, rec, first):
        """Output checks, outside every timed interval.

        first is an earlier run of the same input: repeats must agree
        exactly, or the repeats would not time the same work.
        """
        if rec["errors"]:
            return
        try:
            errors = self.checker.check(os.path.join(rec["dir"], "out"), rec)
        except Exception as exc:         # the package refused the outputs
            errors = [f"output check raised {exc!r}"]
        for key in ("final_objective", "worst_parameters", "evaluations"):
            if key in rec and rec[key] != first.get(key):
                errors.append(f"repeat differs from the first run in {key}: "
                              f"{rec[key]!r} != {first.get(key)!r}")
        if errors:
            rec["errors"].extend(errors)
            self.failures.append(rec)

    # runs -------------------------------------------------------------------

    def start(self):
        self.tables = self.tables_dir() if self.w.needs_tables else None
        self.launch("warmup", "setup")      # page cache, bytecode

    def timed(self, seconds):
        runs = []
        t0 = time.perf_counter()
        while True:
            runs.append(self.launch(f"run{len(runs)}", "plain"))
            if time.perf_counter() - t0 >= seconds:
                break
        setups = [r for r in runs if "setup_s" in r]
        for k in range(SETUP_SAMPLES - len(setups)):
            rec = self.launch(f"setup{k}", "setup")
            if rec["errors"]:
                break               # set-up itself fails; reported below
            setups.append(rec)
        for rec in runs:
            self.check(rec, runs[0])
        return runs, setups

    def traced(self, seconds):
        """Pairs of a plain and a traced run of the same input, each pair in
        the other order than the last, for at least TRACE_PAIRS pairs and
        the given seconds."""
        plain, traced = [], []
        t0 = time.perf_counter()
        while (len(plain) < TRACE_PAIRS
               or time.perf_counter() - t0 < seconds):
            i = len(plain)
            order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
            pair = {mode: self.launch(f"{mode}{i}", mode) for mode in order}
            plain.append(pair["plain"])
            traced.append(pair["traced"])
        for rec in plain + traced:
            self.check(rec, plain[0])
        return plain, traced

    def cleanup(self):
        shutil.rmtree(self.base, ignore_errors=True)


# --- metrics --------------------------------------------------------------------

def end_to_end(runs, setups, bench):
    good = [r for r in runs if not r["errors"]]
    if not good or len(setups) < SETUP_SAMPLES:
        return None
    m = {"setup_s": median([r["setup_s"] for r in setups]),
         "setup_s.raw": median([r["setup_s.raw"] for r in setups]),
         "peak_rss_mb": median([r["peak_rss_mb"] for r in good])}
    for key in ("wall_s", "solve_s", "eval_s"):
        m[key] = median([r[key] for r in good])
        m[key + ".raw"] = median([r[key + ".raw"] for r in good])
        m[key + ".fastest_raw"] = min(r[key + ".raw"] for r in good)
    if bench.w.command[0] == "precompute-td":
        m["sample_s"] = m["eval_s"]
    else:
        m["design_torque"] = good[0]["design_torque"]
        m["final_theta_deg"] = good[0]["final_theta_deg"]
    m["error_rate"] = len(bench.failures) / bench.attempted
    return m


def per_layer(plain, traced):
    """Layer metrics of the last traced run, its times at the reference
    CPU speed of the whole run; the tracing overhead is the median over
    pairs of traced minus plain wall time."""
    from tracer import layer_metrics

    if any(r["errors"] for r in plain + traced):
        return None
    last = traced[-1]
    with open(os.path.join(last["dir"], "marks.json.spans.json")) as f:
        doc = json.load(f)
    speed = last["wall_s.speed"]      # layer times at the reference speed
    m = {k: v * speed if k.endswith("_s") else v
         for k, v in layer_metrics(doc, last["units"]).items()}
    m["levelset.design_torque"] = last.get("design_torque", 0.0)
    m["levelset.final_theta_deg"] = last.get("final_theta_deg", 0.0)
    m["trace.plain_wall_s"] = median([r["wall_s"] for r in plain])
    m["trace.traced_wall_s"] = median([r["wall_s"] for r in traced])
    m["trace.overhead_s"] = median([t["wall_s"] - p["wall_s"]
                                    for p, t in zip(plain, traced)])
    return m


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {e["name"]: e["unit"] for e in spec[section]}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or "per_" in name:
        return "ratio"
    return {"levelset.design_torque": "N.m/m",
            "levelset.final_theta_deg": "deg"}.get(name, "count")


# --- entry point -----------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args, WORKLOADS[args.workload]


def main(argv=None):
    args, workload = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "rtopt", "cli.py")):
        fail(f"no rtopt sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, SRC)
    import rtopt

    if not os.path.abspath(rtopt.__file__).startswith(SRC + os.sep):
        fail(f"imported rtopt from {rtopt.__file__}, not from {SRC}")

    from probe import SpeedProbe, pin

    cpu = pin()
    probe = SpeedProbe().start()
    try:
        bench = Bench(workload, args.seed, probe)
        bench.start()
        if args.trace:
            plain, traced = bench.traced(args.seconds)
            metrics = per_layer(plain, traced)
            gated = declared("per_layer")
            units = {k: layer_unit(k) for k in metrics or {}}
            detail = {"plain": plain, "traced": traced}
        else:
            runs, setups = bench.timed(args.seconds)
            metrics = end_to_end(runs, setups, bench)
            gated = declared("end_to_end")
            units = {k: E2E_UNITS[k.split(".")[0]] for k in metrics or {}}
            detail = {"runs": runs,
                      "setup_samples": [r["tag"] for r in setups]}
    finally:
        probe.stop()
    detail["probe_samples"] = probe.samples
    if metrics is None:
        for rec in bench.failures:
            print(f"failed: {rec['tag']}: {rec['errors']}", file=sys.stderr)
        fail("no run finished cleanly, or set-up failed; nothing to report")

    env = environment(args.seed) | {"cpu": cpu}
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"processes {bench.attempted}  failed {len(bench.failures)}")
    if not args.trace:
        print(f"  timed runs {len(detail['runs'])}  set-up samples "
              f"{len(detail['setup_samples'])}  (setup_s: median of set-up "
              f"samples; wall_s, solve_s, eval_s: median repeat; all at the "
              f"reference CPU speed, .raw: clock readings)")
    for name in sorted(metrics):
        mark = "*" if name in gated else " "
        print(f"  {mark} {name:40s} {metrics[name]:14.6g} {units[name]}")
    for rec in bench.failures:
        print(f"  FAILED {rec['tag']}: "
              f"{'; '.join(rec['errors'])}")
    print("  environment " + json.dumps(env, sort_keys=True))
    print("  (* = reported to BENCHMARK.json)")

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump({"environment": env, "metrics": metrics, "units": units,
                   "detail": detail}, f, indent=1)
    bench.cleanup()

    missing = [k for k in gated if k not in metrics]
    if missing:
        fail(f"metrics {missing} are declared but were not measured")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": metrics[k], "unit": gated[k]}
                    for k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
