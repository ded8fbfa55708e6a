"""Run one fixed set of rtopt commands at a git revision and at the working
tree, and compare every file they write.

    python tools/compare_outputs.py REV

The set:

- configs/toy.cfg, yoke.cfg and audit3k.cfg: precompute-td, optimize in
  both modes, audit of each kind on the nominal final design, and render of
  that design;
- the three configs of perfbench/workloads.py at seeds 1 and 101, each
  preceded by precompute-td on the same config where the workload reads
  tables. workloads.py is imported read-only from the working tree, so both
  sides run the same configs.

REV's committed files are extracted with `git archive` into a temporary
directory, so the repository's own metadata is never touched. Each side runs
its own `src/` and `configs/` with RTOPT_OUTPUT_ROOT set to its own output
directory, one thread, and no bytecode written. The `wall_seconds` column of
every trace.csv is dropped before comparing.

Prints each command's exit codes (REV, working tree), then one line per file:
`same`, or the largest relative difference of its numbers. Exits 1 when any
exit code or file differs, or a file is missing on one side, and then keeps
the temporary directory (both sides' outputs and command logs) for a look.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import importlib.util
import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("toy", "yoke", "audit3k")
MODES = ("nominal", "robust")
AUDITS = ("sweep", "fdcheck", "tdcheck")
SEEDS = (1, 101)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def load_workloads():
    """perfbench/workloads.py as a module (main writes no bytecode)."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_compared_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(workloads):
    """(label, what, argv) of every run, in order. argv holds {tree} and
    {out}, each side's checkout and output root; the workload configs are
    written to {tree}/compared by `write_workload_configs`."""
    out = []
    for name in CONFIGS:
        cfg = os.path.join("{tree}", "configs", f"{name}.cfg")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read(os.path.join(ROOT, "configs", f"{name}.cfg"))
        design = os.path.join("{out}", parser.get("output", "directory"),
                              "nominal", "final.rtols")
        out += [(name, "precompute-td", ["precompute-td", cfg])]
        out += [(name, f"optimize --mode {mode}",
                 ["optimize", cfg, "--mode", mode]) for mode in MODES]
        out += [(name, f"audit --kind {kind}",
                 ["audit", cfg, "--kind", kind, "--design", design])
                for kind in AUDITS]
        out += [(name, "render", ["render", cfg, "--design", design])]
    for w in workloads.WORKLOADS.values():
        for seed in SEEDS:
            label = f"{w.name}-s{seed}"
            cfg = os.path.join("{tree}", "compared", f"{label}.cfg")
            if w.needs_tables:
                out.append((label, "precompute-td", ["precompute-td", cfg]))
            out.append((label, " ".join(w.command), w.cli_args(cfg)))
    return out


def write_workload_configs(tree, workloads):
    os.makedirs(os.path.join(tree, "compared"))
    for w in workloads.WORKLOADS.values():
        for seed in SEEDS:
            label = f"{w.name}-s{seed}"
            w.write_config(os.path.join(tree, "compared", f"{label}.cfg"), seed,
                           os.path.join("runs", label))


def run_side(tree, outroot, runs):
    """Exit code of every run at tree, in order; the log is outroot.log."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTOPT_")}
    env.update(PYTHONPATH=os.path.join(tree, "src"), RTOPT_OUTPUT_ROOT=outroot,
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    codes = []
    with open(outroot + ".log", "w") as log:
        for label, _, argv in runs:
            argv = [w.replace("{tree}", tree).replace("{out}", outroot)
                    for w in argv]
            log.write(f"== {label}: rtopt {' '.join(argv)}\n")
            log.flush()
            codes.append(subprocess.call(
                [sys.executable, "-m", "rtopt.cli"] + argv, cwd=tree, env=env,
                stdout=log, stderr=subprocess.STDOUT))
    return codes


def comparable(path):
    """File bytes, with trace.csv's wall_seconds column dropped."""
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) != "trace.csv":
        return data
    lines = data.decode().split("\n")
    col = lines[0].split(",").index("wall_seconds")
    return "\n".join(",".join(w for i, w in enumerate(line.split(","))
                              if i != col) if line else line
                     for line in lines).encode()


def difference(a, b):
    """'same', the largest relative difference of the numbers, or why the
    files cannot be compared number by number."""
    if a == b:
        return "same"
    try:
        ta, tb = a.decode(), b.decode()
    except UnicodeDecodeError:
        return "differs (not text)"
    if NUMBER.split(ta) != NUMBER.split(tb):
        return "differs (not only in numbers)"
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(ta)), map(float, NUMBER.findall(tb))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f"max relative difference {worst:.3e}"


def files_under(root):
    found = set()
    for base, _, names in os.walk(root):
        found.update(os.path.relpath(os.path.join(base, n), root) for n in names)
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)

    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True)
    if resolved.returncode:
        print(f"unknown revision {args.rev!r}", file=sys.stderr)
        return 2
    rev = resolved.stdout.strip()
    sys.dont_write_bytecode = True          # nothing is written under perfbench/
    workloads = load_workloads()
    work = tempfile.mkdtemp(prefix="compare_outputs_")
    failed = True
    try:
        old_tree = os.path.join(work, "rev")
        archive = subprocess.run(["git", "archive", "--format=tar", rev],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(old_tree, filter="data")
        new_tree = os.path.join(work, "tree")
        os.makedirs(new_tree)
        for name in ("src", "configs"):
            os.symlink(os.path.join(ROOT, name), os.path.join(new_tree, name))
        for tree in (old_tree, new_tree):
            write_workload_configs(tree, workloads)

        runs = commands(workloads)
        sides = [(old_tree, os.path.join(work, "out-rev")),
                 (new_tree, os.path.join(work, "out-tree"))]
        with concurrent.futures.ThreadPoolExecutor(len(sides)) as pool:
            codes = list(pool.map(lambda side: run_side(*side, runs), sides))

        failed = False
        print(f"exit codes at {rev[:12]} and the working tree:")
        for (label, what, _), old, new in zip(runs, *codes):
            failed |= old != new
            print(f"  {old} {new}{'' if old == new else ' DIFFER'}  "
                  f"{label}: {what}")
        old_out, new_out = (out for _, out in sides)
        paths = files_under(old_out) | files_under(new_out)
        print(f"{len(paths)} files:")
        for rel in sorted(paths):
            missing = [side for side, out in (("REV", old_out),
                                              ("working tree", new_out))
                       if not os.path.exists(os.path.join(out, rel))]
            if missing:
                verdict = f"missing at {missing[0]}"
            else:
                verdict = difference(*(comparable(os.path.join(out, rel))
                                       for out in (old_out, new_out)))
            failed |= verdict != "same"
            print(f"  {verdict}  {rel}")
        print("all files and exit codes identical" if not failed
              else "outputs differ")
        return 1 if failed else 0
    finally:
        if failed:
            print(f"outputs and logs kept in {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
