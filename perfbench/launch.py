"""Run one rtopt CLI command in this process and record when its solve ran.

    python3 launch.py MODE MARKS_FILE CLI_ARG...

MODE is one of

  plain   run the command; the only instrumentation is one clock read where
          the solve call (``optimize_nominal``/``optimize_robust``, or the
          sampling inside ``precompute_tables``) begins and one where it
          returns;
  setup   stop the process (exit 0) where the solve call would begin, so
          the time up to there is one more set-up sample;
  traced  as plain, with every layer wrapped by tracer.install; the spans
          are written next to MARKS_FILE as ``<MARKS_FILE>.spans.json``.

Clock reads use time.perf_counter (CLOCK_MONOTONIC on Linux), which the
parent process shares, so it can subtract its own spawn time. The marks
file holds {"solve_start", "solve_end", "exit_code"}; the parent reads it
after the process has ended.
"""
from __future__ import annotations

import json
import os
import sys
import time

T_START = time.perf_counter()


def _write(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f)


def main(argv):
    mode, marks_path, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("plain", "setup", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")

    tracer = None
    if mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    from rtopt import cli, levelset, robust, topderiv

    marks = {"solve_start": None, "solve_end": None, "exit_code": None}

    def begin():
        if marks["solve_start"] is None:
            marks["solve_start"] = time.perf_counter()
            if mode == "setup":
                _write(marks_path, marks)
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(0)

    def solve_call(fn, starts_solve=True):
        def call(*args, **kwargs):
            if starts_solve:
                begin()
            out = fn(*args, **kwargs)
            marks["solve_end"] = time.perf_counter()
            return out
        return call

    def sampling_begins(fn):
        def call(*args, **kwargs):
            begin()
            return fn(*args, **kwargs)
        return call

    levelset.optimize_nominal = solve_call(levelset.optimize_nominal)
    robust.optimize_robust = solve_call(robust.optimize_robust)
    # precompute_tables builds its ExteriorProblem first (set-up), then
    # samples one table per direction; sampling is the solve
    topderiv.precompute_tables = solve_call(topderiv.precompute_tables,
                                            starts_solve=False)
    topderiv.sample_table = sampling_begins(topderiv.sample_table)

    try:
        code = cli.main(cli_args)
    finally:
        t_end = time.perf_counter()
        if tracer is not None:
            tracer.dump(marks_path + ".spans.json", T_START, t_end)
    marks["exit_code"] = code
    _write(marks_path, marks)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
