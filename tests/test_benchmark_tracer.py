"""The benchmark's tracer still finds every function it wraps in rtopt."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_sources():
    # perfbench/tracer.py patches named functions of every layer; a rename
    # or removal in src/ breaks the traced benchmark run
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "from tracer import Tracer, install\n"
            "install(Tracer())\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
