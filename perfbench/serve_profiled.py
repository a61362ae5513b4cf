"""Run ``repro-rpc serve`` with a profiler the parent switches by signal.

Usage: ``python perfbench/serve_profiled.py OUT.json -- <serve args>``.
SIGUSR1 starts cProfile; SIGUSR2 stops it and atomically writes the
per-layer self times, call counts and the profiled wall time to
``OUT.json``. Only the window between the two signals is profiled, so
prewarm and idle start-up stay out of the serving profile.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import signal
import sys
import time
from pathlib import Path


def main(argv) -> int:
    out_path = Path(argv[0])
    serve_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from common import layer_table, require_source

    require_source()
    from repro.cli import main as cli_main

    profiler = cProfile.Profile()
    window = {"start_s": 0.0}

    def start(_signum, _frame) -> None:
        window["start_s"] = time.perf_counter()
        profiler.enable()

    def stop(_signum, _frame) -> None:
        profiler.disable()
        wall_s = time.perf_counter() - window["start_s"]
        self_s, calls = layer_table(pstats.Stats(profiler))
        tmp = out_path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"self_s": self_s, "calls": calls,
                                   "wall_s": wall_s}))
        os.replace(tmp, out_path)

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    return cli_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
