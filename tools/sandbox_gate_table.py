"""Measure the table behind ``sandbox._THREAD_MIN_WORK``: threaded/serial
wall-time ratios of sandbox runs, one map per chunk, by shape and image count.

    python3 tools/sandbox_gate_table.py [--runs 7] [--steps 50]

Each cell times ``run_sandbox`` at one (channels, positions) shape and
``n_images`` both ways, alternating which goes first, and prints the median
threaded time over the median serial time (below 1 the pool wins). Both
ways run every map as its own chunk: the gate is set to 1 work unit, and the
serial way allows one thread. Run it from the repository root; the package
is imported from ``src/``. The image counts are ``SandboxConfig.n_images``,
the frozen reference included.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latentblendkit import DdimScheduleConfig, SandboxConfig, run_sandbox, sandbox, tensorcore  # noqa: E402

#: (channels, positions) from the smallest measured work to the largest
SHAPES = ((8, 32), (16, 64), (32, 64), (24, 96), (16, 128), (32, 128), (32, 256))
IMAGES = (3, 4, 8)


def seconds(cfg: SandboxConfig, threads: int) -> float:
    """Wall time of one ``run_sandbox(cfg)`` with a pool of at most ``threads`` threads."""
    sandbox._cpu_threads = lambda tasks: min(threads, tasks)
    start = time.perf_counter()
    run_sandbox(cfg)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7, help="alternating runs per cell (default 7)")
    parser.add_argument("--steps", type=int, default=50, help="sandbox steps per run (default 50)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.steps < 1:
        parser.error("--runs and --steps must be at least 1")
    threads = tensorcore._cpu_threads(max(IMAGES))
    gate, sandbox._THREAD_MIN_WORK = sandbox._THREAD_MIN_WORK, 1
    print(f"threaded ({threads} threads) / serial wall time, median of {args.runs} alternating runs"
          f" of {args.steps} steps; the gate is {gate:,}")
    print(f"    {'work':<10} {'shape':<11} " + "".join(f"x{k} images  " for k in IMAGES).rstrip())
    for c, n in SHAPES:
        ratios = []
        for images in IMAGES:
            cfg = SandboxConfig(n_images=images, feature_shape=(c, n), schedule=DdimScheduleConfig(steps=args.steps))
            timings = {threads: [], 1: []}
            for run in range(args.runs):
                for way in ((threads, 1) if run % 2 == 0 else (1, threads)):
                    timings[way].append(seconds(cfg, way))
            ratios.append(statistics.median(timings[threads]) / statistics.median(timings[1]))
        cells = "".join(f"{r:<11.2f}" for r in ratios).rstrip()
        print(f"    {c * n * n:<10,} {str((c, n)):<11} {cells}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
