"""Time the library's layers one at a time: per-call microseconds, each the
min over repeats of a ``timeit`` mean.

    python3 tools/layer_bench.py [--repeat 7] [--src DIR]
    python3 tools/layer_bench.py --trees A B [--rounds 7] [--repeat 7]
    python3 tools/layer_bench.py --gate-table [--rounds 7] [--steps 50] [--src DIR]

The layers are the attention kernels of one sandbox step, on the step's own
operands (seed 0): the logits ``_row_matmul``, the row softmax
``_softmax_rows_array``, and the weighted sum in rows (``_weighted_rows``)
and in channels-first layout (``_weighted_channels``), each for the 18 maps
of a default guidance sweep at (8, 32) and for one (64, 256) map; and one
whole sandbox step of 3 and of 18 (8, 32) maps and of one (64, 256) map,
timed as the difference between ``run_guidance_sweep`` runs of
``STEPS + 1`` steps and 1 step, over ``STEPS``. A layer that the tree's
package lacks is left out. Two more layers read one seeded 10,000 x 768
``<f8`` NPY file through public calls only, so every tree runs them: one
``formats.load_rows`` of it, and the weighted-DINO grid over it, which is
``read_vectors(rows=True)`` and then one ``EmbeddingSet`` and ``wms_score``
per row of the 7-row ``wms --grid`` weight grid.

With one tree the package is imported from ``--src`` (default: this
repository's ``src/``) and one JSON object, layer to microseconds, is
printed. With ``--trees A B`` each round runs one subprocess per tree on
``A/src`` and ``B/src``, A first in even rounds and B first in odd ones, and
prints for each layer both trees' median microseconds, the median of the
per-round B/A ratios and the rounds B was faster in.

``--gate-table`` prints the table behind ``sandbox._THREAD_MIN_WORK``:
threaded/serial wall-time ratios of ``run_sandbox`` runs of ``--steps``
steps, by (channels, positions) shape and ``n_images`` (the frozen
reference included). Each cell times both ways ``--rounds`` times,
alternating which goes first, and prints the median threaded time over the
median serial time (below 1 the pool wins). Both ways run every map as its
own chunk: the gate is set to 1 work unit, and the serial way allows one
thread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

#: sandbox steps each whole-step timing adds to a 1-step run
STEPS = 5

#: (label, channels, positions, maps, calls per timing) of each kernel
#: timing: a stack of maps' [reference || self] key and value blocks, as one
#: sandbox step has
KERNEL_SHAPES = (("8x32x18", 8, 32, 18, 30), ("64x256x1", 64, 256, 1, 2))
#: (label, channels, positions, n_images, guidance values) of each step
#: timing: (n_images - 1) * guidance values maps
STEP_SHAPES = (("8x32x3", 8, 32, 4, 1), ("8x32x18", 8, 32, 4, 6), ("64x256x1", 64, 256, 2, 1))
#: (rows, dims) of the file the load and grid layers read
FILE_SHAPE = (10_000, 768)
#: (channels, positions) of the gate table's rows, from the smallest per-map
#: work to the largest, and its image counts
GATE_SHAPES = ((8, 32), (16, 64), (32, 64), (24, 96), (16, 128), (32, 128), (32, 256))
GATE_IMAGES = (3, 4, 8)


def _kernel_calls(tensorcore, c: int, n: int, maps: int) -> dict:
    """A callable for each kernel layer at one step's shapes."""
    rng = np.random.default_rng(0)
    keys = rng.standard_normal((maps, 2 * n, c))
    values = rng.standard_normal((maps, 2 * n, c))
    queries = keys[:, n:, :]
    logits = tensorcore._row_matmul(queries, keys, n)
    weights = tensorcore._softmax_rows_array(logits.copy())
    calls = {
        "logits": lambda: tensorcore._row_matmul(queries, keys, n),
        # in place: after the first call it normalises rows that are already
        # probabilities, at the same cost
        "softmax": lambda: tensorcore._softmax_rows_array(logits),
        "weighted_rows": lambda: tensorcore._weighted_rows(weights, values),
    }
    if hasattr(tensorcore, "_weighted_channels"):
        calls["weighted_channels"] = lambda: tensorcore._weighted_channels(weights, values)
    return calls


def _file_calls(path: Path) -> dict:
    """A callable for each layer that reads the file at ``path``, through
    public calls only."""
    import latentblendkit as lbk
    from latentblendkit.cli import WEIGHT_GRID
    from latentblendkit.formats import load_rows

    rng = np.random.default_rng(0)
    lbk.write_vectors(path, rng.standard_normal(FILE_SHAPE))
    refs = [lbk.LatentVector(rng.standard_normal(FILE_SHAPE[1])) for _ in range(2)]

    def grid():
        generated = tuple(lbk.read_vectors(path, rows=True))
        return [
            lbk.wms_score(lbk.EmbeddingSet(generated=generated, references=(
                lbk.ReferenceStyle("ref1", refs[0], w1), lbk.ReferenceStyle("ref2", refs[1], w2))))
            for w1, w2 in WEIGHT_GRID
        ]

    label = "x".join(map(str, FILE_SHAPE))
    return {f"load_rows/{label}": lambda: load_rows([path]), f"wms/grid{len(WEIGHT_GRID)}/{label}": grid}


def measure(repeat: int) -> dict[str, float]:
    """Per-call microseconds of every layer the imported package has."""
    from latentblendkit import DdimScheduleConfig, SandboxConfig, run_guidance_sweep, tensorcore

    out = {}
    for label, c, n, maps, number in KERNEL_SHAPES:
        for name, call in _kernel_calls(tensorcore, c, n, maps).items():
            out[f"{name}/{label}"] = min(timeit.repeat(call, repeat=repeat, number=number)) / number * 1e6
    for label, c, n, images, runs in STEP_SHAPES:
        grid = (10.0, 5.0, 15.0, 20.0, 25.0, 30.0)[:runs]
        times = []
        for steps in (1, STEPS + 1):
            cfg = SandboxConfig(n_images=images, feature_shape=(c, n), schedule=DdimScheduleConfig(steps=steps))
            times.append(min(timeit.repeat(lambda: run_guidance_sweep(cfg, grid), repeat=repeat, number=1)))
        out[f"step/{label}"] = (times[1] - times[0]) / STEPS * 1e6
    with tempfile.TemporaryDirectory() as tmp:
        for name, call in _file_calls(Path(tmp) / "rows.npy").items():
            out[name] = min(timeit.repeat(call, repeat=repeat, number=1)) * 1e6
    return out


def gate_table(rounds: int, steps: int) -> None:
    """Print the threaded/serial table of the imported package's sandbox,
    one row per shape as it is measured. It sets the sandbox's gate and
    thread count in place and leaves them set, so it runs in a process of
    its own, as ``--gate-table`` does."""
    from latentblendkit import DdimScheduleConfig, SandboxConfig, run_sandbox, sandbox, tensorcore

    def seconds(cfg: SandboxConfig, threads: int) -> float:
        sandbox._cpu_threads = lambda tasks: min(threads, tasks)
        return timeit.timeit(lambda: run_sandbox(cfg), number=1)

    threads = tensorcore._cpu_threads(max(GATE_IMAGES))
    gate, sandbox._THREAD_MIN_WORK = sandbox._THREAD_MIN_WORK, 1
    print(f"threaded ({threads} threads) / serial wall time, median of {rounds} alternating runs"
          f" of {steps} steps; the gate is {gate:,}")
    print(f"    {'work':<10} {'shape':<11} " + "".join(f"x{k} images  " for k in GATE_IMAGES).rstrip())
    for c, n in GATE_SHAPES:
        ratios = []
        for images in GATE_IMAGES:
            cfg = SandboxConfig(n_images=images, feature_shape=(c, n), schedule=DdimScheduleConfig(steps=steps))
            timings = {threads: [], 1: []}
            for i in range(rounds):
                for way in (threads, 1) if i % 2 == 0 else (1, threads):
                    timings[way].append(seconds(cfg, way))
            ratios.append(statistics.median(timings[threads]) / statistics.median(timings[1]))
        cells = "".join(f"{r:<11.2f}" for r in ratios).rstrip()
        print(f"    {c * n * n:<10,} {str((c, n)):<11} {cells}", flush=True)


def compare(a_rounds: list[dict[str, float]], b_rounds: list[dict[str, float]]) -> dict[str, dict]:
    """Each layer both trees timed in every round: the median microseconds of
    each tree, the median per-round B/A ratio and the rounds B took less."""
    layers = [name for name in a_rounds[0] if all(name in r for r in a_rounds + b_rounds)]
    table = {}
    for name in layers:
        a = [r[name] for r in a_rounds]
        b = [r[name] for r in b_rounds]
        table[name] = {
            "a_us": round(statistics.median(a), 2),
            "b_us": round(statistics.median(b), 2),
            "ratio": round(statistics.median(y / x for x, y in zip(a, b)), 4),
            "b_wins": sum(y < x for x, y in zip(a, b)),
            "rounds": len(a),
        }
    return table


def _one_tree(tree: Path, repeat: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--repeat", str(repeat), "--src", str(tree / "src")],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timeit repeats per layer, min taken (default 7)")
    parser.add_argument("--src", type=Path, default=REPO / "src", help="directory to import latentblendkit from")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trees", type=Path, nargs=2, metavar=("A", "B"), help="compare two repository trees")
    mode.add_argument("--gate-table", action="store_true", help="print the sandbox's threaded/serial gate table")
    parser.add_argument("--rounds", type=int, default=7,
                        help="alternating rounds with --trees, runs per cell with --gate-table (default 7)")
    parser.add_argument("--steps", type=int, default=50, help="sandbox steps per --gate-table run (default 50)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.rounds < 1 or args.steps < 1:
        parser.error("--repeat, --rounds and --steps must be at least 1")
    if args.trees is None:
        sys.path.insert(0, str(args.src))
        if args.gate_table:
            gate_table(args.rounds, args.steps)
        else:
            print(json.dumps({name: round(us, 2) for name, us in measure(args.repeat).items()}))
        return 0
    rounds: tuple[list, list] = ([], [])
    for i in range(args.rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            rounds[side].append(_one_tree(args.trees[side], args.repeat))
    print(json.dumps(compare(*rounds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
