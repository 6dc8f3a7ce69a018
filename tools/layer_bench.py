"""Time the library's layers one at a time: per-call microseconds, each the
min over repeats of a ``timeit`` mean, after one untimed call.

    python3 tools/layer_bench.py [--repeat 7] [--src DIR]
    python3 tools/layer_bench.py --trees A B [--rounds 7] [--repeat 7]
    python3 tools/layer_bench.py --gate-table [--rounds 7] [--steps 50] [--src DIR]

The layers are the kernels of one sandbox step, on the step's own operands
(seed 0): the channel stats ``_channel_stats`` and ``normalization._adain``
of the maps; the logits ``_row_matmul``; the row softmax
``_softmax_rows_array`` and its ``np.exp`` alone, over the max-shifted
logits; and the weighted sum in rows (``_weighted_rows``) and in
channels-first layout (``_weighted_channels``). Each is timed for the 18
maps of a default guidance sweep at (8, 32) and for one (64, 256) map. One
whole sandbox step of 3 and of 18 (8, 32) maps and of one (64, 256) map is
timed as the difference between ``run_guidance_sweep`` runs of
``STEPS + 1`` steps and 1 step, over ``STEPS``. A layer that the tree's
package lacks is left out. One public ``shared_attention`` call runs at
``lbk attend``'s benchmark shape, 192 tokens of 64 dims on each side, with
one matrix as the queries, keys and values of a side. Two more layers read
one seeded 10,000 x 768 ``<f8`` NPY file through public calls only, so
every tree runs them: one ``formats.load_rows`` of it, and the
weighted-DINO grid over it, which is ``read_vectors(rows=True)`` and then
one ``EmbeddingSet`` and ``wms_score`` per row of the 7-row ``wms --grid``
weight grid. The value-construction layers build one vector of the file's
768 dims through the public ``LatentVector`` constructor (a checked copy)
and through ``_wrap`` (checked and frozen in place), the row views of the
file's checked matrix through ``_rows``, and the record or matrix
``_stack_vectors`` gives for all of those views, in order, which is the
matrix they view: no copy. A layer that the tree's package lacks is left
out here too. The dot layers run the public ``dot`` on seeded vectors of 6,
768 and 20,000 dims, and ``_row_norms`` on the file's matrix. One fuse runs
the ``lbk fuse`` input stage through the CLI's ``_describe`` and then
``fuse_with_trace``: it reads the shipped query catalog, describes
``FUSE_ENTRIES`` seeded entries (text, long text, weather and music in
turn), and paraphrases the long ones from a fixture map.

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
own chunk: the gate is set to 1 work unit, and the thread count is set
through ``os.sched_getaffinity``, the CPUs the package's pool sees, with
the serial way allowing one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import timeit
from functools import partial
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
#: (tokens, dims) of each side of the shared_attention layer
ATTEND_SHAPE = (192, 64)
#: (rows, dims) of the file the load, grid and row-view layers read
FILE_SHAPE = (10_000, 768)
#: dims of each dot layer's vectors
DOT_DIMS = (6, 768, 20_000)
#: input entries of the fuse layer
FUSE_ENTRIES = 32
#: (channels, positions) of the gate table's rows, from the smallest per-map
#: work to the largest, and its image counts
GATE_SHAPES = ((8, 32), (16, 64), (32, 64), (24, 96), (16, 128), (32, 128), (32, 256))
GATE_IMAGES = (3, 4, 8)


def _kernel_calls(tensorcore, normalization, c: int, n: int, maps: int) -> dict:
    """A callable for each kernel layer at one step's shapes."""
    rng = np.random.default_rng(0)
    keys = rng.standard_normal((maps, 2 * n, c))
    values = rng.standard_normal((maps, 2 * n, c))
    x = rng.uniform(-4.0, 4.0, (maps, c, 1)) + rng.standard_normal((maps, c, n))
    ref_mean, ref_std = rng.uniform(-4.0, 4.0, c), rng.uniform(0.2, 0.6, c)
    queries = keys[:, n:, :]
    logits = tensorcore._row_matmul(queries, keys, n)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = tensorcore._softmax_rows_array(logits.copy())
    exp_out, adain_out = np.empty_like(logits), np.empty_like(x)
    calls = {
        "logits": lambda: tensorcore._row_matmul(queries, keys, n),
        # in place: after the first call it normalises rows that are already
        # probabilities, at the same cost
        "softmax": lambda: tensorcore._softmax_rows_array(logits),
        "exp": lambda: np.exp(shifted, out=exp_out),
        "weighted_rows": lambda: tensorcore._weighted_rows(weights, values),
    }
    if hasattr(tensorcore, "_weighted_channels"):
        calls["weighted_channels"] = lambda: tensorcore._weighted_channels(weights, values)
    if hasattr(tensorcore, "_channel_stats"):
        calls["channel_stats"] = lambda: tensorcore._channel_stats(x, 1e-5)
    if hasattr(normalization, "_adain"):
        calls["adain"] = lambda: normalization._adain(x, ref_mean, ref_std, 1e-5, adain_out)
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


def _value_calls(tensorcore, path: Path) -> dict:
    """(callable, calls per timing) of each value-construction layer the
    tree's ``tensorcore`` has, the row-view layers over the file at ``path``."""
    from latentblendkit.formats import load_rows

    rows_label, dims = "x".join(map(str, FILE_SHAPE)), FILE_SHAPE[1]
    vector = np.random.default_rng(0).standard_normal(dims)
    calls = {f"latent_vector/{dims}": (lambda: tensorcore.LatentVector(vector), 1000)}
    if hasattr(tensorcore, "_wrap"):
        calls[f"wrap/{dims}"] = (lambda: tensorcore._wrap(tensorcore.LatentVector, vector), 1000)
    if hasattr(tensorcore, "_rows") and hasattr(tensorcore, "_checked"):
        matrix = tensorcore._checked(load_rows([path]), 2, "LatentVector")
        rows = tensorcore._rows(matrix)
        calls[f"rows/{rows_label}"] = (lambda: tensorcore._rows(matrix), 1)
        if hasattr(tensorcore, "_stack_vectors"):
            calls[f"stack_vectors/{rows_label}"] = (lambda: tensorcore._stack_vectors(rows, "row {}"), 1)
    return calls


def _dot_calls(tensorcore, path: Path) -> dict:
    """(callable, calls per timing) of each dot layer, the row norms over
    the file at ``path``."""
    import latentblendkit as lbk
    from latentblendkit.formats import load_rows

    rng = np.random.default_rng(0)
    calls = {}
    for d in DOT_DIMS:
        a, b = (lbk.LatentVector(rng.standard_normal(d)) for _ in range(2))
        calls[f"dot/{d}"] = (partial(lbk.dot, a, b), 1000 if d < 10_000 else 100)
    if hasattr(tensorcore, "_row_norms"):
        matrix = load_rows([path])
        calls["row_norms/" + "x".join(map(str, FILE_SHAPE))] = (lambda: tensorcore._row_norms(matrix), 1)
    return calls


def _fuse_call(tmp: Path):
    """One fuse of ``FUSE_ENTRIES`` seeded entries, as ``lbk fuse`` runs it,
    with a fixture map written under ``tmp``."""
    import latentblendkit as lbk
    from latentblendkit import cli

    rng = np.random.default_rng(0)
    entries, fixture = [], {}
    for i in range(FUSE_ENTRIES):
        kind = i % 4
        if kind == 0:
            entries.append({"modality": "image", "text": f"a quiet harbor at dawn, frame {i}"})
        elif kind == 1:
            text = " ".join(f"word{i}_{j}" for j in range(12))
            entries.append({"modality": "text", "text": text})
            fixture[text] = f"caption {i}"
        elif kind == 2:
            temperature, wind = rng.uniform(-10.0, 30.0), rng.uniform(0.0, 15.0)
            entries.append({"modality": "weather", "condition": "rain", "temperature_c": temperature, "wind_mps": wind})
        else:
            entries.append({"modality": "music", "embedding": rng.standard_normal(24).tolist()})
    path = tmp / "fixture.json"
    path.write_text(json.dumps(fixture))
    binding = lbk.ProviderBinding(kind="fixture_file", locator=str(path))

    def fuse():
        catalog = lbk.default_query_catalog()
        ds = [cli._describe(item, "fusion inputs", f"[{i}]", catalog)[0] for i, item in enumerate(entries)]
        return lbk.fuse_with_trace(ds, lbk.FusionConfig(), binding)

    return fuse


def per_call_us(call, repeat: int, number: int = 1) -> float:
    """Microseconds per call of ``call``: the min over ``repeat`` timings of
    ``number`` calls each. One untimed call goes first, so that what only a
    first call pays (a lazy import, a cold cache) stays out of every timing,
    ``--repeat 1`` included."""
    call()
    return min(timeit.repeat(call, repeat=repeat, number=number)) / number * 1e6


def measure(repeat: int) -> dict[str, float]:
    """Per-call microseconds of every layer the imported package has."""
    import latentblendkit as lbk
    from latentblendkit import DdimScheduleConfig, SandboxConfig, normalization, run_guidance_sweep, tensorcore

    out = {}
    for label, c, n, maps, number in KERNEL_SHAPES:
        for name, call in _kernel_calls(tensorcore, normalization, c, n, maps).items():
            out[f"{name}/{label}"] = per_call_us(call, repeat, number)
    rng = np.random.default_rng(0)
    own, ref = (lbk.Matrix(rng.standard_normal(ATTEND_SHAPE)) for _ in range(2))
    attend = partial(lbk.shared_attention, own, own, own, ref, ref, ref)
    out["shared_attention/{}x{}".format(*ATTEND_SHAPE)] = per_call_us(attend, repeat, 5)
    for label, c, n, images, runs in STEP_SHAPES:
        grid = (10.0, 5.0, 15.0, 20.0, 25.0, 30.0)[:runs]
        times = []
        for steps in (1, STEPS + 1):
            cfg = SandboxConfig(n_images=images, feature_shape=(c, n), schedule=DdimScheduleConfig(steps=steps))
            times.append(per_call_us(partial(run_guidance_sweep, cfg, grid), repeat))
        out[f"step/{label}"] = (times[1] - times[0]) / STEPS
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.npy"
        for name, call in _file_calls(path).items():
            out[name] = per_call_us(call, repeat)
        for name, (call, number) in (_value_calls(tensorcore, path) | _dot_calls(tensorcore, path)).items():
            out[name] = per_call_us(call, repeat, number)
        out[f"fuse/fixture{FUSE_ENTRIES}"] = per_call_us(_fuse_call(Path(tmp)), repeat, 5)
    return out


def gate_table(rounds: int, steps: int) -> None:
    """Print the threaded/serial table of the imported package's sandbox,
    one row per shape as it is measured. It sets the sandbox's gate and
    ``os.sched_getaffinity`` in place and leaves them set, so it runs in a
    process of its own, as ``--gate-table`` does."""
    from latentblendkit import DdimScheduleConfig, SandboxConfig, run_sandbox, sandbox

    def seconds(cfg: SandboxConfig, threads: int) -> float:
        os.sched_getaffinity = lambda pid: set(range(threads))
        return timeit.timeit(lambda: run_sandbox(cfg), number=1)

    cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)
    threads = min(len(cpus), max(GATE_IMAGES))
    gate, sandbox._THREAD_MIN_WORK = sandbox._THREAD_MIN_WORK, 1
    # untimed: the first pool imports concurrent.futures, which would land in the first cell
    seconds(SandboxConfig(n_images=3, schedule=DdimScheduleConfig(steps=1)), threads)
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
