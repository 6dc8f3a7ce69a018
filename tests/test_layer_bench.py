"""tools/layer_bench.py, which times the library's layers one at a time, run
at one repetition."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("layer_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_every_layer_at_one_repetition():
    out = subprocess.run([sys.executable, str(TOOL), "--repeat", "1"],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    layers = json.loads(out)
    kernels = [f"{k}/{shape}" for shape in ("8x32x18", "64x256x1")
               for k in ("channel_stats", "adain", "logits", "softmax", "exp", "weighted_rows", "weighted_channels")]
    kernels.append("shared_attention/192x64")
    steps = ["step/8x32x3", "step/8x32x18", "step/64x256x1"]
    reads = ["load_rows/10000x768", "wms/grid7/10000x768"]
    values = ["latent_vector/768", "wrap/768", "rows/10000x768", "stack_vectors/10000x768"]
    assert sorted(layers) == sorted(kernels + steps + reads + values)
    # a step is the difference of two runs' times, which one noisy repetition may invert
    assert all(layers[name] > 0 for name in kernels + reads + values)


def test_compare_keeps_the_layers_of_both_trees():
    a = [{"x": 10.0, "only_a": 1.0}, {"x": 20.0, "only_a": 1.0}, {"x": 10.0, "only_a": 1.0}]
    b = [{"x": 5.0}, {"x": 30.0}, {"x": 9.0}]
    # per-round ratios 0.5, 1.5 and 0.9
    assert _tool().compare(a, b) == {"x": {"a_us": 10.0, "b_us": 9.0, "ratio": 0.9, "b_wins": 2, "rounds": 3}}


def test_rejects_a_repeat_count_below_one():
    proc = subprocess.run([sys.executable, str(TOOL), "--repeat", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--repeat, --rounds and --steps must be at least 1" in proc.stderr
