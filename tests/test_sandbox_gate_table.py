"""tools/layer_bench.py --gate-table, which prints the threaded/serial table
behind ``sandbox._THREAD_MIN_WORK``, run at one step per cell."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_bench.py"


def test_prints_one_ratio_per_shape_and_image_count():
    out = subprocess.run([sys.executable, str(TOOL), "--gate-table", "--rounds", "1", "--steps", "1"],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert "the gate is 262,144" in lines[0]
    assert lines[1].split() == ["work", "shape", "x3", "images", "x4", "images", "x8", "images"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["8,192", "65,536", "131,072", "221,184", "262,144", "524,288", "2,097,152"]
    for row in rows:
        ratios = [float(r) for r in row[-3:]]
        assert all(r > 0 for r in ratios), row


def test_rejects_a_run_count_below_one():
    proc = subprocess.run([sys.executable, str(TOOL), "--gate-table", "--rounds", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--repeat, --rounds and --steps must be at least 1" in proc.stderr
