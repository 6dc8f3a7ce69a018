"""tools/count_src_lines.py, which counts the package's lines in all and
code only, on a small synthetic package."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_src_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment

import os


def f(x):
    """A function docstring."""
    message = """a string
over three
lines"""
    return x  # a trailing comment


class C:
    """A class docstring
    over two lines."""

    y = 1
'''


def _run(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(root)], capture_output=True, text=True, timeout=60)


def test_counts_every_line_and_only_code_lines(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(MODULE)
    (pkg / "sub" / "b.py").write_text("\nX = [\n    1,\n]\n")
    (pkg / "notes.txt").write_text("not python\n")
    result = _run(tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    counts = {line.split()[0]: tuple(line.split()[1:]) for line in result.stdout.splitlines()[1:]}
    # a.py's code: import, def, the three lines of the string, return, class, y
    assert counts == {"pkg/a.py": ("21", "8"), "pkg/sub/b.py": ("4", "3"), "all": ("25", "11")}


def test_a_directory_without_python_files_exits_2(tmp_path):
    result = _run(tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("no Python files under ")
