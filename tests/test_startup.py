"""What CLI start-up imports.

The package binds its exports on first use, and each CLI command imports
the modules it runs in its body. So ``lbk --help`` imports no numpy, and a
command loads only its own modules. Each check runs ``python -X importtime
-m latentblendkit.cli`` (or a short script) in a fresh interpreter, because
this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentblendkit
from latentblendkit import cli, fusion, write_vectors

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(latentblendkit.__file__).resolve().parents[1])
HELP = json.loads((GOLDEN / "cli_help.json").read_text())
PACKAGE = json.loads((GOLDEN / "package_names.json").read_text())


def _env() -> dict:
    env = dict(os.environ, COLUMNS="80")  # the help text wraps at the terminal width
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _python(*args: str, cwd=None, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], input=stdin, env=_env(), cwd=cwd, capture_output=True, timeout=120, check=False
    )


def _lbk(args: list[str], cwd=None) -> tuple[subprocess.CompletedProcess, set[str]]:
    """The finished ``lbk`` process and the modules it imported, read from
    its ``-X importtime`` lines; those lines are cut from its stderr."""
    proc = _python("-X", "importtime", "-m", "latentblendkit.cli", *args, cwd=cwd)
    modules, err = set(), []
    for line in proc.stderr.decode("utf-8").splitlines(keepends=True):
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name != "imported package":  # the header line
                modules.add(name)
        else:
            err.append(line)
    proc.stderr = "".join(err)
    return proc, modules


def _package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "latentblendkit"}


@pytest.mark.parametrize("argv", HELP.keys())
def test_help_and_version_import_no_numpy_and_keep_their_bytes(argv):
    proc, modules = _lbk(argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.decode("utf-8") == HELP[argv]
    assert "numpy" not in modules
    assert _package_modules(modules) == {"latentblendkit", "latentblendkit.errors"}


def test_help_golden_covers_every_command():
    assert {a.split()[0] for a in HELP if not a.startswith("--")} == set(cli.main.commands)


def test_sandbox_loads_no_fusion_metrics_or_subprocess(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_images": 2, "feature_shape": [1, 2], "schedule": {"steps": 1}}))
    proc, modules = _lbk(["sandbox", "--config", str(cfg), "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["per_step_stat_distance"]) == 1
    assert "latentblendkit.sandbox" in modules
    assert not modules & {"latentblendkit.fusion", "latentblendkit.metrics", "latentblendkit.blending", "subprocess"}


def test_fuse_loads_no_blending_or_sandbox(tmp_path):
    # formats, which decodes every JSON input, names the blend methods without loading blending
    entries = [{"modality": "image", "text": "a castle"}, {"modality": "music", "embedding": [1.0] + [0.0] * 23}]
    (tmp_path / "inputs.json").write_text(json.dumps(entries))
    proc, modules = _lbk(["fuse", "--inputs", "inputs.json"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"a castle, ")
    assert {"latentblendkit.fusion", "latentblendkit.formats"} <= modules
    assert not modules & {"latentblendkit.blending", "latentblendkit.sandbox"}


def test_blend_loads_no_sandbox_or_fusion(tmp_path):
    write_vectors(tmp_path / "a.npy", np.array([1.0, 0.0]))
    write_vectors(tmp_path / "b.npy", np.array([0.0, 1.0]))
    spec = {"method": "sli", "styles": [{"path": "a.npy", "weight": 1.0}, {"path": "b.npy", "weight": 1.0}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc, modules = _lbk(["blend", "--spec", "spec.json", "--out", "out.npy"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "sli"
    assert "latentblendkit.blending" in modules
    assert not modules & {"latentblendkit.sandbox", "latentblendkit.fusion"}


def test_provider_kind_choices_are_the_fusion_kinds():
    (kind,) = [p for p in cli.main.commands["fuse"].params if p.name == "provider_kind"]
    assert tuple(kind.type.choices) == (fusion.FIXTURE_FILE, fusion.EXTERNAL_COMMAND)
    assert kind.default == fusion.FIXTURE_FILE


def test_import_binds_no_export_until_first_access():
    code = "import sys, latentblendkit as p; print('numpy' in sys.modules, 'run_sandbox' in vars(p), p.__version__)"
    proc = _python("-c", code)
    assert proc.stdout.split() == [b"False", b"False", b"0.1.0"], proc.stderr


def test_every_name_the_package_exposed_is_the_defining_module_object():
    code = """if True:
        import json, sys
        import latentblendkit as p
        golden = json.loads(sys.stdin.read())
        public = {n for n in dir(p) if not n.startswith("_")}  # dir() loads the exports too
        bad = [n for n, m in golden["exports"].items()
               if getattr(p, n) is not getattr(sys.modules["latentblendkit." + m], n)]
        bad += [m for m in golden["modules"] if getattr(p, m) is not sys.modules["latentblendkit." + m]]
        print(json.dumps({"bad": bad, "public": sorted(public)}))
    """
    proc = _python("-c", code, stdin=json.dumps(PACKAGE).encode())
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["bad"] == []
    assert set(out["public"]) == {*PACKAGE["exports"], *PACKAGE["modules"]}


@pytest.mark.parametrize(
    "before",
    [
        "",
        "import latentblendkit.sandbox",
        "from click.testing import CliRunner; from latentblendkit.cli import main;"
        " assert CliRunner().invoke(main, ['attend', '--help']).exit_code == 0;"
        " assert CliRunner().invoke(main, ['sandbox', '--dump-schedule']).exit_code == 0",
    ],
    ids=["first", "after-submodule-import", "after-cli-command"],
)
def test_attention_export_is_the_function(before):
    code = (
        f"{before}\n"
        "import sys\n"
        "from latentblendkit import attention\n"
        "module = sys.modules['latentblendkit.attention']\n"
        "print(attention is module.attention, sys.modules['latentblendkit'].attention is attention)\n"
    )
    proc = _python("-c", code)
    assert proc.stdout.split() == [b"True", b"True"], proc.stderr
