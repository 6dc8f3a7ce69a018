"""What CLI start-up imports, and the BLAS threads it starts.

The package binds its exports on first use, and each CLI command imports
the modules it runs in its body. So ``lbk --help`` imports no numpy, and a
command loads only its own modules. A command imports numpy with one BLAS
thread unless its caller set a thread count, and its output does not depend
on that count. Each check runs ``python -X importtime -m latentblendkit.cli``
(or a short script) in a fresh interpreter, because this test process has
long since imported everything.
"""

import json
import os
import shlex
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


def _python(*args: str, cwd=None, stdin: bytes | None = None, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], input=stdin, env=env or _env(), cwd=cwd, capture_output=True, timeout=120, check=False
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


@pytest.mark.parametrize("argv", [["blend"], ["wms", "--nope"]], ids=["missing-option", "unknown-option"])
def test_usage_errors_import_no_numpy(argv):
    proc, modules = _lbk(argv)
    assert proc.returncode == 2
    assert "numpy" not in modules


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


#: The variables through which a caller sets numpy's BLAS thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _caller_env(**blas) -> dict:
    """The test environment with no BLAS thread variable but those given."""
    return {k: v for k, v in _env().items() if k not in BLAS_THREAD_VARS} | blas


def _has_blas_pool() -> bool:
    """Whether importing numpy starts an OpenBLAS pool of more than one
    thread that /proc/self/task can count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        sys.platform == "linux"
        and len(os.sched_getaffinity(0)) >= 2
        and "openblas" in str(blas.get("name", "")).lower()
    )


needs_blas_pool = pytest.mark.skipif(not _has_blas_pool(), reason="needs Linux, 2+ CPUs and OpenBLAS")

#: Runs ``lbk`` with the arguments after ``-c``, then writes its thread count to stderr at exit.
COUNT_THREADS = """if True:
    import atexit, os, sys
    atexit.register(lambda: sys.stderr.write(f"threads={len(os.listdir('/proc/self/task'))}\\n"))
    from latentblendkit.cli import main
    main()
"""


def _threads_at_exit(args: list[str], env: dict, cwd) -> int:
    proc = _python("-c", COUNT_THREADS, *args, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.decode().rsplit("threads=", 1)[1])


def _tiny_blend(tmp_path) -> list[str]:
    write_vectors(tmp_path / "a.npy", np.array([1.0, 0.0]))
    write_vectors(tmp_path / "b.npy", np.array([0.0, 1.0]))
    spec = {"method": "sli", "styles": [{"path": "a.npy", "weight": 1.0}, {"path": "b.npy", "weight": 1.0}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return ["blend", "--spec", "spec.json", "--out", "out.npy"]


@needs_blas_pool
@pytest.mark.parametrize("command", ["blend", "dump-schedule"])
def test_command_ends_with_one_thread(tmp_path, command):
    args = _tiny_blend(tmp_path) if command == "blend" else ["sandbox", "--dump-schedule"]
    assert _threads_at_exit(args, _caller_env(), tmp_path) == 1


@needs_blas_pool
def test_the_callers_thread_count_wins(tmp_path):
    assert _threads_at_exit(_tiny_blend(tmp_path), _caller_env(OPENBLAS_NUM_THREADS="2"), tmp_path) == 2


def test_provider_sees_the_callers_environment(tmp_path):
    provider = tmp_path / "provider.py"
    provider.write_text(
        "import json, os, sys\n"
        "json.load(sys.stdin)\n"
        "print(json.dumps({'text': f\"blas={os.environ.get('OPENBLAS_NUM_THREADS')}\"}))\n"
    )
    long_text = "a castle on a hill above the sea at dusk with many small boats"  # over 10 words: paraphrased
    (tmp_path / "inputs.json").write_text(json.dumps([{"modality": "image", "text": long_text}]))
    command = shlex.join([sys.executable, str(provider)])
    args = ["fuse", "--inputs", "inputs.json", "--provider-kind", "external_command", "--provider", command]
    for blas, seen in [({}, b"blas=None\n"), ({"OPENBLAS_NUM_THREADS": "3"}, b"blas=3\n")]:
        proc = _python("-m", "latentblendkit.cli", *args, cwd=tmp_path, env=_caller_env(**blas))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == seen


def test_outputs_are_bit_identical_across_blas_thread_counts(tmp_path):
    # the sandbox config of the wide golden runs the image pool and the mirrored self logits
    config = json.loads((GOLDEN / "sandbox_wide.json").read_text())["config"]
    (tmp_path / "sandbox.json").write_text(json.dumps(config))
    rng = np.random.default_rng(5151)
    for i in range(5):
        np.save(tmp_path / f"s{i}.npy", rng.standard_normal(16) * rng.uniform(0.2, 3.0))
    spec = {"method": "sli", "styles": [{"path": f"s{i}.npy", "weight": float(i + 1)} for i in range(5)]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    np.save(tmp_path / "refs.npy", rng.standard_normal((2, 48)))
    np.save(tmp_path / "gen.npy", rng.standard_normal((300, 48)))
    np.save(tmp_path / "self.npy", rng.standard_normal((150, 24)))
    np.save(tmp_path / "ref.npy", rng.standard_normal((120, 24)))
    commands = [
        ["sandbox", "--config", "sandbox.json", "--format", "json"],
        ["blend", "--spec", "spec.json", "--out", "out.npy"],
        ["wms", "--generated", "gen.npy", "--refs", "refs.npy", "--grid"],
        ["attend", "--self", "self.npy", "--ref", "ref.npy"],
    ]
    runs = {}
    for threads in ("1", "2"):
        env = _caller_env(OPENBLAS_NUM_THREADS=threads)
        outputs = []
        for args in commands:
            proc = _python("-m", "latentblendkit.cli", *args, cwd=tmp_path, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        runs[threads] = [*outputs, (tmp_path / "out.npy").read_bytes()]
    assert runs["1"] == runs["2"]


def test_long_dots_take_the_one_thread_bits(tmp_path):
    # OpenBLAS splits a dot past 10,000 entries across its threads, which
    # changes the last bits of the norm a blend of these styles prints
    rng = np.random.default_rng(7)
    for i in range(3):
        np.save(tmp_path / f"s{i}.npy", rng.standard_normal(20000))
    spec = {"method": "sli", "styles": [{"path": f"s{i}.npy", "weight": float(i + 1)} for i in range(3)]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    args = ["-m", "latentblendkit.cli", "blend", "--spec", "spec.json", "--out", "out.npy"]
    unset, one = (_python(*args, cwd=tmp_path, env=_caller_env(**blas)) for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}))
    assert unset.returncode == one.returncode == 0, unset.stderr + one.stderr
    assert unset.stdout == one.stdout
