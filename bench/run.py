"""latentblendkit benchmark: four CLI workloads, the same work through the
library, and a traced run for per-layer numbers.

    python3 bench/run.py --workload sandbox_batch --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds seeded inputs under
`.bench_work/`, checks every output against independent computations
(bench/reference.py), and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. A
results file with the raw per-round values and the machine description is
written to `.bench_work/results/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from tracing import Tracer, write_spans
from workloads import Context, Op, judge

#: `--help` processes timed for setup_s (after one untimed warm-up).
SETUP_PROBES = 5
#: A CLI command that takes longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "lib_s": "s"}


def _spawn(ctx: Context, env: dict, args: list[str]) -> dict:
    """Run one CLI process; wall time plus its (and its children's) rusage."""
    with open(ctx.work / "stdout", "w+b") as out, open(ctx.work / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([*ctx.cli, *args], cwd=ctx.root, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "code": proc.returncode,
            "out": out.read().decode("utf-8", "replace"),
            "err": err.read().decode("utf-8", "replace"),
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


def _in_process(main, args: list[str]) -> tuple[int, str, str]:
    """Run one CLI command through its click entry point inside this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rv = main.main(args=args, prog_name="lbk", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is exit 1 with a traceback, as in a process
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class Tally:
    """Attempted/failed operations and check failures over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, op: Op, code: int, out: str, err: str) -> None:
        ok, error = judge(op, code, out, err)
        self.attempted += 1
        self.failed += not ok
        if not ok and not op.malformed:
            print(f"bench: '{op.label}' exited {code}: {err.strip()[-300:]}", file=sys.stderr)
        if error:
            self.errors.append(error)

    def lib(self, wl, results) -> None:
        try:
            wl.check_lib(results)
        except workloads.CheckFailed as exc:
            self.errors.append(f"library path: {exc}")


def _timed_lib(wl, lbk) -> tuple[float, object]:
    """Wall time of the library path, started from a freshly collected heap
    so garbage left by earlier rounds does not land in this one."""
    gc.collect()
    start = time.perf_counter()
    results = wl.lib(lbk)
    return time.perf_counter() - start, results


def _rounds(seconds: float, round_fn) -> list[dict]:
    """Whole rounds while the next one is expected to end within `seconds`;
    at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(round_fn(len(rounds)))
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return rounds


def measure_end_to_end(ctx: Context, wl, lbk, env: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    _spawn(ctx, env, ["--help"])  # warm-up: bytecode cache, page cache
    probes = []
    for _ in range(SETUP_PROBES):
        p = _spawn(ctx, env, ["--help"])
        if p["code"] != 0:
            raise RuntimeError(f"`lbk --help` exited {p['code']}: {p['err'][-300:]}")
        probes.append(p["wall"])

    def one_round(_i: int) -> dict:
        r0 = time.perf_counter()
        procs = [_spawn(ctx, env, op.args) for op in wl.ops]
        run_s = time.perf_counter() - r0
        lib_s, results = _timed_lib(wl, lbk)
        for op, p in zip(wl.ops, procs):
            tally.op(op, p["code"], p["out"], p["err"])
        tally.lib(wl, results)
        return {
            "run_s": run_s,
            "lib_s": lib_s,
            "wall": [p["wall"] for p in procs],
            "cpu": [p["cpu"] for p in procs],
            "rss_mb": [p["rss_mb"] for p in procs],
        }

    rounds = _rounds(seconds, one_round)

    def per_command(key: str) -> list[float]:
        # each command's median over the rounds, so one slow process in one
        # round does not move the whole list
        return [statistics.median(r[key][i] for r in rounds) for i in range(len(wl.ops))]

    metrics = {
        "setup_s": statistics.median(probes),
        "run_s": sum(per_command("wall")),
        "cpu_s": sum(per_command("cpu")),
        "peak_rss_mb": max(per_command("rss_mb")),
        "lib_s": statistics.median(r["lib_s"] for r in rounds),
    }
    return metrics, {"setup_probes_s": probes, "rounds": rounds}


def _layer_metrics(tr: Tracer) -> dict:
    g, c = tr.by_group, tr.counts
    s = 1e-9
    return {
        "tensorcore.values_built": g["values"][0],
        "tensorcore.values_s": g["values"][1] * s,
        "tensorcore.values_bytes": c["values_bytes"],
        "tensorcore.stats_calls": g["stats"][0],
        "tensorcore.stats_s": g["stats"][1] * s,
        "normalization.adain_calls": g["adain"][0],
        "normalization.adain_s": g["adain"][1] * s,
        "attention.shared_calls": g["shared"][0],
        "attention.shared_s": g["shared"][1] * s,
        "attention.shared_self_s": g["shared"][2] * s,
        "attention.lambda_calls": g["lambda"][0],
        "attention.lambda_s": g["lambda"][1] * s,
        "sandbox.runs": g["sandbox"][0],
        "sandbox.image_steps": c["image_steps"],
        "sandbox.run_s": g["sandbox"][1] * s,
        "sandbox.self_s": g["sandbox"][2] * s,
        "metrics.vectors_validated": c["vectors_validated"],
        "metrics.embeddingset_s": g["embeddingset"][1] * s,
        "metrics.similarities": c["similarities"],
        "metrics.wms_s": g["wms"][1] * s,
        "formats.load_calls": g["load"][0],
        "formats.load_bytes": c["load_bytes"],
        "formats.load_s": g["load"][1] * s,
        "formats.write_calls": g["write"][0],
        "formats.write_bytes": c["write_bytes"],
        "formats.write_s": g["write"][1] * s,
        "blending.folds": c["folds"],
        "blending.sli_s": g["sli"][1] * s,
        "blending.linear_s": g["linear"][1] * s,
        "fusion.descriptions": c["descriptions"],
        "fusion.match_s": g["match"][1] * s,
        "fusion.fuse_s": g["fuse"][1] * s,
        "cli.commands": g["cli"][0],
        "cli.cmd_s": g["cli"][1] * s,
        "cli.self_s": g["cli"][2] * s,
    }


def _provider_lines(ctx: Context) -> list[float]:
    try:
        return [float(x) for x in ctx.provider_log.read_text(encoding="utf-8").split()]
    except FileNotFoundError:
        return []


def measure_layers(ctx: Context, wl, lbk, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Per round: the library path untraced and traced (their difference is
    the tracing overhead), then the command list in-process through the CLI
    entry point with spans around every wrapped call. The first round's
    spans stay in memory and are written to `spans_path` when the rounds end."""
    from latentblendkit.cli import main

    tracer = Tracer()
    first_spans: list = []

    def one_round(i: int) -> dict:
        lib_s, results = _timed_lib(wl, lbk)
        tally.lib(wl, results)
        del results
        tracer.install()
        try:
            tracer.reset()
            lib_traced_s, results = _timed_lib(wl, lbk)
            tally.lib(wl, results)
            del results
            tracer.reset(keep_spans=i == 0)
            before = len(_provider_lines(ctx))
            outcomes = []
            for op in wl.ops:
                tracer.command += 1
                with tracer.span("cli.main", "cli"):
                    outcomes.append(_in_process(main, op.args))
        finally:
            tracer.uninstall()
        provider = _provider_lines(ctx)[before:]
        for op, (code, out, err) in zip(wl.ops, outcomes):
            tally.op(op, code, out, err)
        layers = _layer_metrics(tracer)
        layers["fusion.provider_calls"] = len(provider)
        layers["fusion.provider_s"] = sum(provider)
        if i == 0:
            first_spans.extend(tracer.spans)
        return {"lib_s": lib_s, "lib_traced_s": lib_traced_s, "layers": layers}

    rounds = _rounds(seconds, one_round)
    write_spans(first_spans, spans_path)
    metrics = {}
    for name, first in rounds[0]["layers"].items():
        values = [r["layers"][name] for r in rounds]
        if isinstance(first, int):
            if any(v != first for v in values):
                tally.errors.append(f"count {name} differs between rounds: {values}")
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.lib_s"] = statistics.median(r["lib_s"] for r in rounds)
    metrics["trace.overhead_s"] = statistics.median(r["lib_traced_s"] - r["lib_s"] for r in rounds)
    return metrics, {"rounds": rounds}


def _machine(root: Path) -> dict:
    import numpy as np

    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy < 1.25 has no dict mode; the record is informational
        blas = f"unknown ({exc})"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs: every workload and check in seconds")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "latentblendkit" / "cli.py").is_file():
        print(f"bench: {src}/latentblendkit not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import latentblendkit as lbk

    if Path(lbk.__file__).resolve().parent != src / "latentblendkit":
        print(f"bench: imported latentblendkit from {lbk.__file__}, not {src}", file=sys.stderr)
        return 2

    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    tally = Tally()
    try:
        work.mkdir(parents=True)
        ctx = Context(root=root, work=work, quick=args.quick)
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](ctx, args.seed)
        prepare_s = time.perf_counter() - t0
        if args.trace:
            metrics, raw = measure_layers(ctx, wl, lbk, args.seconds, tally, results_dir / f"{tag}.spans.jsonl")
        else:
            metrics, raw = measure_end_to_end(ctx, wl, lbk, env, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {}
    for name in metrics:
        if name in END_TO_END_UNITS:
            units[name] = END_TO_END_UNITS[name]
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for e in tally.errors[:20]:
        print(f"bench: check failed: {e}", file=sys.stderr)
    print(f"bench: {tag}: inputs and references {prepare_s:.2f} s, {len(raw['rounds'])} rounds", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "machine": _machine(root), "prepare_s": prepare_s, "errors": tally.errors,
              **raw, **result}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
