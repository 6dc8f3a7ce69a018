"""Self-test of the benchmark at tiny sizes (`--quick`); takes about a minute.

    python3 bench/selftest.py

From the repository root. For every workload it runs the end-to-end and the
traced mode, checks the result line against BENCHMARK.json (every metric,
with its unit), that all outputs passed their checks, that only the five
malformed-input commands failed, and that per-layer counts repeat exactly
between two traced runs. Last, it checks that the benchmark refuses to run
in a directory holding only BENCHMARK.json and bench/. Exits 1 on the first
problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MALFORMED_PER_ROUND = {"style_prep": (5, 13)}


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, str, str]:
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return p.returncode, p.stdout, p.stderr


def result(workload: str, trace: int) -> dict:
    code, out, err = run(workload, trace)
    if code != 0:
        fail(f"{workload} trace {trace} exited {code}: {err[-800:]}")
    r = json.loads(out.strip().splitlines()[-1])
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(r)}")
    if not r["correct"]:
        fail(f"{workload} trace {trace}: outputs failed their checks: {err[-800:]}")
    bad, per_round = MALFORMED_PER_ROUND.get(workload, (0, 1))
    if r["attempted"] < 1 or r["failed"] * per_round != r["attempted"] * bad:
        fail(f"{workload} trace {trace}: {r['failed']} of {r['attempted']} failed, expected {bad} in {per_round}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics {got} != BENCHMARK.json {want}")
    return r


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        e2e = result(workload, 0)
        zero = [k for k, v in e2e["metrics"].items() if not v["value"] > 0]
        if zero:
            fail(f"{workload}: end-to-end metrics not > 0: {zero}")
        a, b = result(workload, 1), result(workload, 1)
        for name, v in a["metrics"].items():
            if v["unit"] in ("count", "bytes") and v["value"] != b["metrics"][name]["value"]:
                fail(f"{workload}: count {name} differs between two traced runs")
        print(f"selftest: {workload}: ok ({e2e['attempted']} ops, {e2e['failed']} failed)")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        p = subprocess.run([sys.executable, "bench/run.py", "--workload", "style_prep", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                           timeout=170, env=env)
        if p.returncode == 0 or p.stdout.strip():
            fail(f"without src/ the benchmark exited {p.returncode} and printed {p.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: refuses to run without src/: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
