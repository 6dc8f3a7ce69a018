import csv
import dataclasses
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from latentblendkit import (
    FusionConfig,
    LatentVector,
    ParaphraseParams,
    RescaleParams,
    SandboxConfig,
    cli,
    decode,
    errors,
    formats,
    fusion,
    metrics,
    read_vectors,
    write_vectors,
)
from latentblendkit.cli import main

from cpu_note import cpu_note

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


def _write_unit_styles(tmp_path):
    write_vectors(tmp_path / "e1.npy", np.array([1.0, 0.0]))
    write_vectors(tmp_path / "e2.npy", np.array([0.0, 1.0]))


def _blend_spec(tmp_path, method, weights, eps=None):
    spec = {
        "method": method,
        "styles": [
            {"path": "e1.npy", "weight": weights[0]},
            {"path": "e2.npy", "weight": weights[1]},
        ],
    }
    if eps is not None:
        spec["eps_omega"] = eps
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert "0.1.0" in result.output


class TestBlendCommand:
    def test_single_style_passthrough(self, runner, tmp_path):
        write_vectors(tmp_path / "e1.npy", np.array([0.5, 0.5, 0.0]))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "linear", "styles": [{"path": "e1.npy", "weight": 1.0}]}))
        out = tmp_path / "out.npy"
        result = runner.invoke(main, ["blend", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 0, result.output
        np.testing.assert_array_equal(np.load(out), [0.5, 0.5, 0.0])

    def test_sli_norm_one(self, runner, tmp_path):
        _write_unit_styles(tmp_path)
        spec = _blend_spec(tmp_path, "sli", (0.5, 0.5))
        out = tmp_path / "out.npy"
        result = runner.invoke(main, ["blend", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["method"] == "sli"
        assert summary["norm"] == pytest.approx(1.0, abs=1e-9)
        assert summary["order_used"] == [0, 1]
        assert len(summary["omega_trace"]) == 1

    def test_linear_norm_shrinks(self, runner, tmp_path):
        _write_unit_styles(tmp_path)
        spec = _blend_spec(tmp_path, "linear", (0.5, 0.5))
        out = tmp_path / "out.npy"
        result = runner.invoke(main, ["blend", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert summary["norm"] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_invalid_spec_exit_2(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "sli", "styles": []}))
        result = runner.invoke(main, ["blend", "--spec", str(spec), "--out", str(tmp_path / "o.npy")])
        assert result.exit_code == 2

    def test_missing_style_file_names_path(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "sli", "styles": [{"path": "ghost.npy", "weight": 1.0}]}))
        result = runner.invoke(main, ["blend", "--spec", str(spec), "--out", str(tmp_path / "o.npy")])
        assert result.exit_code == 2
        assert "ghost.npy" in result.output

    def test_antipodal_exit_3(self, runner, tmp_path):
        write_vectors(tmp_path / "e1.npy", np.array([1.0, 0.0]))
        write_vectors(tmp_path / "e2.npy", np.array([-1.0, 0.0]))
        spec = _blend_spec(tmp_path, "sli", (0.5, 0.5))
        result = runner.invoke(main, ["blend", "--spec", str(spec), "--out", str(tmp_path / "o.npy")])
        assert result.exit_code == 3

    def test_unknown_flag_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["blend", "--nope", "x"])
        assert result.exit_code == 2

    @staticmethod
    def golden_outputs(runner) -> dict:
        """Exit code, stdout, stderr and output NPY bytes (hex) of ``blend``
        over seeded specs written into the working directory, keyed as in
        tests/golden/blend_cli.json. Paths are relative, so the bytes do not
        depend on where the directory is."""
        rng = np.random.default_rng(6060)
        base = rng.standard_normal(12)
        near = base * (1.0 + 1e-9) + 4e-8 * rng.standard_normal(12)  # omega about 4e-8
        # unit styles at 0, 0.25 rad and 0.6 rad (in another plane) from
        # e_0, so SLI's two folds sit on both sides of an eps_omega of 0.3
        edge = [np.array([1.0, 0.0, 0.0]), np.array([math.cos(0.25), math.sin(0.25), 0.0]),
                np.array([math.cos(0.6), 0.0, math.sin(0.6)])]
        specs = {}
        for k, d in ((2, 7), (5, 16), (64, 33)):
            vectors = rng.standard_normal((k, d)) * rng.uniform(0.2, 3.0, size=(k, 1))
            weights = rng.uniform(0.0, 2.0, size=k).round(2)
            weights[k // 2] = weights[0]  # a tie, broken by source index
            for method in ("sli", "linear"):
                specs[f"{method}_{k}"] = (method, list(vectors), list(weights), None)
        specs["near_parallel"] = ("sli", [base, near], [0.6, 0.4], None)
        specs["eps_edge"] = ("sli", edge, [0.5, 0.3, 0.2], 0.3)
        specs["antipodal"] = ("sli", [base, -base], [0.5, 0.5], None)
        specs["zero_style"] = ("sli", [base, np.zeros(12)], [0.5, 0.5], None)
        out = {}
        for name, (method, vectors, weights, eps) in specs.items():
            styles = []
            for i, (v, w) in enumerate(zip(vectors, weights)):
                np.save(f"{name}_{i}.npy", v)
                styles.append({"path": f"{name}_{i}.npy", "weight": float(w)})
            spec = {"method": method, "styles": styles}
            if eps is not None:
                spec["eps_omega"] = eps
            Path(f"{name}.json").write_text(json.dumps(spec))
            result = runner.invoke(main, ["blend", "--spec", f"{name}.json", "--out", f"{name}_out.npy"])
            out_file = Path(f"{name}_out.npy")
            out[name] = {
                "exit_code": result.exit_code,
                "stdout": result.stdout,
                "stderr": result.stderr,
                "npy_hex": out_file.read_bytes().hex() if out_file.exists() else None,
            }
        return out

    def test_golden_bytes(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        golden = json.loads((GOLDEN / "blend_cli.json").read_text())
        assert self.golden_outputs(runner) == golden, cpu_note()


class TestWmsCommand:
    def _fixture(self, tmp_path, ms_pair):
        """Generated embedding whose cosine to each basis reference is the
        requested value."""
        residual = math.sqrt(1.0 - ms_pair[0] ** 2 - ms_pair[1] ** 2)
        write_vectors(tmp_path / "gen.npy", np.array([[ms_pair[0], ms_pair[1], residual]]))
        write_vectors(tmp_path / "refs.npy", np.eye(3)[:2])

    def test_single_run_csv(self, runner, tmp_path):
        self._fixture(tmp_path, (0.36150, 0.42156))
        result = runner.invoke(
            main,
            ["wms", "--generated", str(tmp_path / "gen.npy"), "--refs", str(tmp_path / "refs.npy"),
             "--weights", "0.5,0.5", "--ref-names", "med,cub"],
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 1
        assert float(rows[0]["WMS"]) == pytest.approx(0.39153, abs=5e-5)
        assert float(rows[0]["MS_med"]) == pytest.approx(0.36150, abs=1e-9)
        assert set(rows[0]) == {"w_med", "w_cub", "MS_med", "MS_cub", "WMS", "MS_GAP"}

    def test_weights_one_zero(self, runner, tmp_path):
        self._fixture(tmp_path, (0.29891, 0.1))
        result = runner.invoke(
            main,
            ["wms", "--generated", str(tmp_path / "gen.npy"), "--refs", str(tmp_path / "refs.npy"),
             "--weights", "1,0"],
        )
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert float(rows[0]["WMS"]) == pytest.approx(0.29891, abs=1e-9)

    def test_grid_emits_seven_rows(self, runner, tmp_path):
        self._fixture(tmp_path, (0.3, 0.4))
        result = runner.invoke(
            main,
            ["wms", "--generated", str(tmp_path / "gen.npy"), "--refs", str(tmp_path / "refs.npy"),
             "--grid", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        assert len(rows) == 7
        assert [r["w_ref1"] for r in rows] == [0.0, 0.15, 0.25, 0.5, 0.75, 0.85, 1.0]
        for r in rows:
            expected = r["w_ref1"] * r["MS_ref1"] + r["w_ref2"] * r["MS_ref2"]
            assert r["WMS"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n_files", [1, 2])
    def test_grid_loads_each_generated_path_once(self, runner, tmp_path, monkeypatch, n_files):
        self._fixture(tmp_path, (0.3, 0.4))
        gens = [tmp_path / "gen.npy"] + [tmp_path / f"gen{i}.npy" for i in range(1, n_files)]
        for g in gens[1:]:
            write_vectors(g, np.array([[0.1, 0.2, 0.3], [0.5, -0.5, 0.0]]))
        loads = Counter()

        def counting(real):
            def load(path, *args, **kwargs):
                loads[str(path)] += 1
                return real(path, *args, **kwargs)

            return load

        # --refs goes through read_vectors, each --generated path through _load_generated
        monkeypatch.setattr(formats, "read_vectors", counting(formats.read_vectors))
        monkeypatch.setattr(cli, "_load_generated", counting(cli._load_generated))
        # one path reused for all seven rows, or two paths alternating
        paths = [str(gens[0])] if n_files == 1 else [str(gens[i % 2]) for i in range(7)]
        args = ["wms", "--refs", str(tmp_path / "refs.npy"), "--grid", "--format", "json"]
        for p in paths:
            args += ["--generated", p]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["rows"]) == 7
        assert loads == Counter({str(tmp_path / "refs.npy"): 1, **{str(g): 1 for g in gens}})

    @pytest.mark.parametrize("n_files", [1, 2])
    def test_grid_scores_each_generated_set_once(self, runner, tmp_path, monkeypatch, n_files):
        rng = np.random.default_rng(5)
        write_vectors(tmp_path / "refs.npy", rng.standard_normal((2, 6)))
        gens = [tmp_path / f"gen{i}.npy" for i in range(n_files)]
        for g in gens:
            write_vectors(g, rng.standard_normal((9, 6)))
        loaded = []
        scored = []
        real_load, real_ms = cli._load_generated, metrics._mean_similarity

        def counting_load(*args, **kwargs):
            loaded.append(1)
            return real_load(*args, **kwargs)

        def counting_ms(*args, **kwargs):
            scored.append(1)
            return real_ms(*args, **kwargs)

        monkeypatch.setattr(cli, "_load_generated", counting_load)
        monkeypatch.setattr(metrics, "_mean_similarity", counting_ms)
        paths = [str(gens[i % n_files]) for i in range(len(cli.WEIGHT_GRID))]
        args = ["wms", "--refs", str(tmp_path / "refs.npy"), "--grid", "--format", "json"]
        for p in paths:
            args += ["--generated", p]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert (len(loaded), len(scored)) == (n_files, 2 * n_files)
        monkeypatch.undo()

        refs = read_vectors(tmp_path / "refs.npy", rows=True)
        for row, w, p in zip(json.loads(result.output)["rows"], cli.WEIGHT_GRID, paths):
            report = metrics.wms_score(
                metrics.EmbeddingSet(
                    generated=tuple(read_vectors(p, rows=True)),
                    references=tuple(
                        metrics.ReferenceStyle(name=nm, embedding=emb, weight=wt)
                        for nm, emb, wt in zip(("ref1", "ref2"), refs, w)
                    ),
                )
            )
            assert row == {
                "w_ref1": w[0],
                "w_ref2": w[1],
                "MS_ref1": report.per_style_ms["ref1"],
                "MS_ref2": report.per_style_ms["ref2"],
                "WMS": report.wms,
                "MS_GAP": report.ms_gap,
            }

    def test_grid_reproduces_published_sli_column(self, runner, tmp_path):
        # one fixture per grid row carrying that row's measured MS pair
        rows_ms = [
            (0.0, 0.47552), (0.32595, 0.47072), (0.33046, 0.45447), (0.36150, 0.42156),
            (0.34648, 0.35099), (0.36513, 0.38286), (0.29891, 0.0),
        ]
        printed_wms = [0.47552, 0.44900, 0.42347, 0.39153, 0.34760, 0.36779, 0.29891]
        write_vectors(tmp_path / "refs.npy", np.eye(3)[:2])
        args = ["wms", "--refs", str(tmp_path / "refs.npy"), "--grid", "--ref-names", "med,cub",
                "--format", "json"]
        for i, (m1, m2) in enumerate(rows_ms):
            residual = math.sqrt(1.0 - m1 * m1 - m2 * m2)
            write_vectors(tmp_path / f"gen_{i}.npy", np.array([[m1, m2, residual]]))
            args += ["--generated", str(tmp_path / f"gen_{i}.npy")]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        for row, expected in zip(rows, printed_wms):
            assert row["WMS"] == pytest.approx(expected, abs=5e-5)

    def test_empty_generated_dir_exit_2(self, runner, tmp_path):
        gen_dir = tmp_path / "gen"
        gen_dir.mkdir()
        write_vectors(tmp_path / "refs.npy", np.eye(2))
        result = runner.invoke(
            main,
            ["wms", "--generated", str(gen_dir), "--refs", str(tmp_path / "refs.npy"),
             "--weights", "0.5,0.5"],
        )
        assert result.exit_code == 2

    def test_csv_quoting_rfc4180(self, runner, tmp_path):
        self._fixture(tmp_path, (0.3, 0.4))
        result = runner.invoke(
            main,
            ["wms", "--generated", str(tmp_path / "gen.npy"), "--refs", str(tmp_path / "refs.npy"),
             "--weights", "0.5,0.5", "--ref-names", 'a"x,b'],
        )
        # the first name contains a quote; csv must escape it and the reader
        # must round-trip it
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert 'MS_a"x' in rows[0]


    @pytest.mark.parametrize("n", [3, 257])
    def test_grid_builds_only_the_reference_vectors(self, runner, tmp_path, monkeypatch, n):
        rng = np.random.default_rng(n)
        write_vectors(tmp_path / "refs.npy", rng.standard_normal((2, 8)))
        write_vectors(tmp_path / "gen.npy", rng.standard_normal((n, 8)))
        built = []
        real_post_init = LatentVector.__post_init__
        real_rows = formats._rows

        def counting(self):
            built.append(1)
            real_post_init(self)

        def counting_rows(matrix):
            rows = real_rows(matrix)
            built.extend(1 for _ in rows)
            return rows

        # a LatentVector is built by its constructor or, as a row view of a
        # file, by tensorcore._rows, which formats calls
        monkeypatch.setattr(LatentVector, "__post_init__", counting)
        monkeypatch.setattr(formats, "_rows", counting_rows)
        result = runner.invoke(
            main,
            ["wms", "--generated", str(tmp_path / "gen.npy"), "--refs", str(tmp_path / "refs.npy"), "--grid"],
        )
        assert result.exit_code == 0, result.output
        assert len(built) == 2

    def test_directory_dimension_mismatch_exit_2(self, runner, tmp_path):
        gen_dir = tmp_path / "gen"
        gen_dir.mkdir()
        write_vectors(gen_dir / "a.npy", np.ones((2, 3)))
        write_vectors(gen_dir / "b.npy", np.ones(4))
        write_vectors(tmp_path / "refs.npy", np.eye(3)[:2])
        result = runner.invoke(
            main,
            ["wms", "--generated", str(gen_dir), "--refs", str(tmp_path / "refs.npy"), "--weights", "1,1"],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "b.npy has d_z=4, expected 3" in result.stderr

    @staticmethod
    def golden_outputs(runner, tmp_path) -> dict:
        """Stdout bytes of a --grid JSON run on a seeded (300, 48) <f8 file,
        and of a --weights CSV run over a directory that mixes <f4 2-D parts
        with a 1-D <f8 file, keyed as in tests/golden/wms_cli.json."""
        rng = np.random.default_rng(4242)
        refs = rng.standard_normal((2, 48))
        mix = rng.uniform(0.0, 1.0, size=(300, 1))
        np.save(tmp_path / "refs.npy", refs)
        np.save(tmp_path / "gen.npy", mix * refs[0] + (1.0 - mix) * refs[1] + 1.5 * rng.standard_normal((300, 48)))
        parts = tmp_path / "parts"
        parts.mkdir()
        for i in range(5):
            part = refs[i % 2] + 2.0 * rng.standard_normal((1 + i, 48))
            np.save(parts / f"part_{i}.npy", part.astype("<f4"))
        np.save(parts / "part_2_single.npy", refs[0] + rng.standard_normal(48))  # sorts between parts 2 and 3
        refs_arg = ["--refs", str(tmp_path / "refs.npy")]
        commands = {
            "grid_json": ["wms", "--generated", str(tmp_path / "gen.npy"), *refs_arg, "--grid", "--format", "json"],
            "weights_csv": ["wms", "--generated", str(parts), *refs_arg, "--weights", "0.3,0.9", "--ref-names", "a,b"],
        }
        out = {}
        for key, args in commands.items():
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            out[key] = result.stdout_bytes.decode("utf-8")
        return out

    def test_loaded_matrix_is_scored_in_place(self, runner, tmp_path, monkeypatch):
        # the set freezes the matrix the CLI loaded rather than copying it
        self._fixture(tmp_path, (0.36150, 0.42156))
        loaded, scored = [], []
        real_load, real_score = cli._load_generated, metrics.wms_score

        def load(path):
            loaded.append(real_load(path))
            return loaded[-1]

        def score(es):
            scored.append(es)
            return real_score(es)

        monkeypatch.setattr(cli, "_load_generated", load)
        monkeypatch.setattr(metrics, "wms_score", score)
        result = runner.invoke(
            main, ["wms", "--generated", str(tmp_path / "gen.npy"), "--refs", str(tmp_path / "refs.npy"), "--grid"]
        )
        assert result.exit_code == 0, result.output
        assert len(loaded) == 1 and len(scored) == len(cli.WEIGHT_GRID)
        assert all(es.generated is loaded[0] and es._rec is scored[0]._rec for es in scored)
        assert not loaded[0].flags.writeable

    def test_golden_bytes(self, runner, tmp_path):
        golden = json.loads((GOLDEN / "wms_cli.json").read_text())
        assert self.golden_outputs(runner, tmp_path) == golden, cpu_note()


class TestAttendCommand:
    def test_identity_rescale_matches_defaults(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, 3))
        write_vectors(tmp_path / "self.npy", base[rng.permutation(4)])
        write_vectors(tmp_path / "ref.npy", base)
        args = ["attend", "--self", str(tmp_path / "self.npy"), "--ref", str(tmp_path / "ref.npy")]
        explicit = runner.invoke(main, args + ["--mu", "0", "--sigma", "1"])
        default = runner.invoke(main, args)
        assert explicit.exit_code == 0 and default.exit_code == 0
        assert json.loads(explicit.output) == json.loads(default.output)

    def test_auto_classify_famous(self, runner, tmp_path):
        write_vectors(tmp_path / "self.npy", np.random.default_rng(7).normal(size=(3, 4)))
        write_vectors(tmp_path / "ref.npy", np.eye(4, 4))  # unit-norm rows
        result = runner.invoke(
            main,
            ["attend", "--self", str(tmp_path / "self.npy"), "--ref", str(tmp_path / "ref.npy"),
             "--auto-classify", "--threshold", "0.5"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["classification"] == "famous"
        assert payload["mu"] == 0.0
        assert payload["sigma"] == 0.5

    def test_lambda_weights_closed_form(self, runner, tmp_path):
        write_vectors(tmp_path / "q.npy", np.array([1.0]))
        write_vectors(tmp_path / "b.npy", np.array([1.0]))
        result = runner.invoke(
            main,
            ["attend", "--self", str(tmp_path / "q.npy"),
             "--ref", str(tmp_path / "b.npy"), "--ref", str(tmp_path / "b.npy"),
             "--lambda-weights", "1,3"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["block_mass"][0] == pytest.approx(0.37754, abs=1e-5)
        assert payload["block_mass"][1] == pytest.approx(0.62246, abs=1e-5)
        assert payload["lambdas"] == [0.25, 0.75]

    def test_lambda_weights_print_the_applied_lambdas(self, runner, tmp_path):
        # the kernel divides by fsum(w) = 0.6; a plain sum is 0.6000000000000001
        write_vectors(tmp_path / "b.npy", np.array([1.0]))
        b = str(tmp_path / "b.npy")
        result = runner.invoke(
            main, ["attend", "--self", b, "--ref", b, "--ref", b, "--ref", b, "--lambda-weights", "0.1,0.2,0.3"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["lambdas"] == [0.16666666666666669, 0.33333333333333337, 0.5]

    def test_lambda_weights_read_each_file_once(self, runner, tmp_path, monkeypatch):
        # one read of --self and one of each --ref, whose matrix is the block's K and V
        for name in ("q", "a", "b"):
            write_vectors(tmp_path / f"{name}.npy", np.eye(3))
        reads = Counter()
        real = formats._read_header

        def counting(path):
            reads[Path(path).name] += 1
            return real(path)

        monkeypatch.setattr(formats, "_read_header", counting)
        result = runner.invoke(
            main,
            ["attend", "--self", str(tmp_path / "q.npy"), "--ref", str(tmp_path / "a.npy"),
             "--ref", str(tmp_path / "b.npy"), "--lambda-weights", "1,2"],
        )
        assert result.exit_code == 0, result.output
        assert reads == {"q.npy": 1, "a.npy": 1, "b.npy": 1}

    @pytest.mark.parametrize(
        "flags, name",
        [(["--mu", "nan"], "mu"), (["--mu", "-inf"], "mu"), (["--sigma", "inf"], "sigma"), (["--sigma", "nan"], "sigma")],
    )
    def test_non_finite_rescale_exit_2(self, runner, tmp_path, flags, name):
        write_vectors(tmp_path / "m.npy", np.eye(2))
        m = str(tmp_path / "m.npy")
        result = runner.invoke(main, ["attend", "--self", m, "--ref", m, *flags])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {name} must be finite")

    @staticmethod
    def golden_outputs(runner, tmp_path) -> dict:
        """Stdout bytes of shared attention with the default and an explicit
        rescale, of --auto-classify on a normal and a famous reference, and
        of a three-block --lambda-weights run, keyed as in
        tests/golden/attend_cli.json. The self tokens outnumber a 64-row tile."""
        rng = np.random.default_rng(1111)
        paths = {}
        for name, rows, scale in [("self", 150, 1.0), ("ref", 120, 1.0), ("quiet", 90, 0.05), ("loud", 90, 0.5),
                                  ("b1", 40, 1.0), ("b2", 60, 0.7), ("b3", 90, 1.3)]:
            paths[name] = str(tmp_path / f"{name}.npy")
            np.save(paths[name], scale * rng.standard_normal((rows, 24)))
        shared = ["attend", "--self", paths["self"], "--ref"]
        commands = {
            "shared_default": [*shared, paths["ref"]],
            "shared_rescale": [*shared, paths["ref"], "--mu", "0.4", "--sigma", "0.7"],
            "auto_normal": [*shared, paths["quiet"], "--auto-classify"],
            "auto_famous": [*shared, paths["loud"], "--auto-classify"],
            "lambda_three": [*shared, paths["b1"], "--ref", paths["b2"], "--ref", paths["b3"],
                             "--lambda-weights", "0.5,1.5,1"],
        }
        out = {}
        for key, args in commands.items():
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            out[key] = result.stdout_bytes.decode("utf-8")
        return out

    def test_golden_bytes(self, runner, tmp_path):
        golden = json.loads((GOLDEN / "attend_cli.json").read_text())
        assert self.golden_outputs(runner, tmp_path) == golden, cpu_note()

    @pytest.mark.parametrize(
        "own, extra",
        [("big", ["--lambda-weights", "1"]), ("ok", []), ("big", [])],
        ids=["lambda", "shared-ok-self", "shared-big-self"],
    )
    def test_overflowing_logits_exit_3_without_warnings(self, runner, tmp_path, own, extra):
        np.save(tmp_path / "big.npy", np.full((5, 4), 1e200))
        np.save(tmp_path / "ok.npy", np.random.default_rng(0).normal(size=(5, 4)))
        args = ["attend", "--self", str(tmp_path / f"{own}.npy"), "--ref", str(tmp_path / "big.npy"), *extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: attention logits overflowed float64: a row's largest logit is not finite\n"

    def test_huge_sigma_exits_0_without_warnings(self, runner, tmp_path):
        rng = np.random.default_rng(9)
        np.save(tmp_path / "self.npy", rng.normal(scale=0.5, size=(4, 3)))
        np.save(tmp_path / "ref.npy", rng.normal(scale=0.5, size=(4, 3)))
        args = ["attend", "--self", str(tmp_path / "self.npy"), "--ref", str(tmp_path / "ref.npy"), "--sigma", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert json.loads(result.stdout)["ref_mass"] == 1.0

    def test_conflicting_flags_exit_2(self, runner, tmp_path):
        write_vectors(tmp_path / "m.npy", np.eye(2))
        result = runner.invoke(
            main,
            ["attend", "--self", str(tmp_path / "m.npy"), "--ref", str(tmp_path / "m.npy"),
             "--auto-classify", "--mu", "0.5"],
        )
        assert result.exit_code == 2


class TestFuseCommand:
    LONG = "one two three four five six seven eight nine ten eleven twelve"

    def _inputs(self, tmp_path, entries):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(entries))
        return path

    def test_short_inputs_concatenate(self, runner, tmp_path):
        inputs = self._inputs(tmp_path, [
            {"modality": "image", "text": "a castle"},
            {"modality": "weather", "condition": "rain", "temperature_c": 5.0, "wind_mps": 2.0},
        ])
        result = runner.invoke(main, ["fuse", "--inputs", str(inputs)])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "a castle, rain, 5.0 degrees, wind 2.0 m/s"

    def test_music_resolves_to_best_query(self, runner, tmp_path):
        embedding = [0.0] * 24
        embedding[3] = 1.0
        inputs = self._inputs(tmp_path, [{"modality": "music", "embedding": embedding}])
        result = runner.invoke(main, ["fuse", "--inputs", str(inputs), "--explain"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["prompt"] == "gritty and rebellious"
        assert payload["decisions"][0]["best_query"]["index"] == 3

    def test_fixture_substitution(self, runner, tmp_path):
        fixture = tmp_path / "fix.json"
        fixture.write_text(json.dumps({self.LONG: "short caption"}))
        inputs = self._inputs(tmp_path, [
            {"modality": "image", "text": self.LONG},
            {"modality": "text", "text": "rain"},
        ])
        result = runner.invoke(main, ["fuse", "--inputs", str(inputs), "--provider", str(fixture)])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "short caption, rain"

    def test_provider_unavailable_exit_4(self, runner, tmp_path):
        inputs = self._inputs(tmp_path, [{"modality": "image", "text": self.LONG}])
        result = runner.invoke(
            main, ["fuse", "--inputs", str(inputs), "--provider", str(tmp_path / "nope.json")]
        )
        assert result.exit_code == 4
        assert "image" in result.output

    def test_provider_failure_exit_5(self, runner, tmp_path):
        fixture = tmp_path / "fix.json"
        fixture.write_text("{ bad json")
        inputs = self._inputs(tmp_path, [{"modality": "image", "text": self.LONG}])
        result = runner.invoke(main, ["fuse", "--inputs", str(inputs), "--provider", str(fixture)])
        assert result.exit_code == 5

    def test_provider_timeout_exit_5(self, runner, tmp_path, monkeypatch):
        script = tmp_path / "slow.py"
        script.write_text("import time\ntime.sleep(30)\n")
        inputs = self._inputs(tmp_path, [{"modality": "image", "text": self.LONG}])
        monkeypatch.setattr(fusion, "PROVIDER_TIMEOUT_S", 0.5)
        start = time.monotonic()
        result = runner.invoke(main, ["fuse", "--inputs", str(inputs), "--provider-kind", "external_command",
                                      "--provider", f"{sys.executable} {script}"])
        assert result.exit_code == 5, result.output
        assert result.stderr.startswith("error: [modality=image] provider did not answer within 0.5 s")
        assert time.monotonic() - start < 15

    def test_config_defaults_come_from_the_dataclass(self):
        @dataclasses.dataclass(frozen=True)
        class Config(FusionConfig):
            verbosity_threshold_k: int = 7

        loaded = decode(Config, {"paraphrase": {"l_max": 40}}, "fusion config")
        assert loaded.verbosity_threshold_k == 7
        assert loaded.paraphrase == dataclasses.replace(ParaphraseParams(), l_max=40)

    def test_non_utf8_fixture_exit_5(self, runner, tmp_path):
        fixture = tmp_path / "fix.json"
        fixture.write_bytes(b"\xff\xfe")
        inputs = self._inputs(tmp_path, [{"modality": "image", "text": self.LONG}])
        result = runner.invoke(main, ["fuse", "--inputs", str(inputs), "--provider", str(fixture)])
        assert result.exit_code == 5, result.output
        assert result.stderr.startswith("error:")
        assert result.stdout == ""

    def test_config_threshold_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verbosity_threshold_k": 20}))
        inputs = self._inputs(tmp_path, [{"modality": "image", "text": self.LONG}])
        # 12 words stay under the raised threshold, so no provider is needed
        result = runner.invoke(main, ["fuse", "--inputs", str(inputs), "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == self.LONG

    def test_env_var_provider(self, runner, tmp_path):
        fixture = tmp_path / "fix.json"
        fixture.write_text(json.dumps({self.LONG: "via env"}))
        inputs = self._inputs(tmp_path, [{"modality": "image", "text": self.LONG}])
        result = runner.invoke(
            main, ["fuse", "--inputs", str(inputs)], env={"LBK_PROVIDER": str(fixture)}
        )
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "via env"


class TestOverflowAndNesting:
    """Inputs whose numbers overflow float64, or whose JSON or NPY header
    nests deeper than a parser can follow, exit with their code and print
    no numpy warning; the scores of huge vectors are those of the scaled
    fallback, bit for bit."""

    NESTED = "[" * 200_000 + "]" * 200_000
    # name: (arguments, exit code, the whole stdout at exit 0, else a part of stderr)
    CASES = {
        "fuse-nested-fixture": (["fuse", "--inputs", "in.json", "--provider", "nested.json"], 5, "nested too deeply"),
        "fuse-nested-reply": (
            ["fuse", "--inputs", "in.json", "--provider-kind", "external_command",
             "--provider", f"{sys.executable} nested.py"],
            5,
            "nested too deeply",
        ),
        "npy-nested-sum": (["attend", "--self", "sum.npy", "--ref", "ok.npy"], 2, "(byte offset 10)"),
        "npy-nested-negation": (["attend", "--self", "negation.npy", "--ref", "ok.npy"], 2, "(byte offset 10)"),
        "attend-adain": (["attend", "--self", "spread.npy", "--ref", "ok.npy"], 3, "AdaIN statistics overflowed"),
        "attend-auto-classify": (
            ["attend", "--self", "ok.npy", "--ref", "huge.npy", "--auto-classify"],
            3,
            "attention logits overflowed",
        ),
        "wms": (
            ["wms", "--generated", "gen.npy", "--refs", "refs.npy", "--weights", "1,3"],
            0,
            "w_ref1,w_ref2,MS_ref1,MS_ref2,WMS,MS_GAP\n"
            "1.0,3.0,0.541595652597734,-0.4812655007557783,-0.22555021241740023,1.0228611533535124\n",
        ),
        "fuse-huge-music": (["fuse", "--inputs", "music.json"], 0, "dark and intense\n"),
        "blend": (
            ["blend", "--spec", "spec.json", "--out", "blend.npy"],
            0,
            '{"method": "sli", "order_used": [1, 0], "omega_trace": [0.7520400891923356],'
            ' "norm": 2.3818196968407677e+200, "out": "blend.npy"}\n',
        ),
        # finite entries whose norm is past the float64 max
        "wms-norm-past-the-max": (
            ["wms", "--generated", "max.npy", "--refs", "max_refs.npy", "--weights", "1,3"],
            0,
            "w_ref1,w_ref2,MS_ref1,MS_ref2,WMS,MS_GAP\n"
            "1.0,3.0,1.0,0.7071067811865476,0.7803300858899107,0.2928932188134524\n",
        ),
        "blend-norm-past-the-max": (
            ["blend", "--spec", "max_spec.json", "--out", "max_blend.npy"],
            3,
            "the blended vector's norm overflowed float64",
        ),
    }

    @staticmethod
    def _inputs(tmp_path):
        rng = np.random.default_rng(0)
        (tmp_path / "in.json").write_text(json.dumps([{"modality": "image", "text": TestFuseCommand.LONG}]))
        (tmp_path / "nested.json").write_text(TestOverflowAndNesting.NESTED)
        (tmp_path / "music.json").write_text(json.dumps([{"modality": "music", "embedding": [1e200] * 24}]))
        (tmp_path / "nested.py").write_text(
            "import sys\nsys.stdin.read()\nsys.stdout.write('[' * 200_000 + ']' * 200_000)\n"
        )
        for name, header in (("sum", "1+" * 20000 + "1"), ("negation", "-" * 60000 + "1")):
            header = header.encode("latin-1") + b"\n"
            (tmp_path / f"{name}.npy").write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header)
        write_vectors(tmp_path / "ok.npy", rng.normal(size=(5, 4)))
        write_vectors(tmp_path / "spread.npy", 1e200 * rng.normal(size=(5, 4)))  # its squares overflow
        write_vectors(tmp_path / "huge.npy", np.full((5, 4), 1e200))
        write_vectors(tmp_path / "gen.npy", np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [3e200, 4e200, 1.0]]))
        write_vectors(tmp_path / "refs.npy", np.array([[1e200, 1e200, 1e200], [-2e200, 1e200, 0.0]]))
        write_vectors(tmp_path / "a.npy", np.array([1e200, 2e200, 0.0]))
        write_vectors(tmp_path / "b.npy", np.array([2e200, 1e200, 1e200]))
        styles = [{"path": "a.npy", "weight": 1.0}, {"path": "b.npy", "weight": 2.0}]
        (tmp_path / "spec.json").write_text(json.dumps({"method": "sli", "styles": styles}))
        biggest = np.finfo(np.float64).max
        write_vectors(tmp_path / "max.npy", np.array([biggest, biggest]))
        write_vectors(tmp_path / "max_refs.npy", np.array([[biggest, biggest], [biggest, 0.0]]))
        styles = [{"path": "max.npy", "weight": 1.0}, {"path": "max.npy", "weight": 2.0}]
        (tmp_path / "max_spec.json").write_text(json.dumps({"method": "linear", "styles": styles}))

    @pytest.mark.parametrize("case", CASES.keys())
    def test_exit_code_and_no_warning(self, runner, tmp_path, monkeypatch, case):
        args, code, expected = self.CASES[case]
        self._inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert "Warning" not in result.stderr
        if code == 0:
            assert (result.stdout, result.stderr) == (expected, "")
        else:
            assert result.stderr.startswith("error: ") and expected in result.stderr, result.stderr
            assert "--out" not in args or not (tmp_path / args[args.index("--out") + 1]).exists()


class TestSandboxCommand:
    def test_dump_schedule_endpoints(self, runner):
        result = runner.invoke(main, ["sandbox", "--dump-schedule"])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 50
        assert float(rows[0]["beta"]) == 0.00085
        assert float(rows[-1]["beta"]) == 0.012

    def test_json_report_deterministic(self, runner):
        a = runner.invoke(main, ["sandbox", "--format", "json"])
        b = runner.invoke(main, ["sandbox", "--format", "json"])
        assert a.exit_code == 0 and b.exit_code == 0
        assert a.output == b.output

    def test_guidance_grid_monotone(self, runner):
        result = runner.invoke(main, ["sandbox", "--guidance-grid", "--format", "json"])
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        finals = [r["final_stat_distance"] for r in rows]
        assert [r["guidance"] for r in rows] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        assert all(b <= a for a, b in zip(finals, finals[1:]))

    def test_guidance_grid_matches_sweep_golden(self, runner):
        golden = json.loads((GOLDEN / "sandbox_guidance_sweep.json").read_text())
        result = runner.invoke(main, ["sandbox", "--guidance-grid", "--format", "json"])
        assert result.exit_code == 0, result.output
        finals = {str(int(r["guidance"])): r["final_stat_distance"] for r in json.loads(result.output)["rows"]}
        assert finals == golden, cpu_note()

    def test_guidance_grid_rescale_golden(self, runner, tmp_path):
        # a shape no other golden pins, a linear schedule and a damped,
        # shifted reference block; captured from one run per guidance value
        golden = json.loads((GOLDEN / "sandbox_grid_rescale.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(golden["config"]))
        result = runner.invoke(main, ["sandbox", "--config", str(cfg), "--guidance-grid", "--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["rows"] == golden["rows"], cpu_note()

    def test_bad_config_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_images": 1}))
        result = runner.invoke(main, ["sandbox", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_overrides_and_ignored_schedule_keys(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "schedule": {"steps": 5, "clip_sample": True, "set_alpha_to_one": True},
        }))
        with_keys = runner.invoke(main, ["sandbox", "--config", str(cfg), "--seed", "4",
                                         "--guidance", "20", "--format", "json"])
        cfg.write_text(json.dumps({"seed": 4, "guidance_scale": 20, "schedule": {"steps": 5}}))
        plain = runner.invoke(main, ["sandbox", "--config", str(cfg), "--format", "json"])
        assert with_keys.exit_code == 0 and plain.exit_code == 0, with_keys.output
        assert with_keys.output == plain.output

    @pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b"\xff\xfe"])
    def test_malformed_config_exit_2(self, runner, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        result = runner.invoke(main, ["sandbox", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: sandbox config ")

    @pytest.mark.parametrize(
        "rescale, name",
        [('{"mu": NaN}', "mu"), ('{"mu": -Infinity}', "mu"), ('{"sigma": Infinity}', "sigma")],
    )
    def test_non_finite_rescale_config_exit_2(self, runner, tmp_path, rescale, name):
        # json reads NaN and Infinity, which strict JSON output cannot carry
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rescale": %s}' % rescale)
        result = runner.invoke(main, ["sandbox", "--config", str(cfg), "--format", "json"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert f"{name} must be finite" in result.stderr

    @pytest.mark.parametrize("flags", [["--format", "json"], ["--format", "csv"], ["--guidance-grid"]])
    def test_overflowing_config_exit_3_naming_the_step(self, runner, tmp_path, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rescale": {"sigma": 1e308}}))
        result = runner.invoke(main, ["sandbox", "--config", str(cfg), *flags])
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.stderr.startswith("error: sandbox step 0 of 50 has a non-finite stat distance (nan)")
        assert result.stdout == ""

    def test_config_defaults_come_from_the_dataclass(self):
        @dataclasses.dataclass(frozen=True)
        class Config(SandboxConfig):
            rescale: RescaleParams = RescaleParams(mu=0.25, sigma=2.0)

        assert decode(Config, {"rescale": {"sigma": 0.5}}, "sandbox config").rescale == RescaleParams(mu=0.25, sigma=0.5)
        assert decode(Config, {"rescale": {}}, "sandbox config").rescale == Config().rescale

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["sandbox", "--format", "json", "--output", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert "final_stat_distance" in payload


@pytest.mark.parametrize(
    "args",
    [
        ["catalog"],
        ["catalog", "--which", "prompts", "--format", "json"],
        ["sandbox", "--dump-schedule"],
    ],
)
def test_output_into_missing_directory_exit_2(runner, tmp_path, args):
    result = runner.invoke(main, [*args, "--output", str(tmp_path / "missing" / "x.csv")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, message",
    [
        (["wms", "--generated", "no.npy", "--refs", "no.npy", "--grid", "--weights", "5,7"],
         "--grid conflicts with --weights"),
        (["attend", "--self", "no.npy", "--ref", "no.npy", "--lambda-weights", "1", "--mu", "3", "--sigma", "9"],
         "--lambda-weights conflicts with --auto-classify/--mu/--sigma"),
        (["attend", "--self", "no.npy", "--ref", "no.npy", "--lambda-weights", "1", "--auto-classify"],
         "--lambda-weights conflicts with --auto-classify/--mu/--sigma"),
        (["attend", "--self", "no.npy", "--ref", "no.npy", "--auto-classify", "--mu", "3"],
         "--auto-classify conflicts with explicit --mu/--sigma"),
        (["sandbox", "--guidance", "99", "--guidance-grid"], "--guidance-grid conflicts with --guidance/--dump-schedule"),
        (["sandbox", "--dump-schedule", "--guidance-grid"], "--guidance-grid conflicts with --guidance/--dump-schedule"),
        (["sandbox", "--dump-schedule", "--guidance", "99", "--seed", "3"], "--dump-schedule conflicts with --seed/--guidance"),
        (["sandbox", "--dump-schedule", "--seed", "3"], "--dump-schedule conflicts with --seed/--guidance"),
        (["attend", "--self", "no.npy", "--ref", "no.npy", "--threshold", "0.9", "--mu", "0"],
         "--threshold is read only with --auto-classify"),
        (["attend", "--self", "no.npy", "--ref", "no.npy", "--threshold", "0.5"], "--threshold is read only with --auto-classify"),
        (["fuse", "--inputs", "no.json", "--provider-kind", "external_command"],
         "--provider-kind is read only with --provider or LBK_PROVIDER"),
    ],
    ids=["wms-grid-weights", "attend-lambda-mu-sigma", "attend-lambda-auto", "attend-auto-mu", "sandbox-grid-guidance",
         "sandbox-grid-dump", "sandbox-dump-guidance-seed", "sandbox-dump-seed", "attend-threshold-mu",
         "attend-threshold-default-value", "fuse-provider-kind"],
)
def test_options_the_mode_ignores_exit_2(runner, tmp_path, monkeypatch, args, message):
    # checked before any input is read, so the missing files do not hide the conflict
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LBK_PROVIDER", raising=False)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert (result.stdout, result.stderr) == ("", f"error: {message}\n")


#: For each command, a value other than the default of each of its options
#: (None for a flag). The input paths do not exist.
OPTION_VALUES = {
    "blend": {"--spec": "no.json", "--out": "out.npy", "--output": "out.txt"},
    "wms": {"--generated": "no.npy", "--refs": "no.npy", "--ref-names": "a,b", "--weights": "1,1", "--grid": None,
            "--format": "json", "--output": "out.txt"},
    "attend": {"--self": "no.npy", "--ref": "no.npy", "--mu": "3", "--sigma": "9", "--auto-classify": None,
               "--threshold": "0.9", "--lambda-weights": "1", "--output": "out.txt"},
    "fuse": {"--inputs": "no.json", "--config": "no.json", "--provider": "no.json",
             "--provider-kind": "external_command", "--catalog": "no.json", "--explain": None, "--output": "out.txt"},
    "sandbox": {"--config": "no.json", "--seed": "3", "--guidance": "99", "--dump-schedule": None,
                "--guidance-grid": None, "--format": "json", "--output": "out.txt"},
    "catalog": {"--which": "prompts", "--path": "no.json", "--format": "json", "--output": "out.txt"},
}

#: For each command, each of its modes: the options that select it, and the
#: other options it reads. An option that selects another mode is read.
MODES = {
    "blend": {"blend": (["--spec", "--out"], {"--output"})},
    "wms": {
        "grid": (["--generated", "--refs", "--grid"], {"--ref-names", "--format", "--output"}),
        "weights": (["--generated", "--refs", "--weights"], {"--ref-names", "--format", "--output"}),
    },
    "attend": {
        "shared": (["--self", "--ref"], {"--mu", "--sigma", "--auto-classify", "--lambda-weights", "--output"}),
        "auto": (["--self", "--ref", "--auto-classify"], {"--threshold", "--output"}),
        "lambda": (["--self", "--ref", "--lambda-weights"], {"--output"}),
    },
    "fuse": {
        "no-provider": (["--inputs"], {"--provider", "--config", "--catalog", "--explain", "--output"}),
        "provider": (["--inputs", "--provider"], {"--provider-kind", "--config", "--catalog", "--explain", "--output"}),
    },
    "sandbox": {
        "run": (["--config"], {"--seed", "--guidance", "--dump-schedule", "--guidance-grid", "--format", "--output"}),
        "dump": (["--config", "--dump-schedule"], {"--format", "--output"}),
        "grid": (["--config", "--guidance-grid"], {"--seed", "--format", "--output"}),
    },
    "catalog": {"catalog": (["--path"], {"--which", "--format", "--output"})},
}


def test_option_tables_name_every_option():
    assert set(OPTION_VALUES) == set(MODES) == set(main.commands)
    for name, command in main.commands.items():
        options = {p.opts[0] for p in command.params if isinstance(p, click.Option)}
        assert set(OPTION_VALUES[name]) == options, name
        for selectors, reads in MODES[name].values():
            assert set(selectors) | reads <= options, name


def _unread_options():
    for command, modes in MODES.items():
        for mode, (selectors, reads) in modes.items():
            for option in OPTION_VALUES[command]:
                if option not in selectors and option not in reads:
                    yield pytest.param(command, selectors, option, id=f"{command}-{mode}-{option[2:]}")


@pytest.mark.parametrize("command, selectors, option", list(_unread_options()))
def test_every_option_a_mode_does_not_read_exits_2(runner, tmp_path, monkeypatch, command, selectors, option):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LBK_PROVIDER", raising=False)
    args = [command]
    for name in [*selectors, option]:
        value = OPTION_VALUES[command][name]
        args += [name] if value is None else [name, value]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    # checked before any input is read: the error names the option, not a missing file
    assert result.stdout == "" and result.stderr.startswith("error: --") and option in result.stderr, result.stderr
    assert list(tmp_path.iterdir()) == []


def test_output_through_symlink_keeps_the_link(runner, tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    result = runner.invoke(main, ["catalog", "--output", str(link)])
    assert result.exit_code == 0, result.output
    assert link.is_symlink()
    assert real.read_text() == runner.invoke(main, ["catalog"]).output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_output_to_fifo_is_written_in_place(runner, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    result = runner.invoke(main, ["catalog", "--output", str(fifo)])
    reader.join(timeout=10)
    assert result.exit_code == 0, result.output
    assert received == [runner.invoke(main, ["catalog"]).output]
    assert list(tmp_path.iterdir()) == [fifo]


def _output_inputs(tmp_path):
    """Seeded inputs, in the working directory, for every command of
    ``OUTPUT_CASES``."""
    rng = np.random.default_rng(77)
    _write_unit_styles(tmp_path)
    _blend_spec(tmp_path, "sli", [0.3, 0.7])
    write_vectors(tmp_path / "gen.npy", rng.normal(size=(6, 3)))
    write_vectors(tmp_path / "refs.npy", rng.normal(size=(2, 3)))
    for name, rows in (("self", 5), ("ref", 4), ("b1", 3), ("b2", 2)):
        write_vectors(tmp_path / f"{name}.npy", rng.normal(size=(rows, 3)))
    embedding = [0.0] * 24
    embedding[5] = 1.0
    (tmp_path / "in.json").write_text(json.dumps([
        {"modality": "image", "text": TestFuseCommand.LONG},
        {"modality": "music", "embedding": embedding},
        {"modality": "weather", "condition": "fog", "temperature_c": 3.5, "wind_mps": 1.0},
    ]))
    (tmp_path / "fix.json").write_text(json.dumps({TestFuseCommand.LONG: "a quiet harbour, \"misty\""}))
    (tmp_path / "escape.json").write_text(json.dumps([{"modality": "text", "text": "\x1b[31mred\x1b[0m"}]))


# name: the arguments of one command whose output may go to --output
OUTPUT_CASES = {
    "blend": ["blend", "--spec", "spec.json", "--out", "blend.npy"],
    "wms-csv": ["wms", "--generated", "gen.npy", "--refs", "refs.npy", "--weights", "0.4,0.6",
                "--ref-names", 'a"x,b'],
    "wms-json": ["wms", "--generated", "gen.npy", "--refs", "refs.npy", "--grid", "--format", "json"],
    "attend-shared": ["attend", "--self", "self.npy", "--ref", "ref.npy", "--auto-classify"],
    "attend-lambda": ["attend", "--self", "self.npy", "--ref", "b1.npy", "--ref", "b2.npy",
                      "--lambda-weights", "1,2"],
    "fuse": ["fuse", "--inputs", "in.json", "--provider", "fix.json"],
    "fuse-explain": ["fuse", "--inputs", "in.json", "--provider", "fix.json", "--explain"],
    "fuse-escape-codes": ["fuse", "--inputs", "escape.json"],
    "sandbox-json": ["sandbox", "--format", "json"],
    "sandbox-csv": ["sandbox"],
    "sandbox-schedule": ["sandbox", "--dump-schedule"],
    "sandbox-schedule-json": ["sandbox", "--dump-schedule", "--format", "json"],
    "sandbox-grid": ["sandbox", "--guidance-grid"],
    "catalog-queries-csv": ["catalog", "--which", "queries"],
    "catalog-queries-json": ["catalog", "--which", "queries", "--format", "json"],
    "catalog-prompts-csv": ["catalog", "--which", "prompts"],
    "catalog-prompts-json": ["catalog", "--which", "prompts", "--format", "json"],
}


@pytest.mark.parametrize("case", OUTPUT_CASES.keys())
def test_output_file_holds_the_stdout_bytes(runner, tmp_path, monkeypatch, case):
    """Every command writes to --output exactly the bytes it prints to
    stdout without it, and the same stderr in both runs."""
    _output_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    printed = runner.invoke(main, OUTPUT_CASES[case])
    written = runner.invoke(main, [*OUTPUT_CASES[case], "--output", "out.txt"])
    assert printed.exit_code == written.exit_code == 0, printed.output + written.output
    assert printed.stdout_bytes.endswith(b"\n")
    assert (written.stdout_bytes, written.stderr) == (b"", printed.stderr)
    assert (tmp_path / "out.txt").read_bytes() == printed.stdout_bytes


class TestCatalogCommand:
    def test_queries_csv(self, runner):
        result = runner.invoke(main, ["catalog", "--which", "queries"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 24
        assert rows[0]["text"] == "dark and intense"

    def test_prompts_json(self, runner):
        result = runner.invoke(main, ["catalog", "--which", "prompts", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert len(payload["prompts"]) == 9
        assert payload["prompts"][0] == "A lighthouse with sea in the background"

    def test_queries_json_has_embeddings(self, runner):
        result = runner.invoke(main, ["catalog", "--which", "queries", "--format", "json"])
        payload = json.loads(result.output)
        assert len(payload["queries"][0]["embedding"]) == 24

    @pytest.mark.parametrize("which, name, what", [
        ("queries", "music_queries.json", "query catalog"), ("prompts", "prompts.json", "prompt catalog"),
    ], ids=["queries", "prompts"])
    @pytest.mark.parametrize("damage, message", [
        ("truncated", "{what} {path} is not valid JSON: "),
        ("empty-list", "{what} "),
        ("deleted", "cannot read {what} {path}: "),
    ], ids=["truncated", "empty-list", "deleted"])
    def test_a_damaged_shipped_catalog_exits_2(self, tmp_path, which, name, what, damage, message):
        # the shipped files are read as every other JSON file is, so a broken
        # install reports the file rather than a traceback
        import latentblendkit

        package = tmp_path / "latentblendkit"
        shutil.copytree(Path(latentblendkit.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        path = package / "data" / name
        if damage == "deleted":
            path.unlink()
        else:
            path.write_text(path.read_text(encoding="utf-8")[:40] if damage == "truncated" else "[]", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "latentblendkit.cli", "catalog", "--which", which],
            env={**os.environ, "PYTHONPATH": str(tmp_path)}, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.startswith("error: " + message.format(what=what, path=path)), proc.stderr
        assert "Traceback" not in proc.stderr


def _error_classes(cls=errors.BlendKitError):
    """``cls`` and every class of ``latentblendkit.errors`` below it."""
    found = [cls]
    for sub in cls.__subclasses__():
        if sub.__module__ == errors.__name__:
            found.extend(c for c in _error_classes(sub) if c not in found)
    return found


def _exit_code_of(cls) -> int:
    """The documented exit code of a BlendKitError class."""
    if issubclass(cls, errors.ProviderUnavailable):
        return 4
    if issubclass(cls, errors.ProviderFailure):
        return 5
    return 3 if issubclass(cls, errors.NumericDomainError) else 2


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code(runner, monkeypatch, cls):
    exc = cls("boom", offset=7) if issubclass(cls, errors.NpyFormatError) else cls("boom")

    def fail():
        raise exc

    monkeypatch.setattr(formats, "default_prompt_catalog", fail)
    result = runner.invoke(main, ["catalog", "--which", "prompts"])
    assert result.exit_code == _exit_code_of(cls)
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""
