import csv
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from latentblendkit import cli, metrics, read_vectors, write_vectors
from latentblendkit.cli import main

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
        real_read_vectors = cli.read_vectors

        def counting_read_vectors(path, *args, **kwargs):
            loads[str(path)] += 1
            return real_read_vectors(path, *args, **kwargs)

        monkeypatch.setattr(cli, "read_vectors", counting_read_vectors)
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
        built = []
        scored = []
        real_set, real_ms = cli.EmbeddingSet, metrics.mean_similarity

        def counting_set(*args, **kwargs):
            built.append(1)
            return real_set(*args, **kwargs)

        def counting_ms(*args, **kwargs):
            scored.append(1)
            return real_ms(*args, **kwargs)

        monkeypatch.setattr(cli, "EmbeddingSet", counting_set)
        monkeypatch.setattr(metrics, "mean_similarity", counting_ms)
        paths = [str(gens[i % n_files]) for i in range(len(cli.WEIGHT_GRID))]
        args = ["wms", "--refs", str(tmp_path / "refs.npy"), "--grid", "--format", "json"]
        for p in paths:
            args += ["--generated", p]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert (len(built), len(scored)) == (n_files, 2 * n_files)
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
        assert finals == golden

    def test_guidance_grid_rescale_golden(self, runner, tmp_path):
        # a shape no other golden pins, a linear schedule and a damped,
        # shifted reference block; captured from one run per guidance value
        golden = json.loads((GOLDEN / "sandbox_grid_rescale.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(golden["config"]))
        result = runner.invoke(main, ["sandbox", "--config", str(cfg), "--guidance-grid", "--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["rows"] == golden["rows"]

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

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["sandbox", "--format", "json", "--output", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert "final_stat_distance" in payload


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
