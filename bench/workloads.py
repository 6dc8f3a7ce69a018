"""The four benchmark workloads: seeded inputs, CLI command lists, the same
work through the library API, and the checks on every output.

A workload is built once per run (inputs written with ``np.save``, reference
results computed by `reference`), then `ops` are run as CLI commands and
`lib` does the same work in-process. Expected values never come from a saved
copy of an earlier run.
"""

from __future__ import annotations

import csv
import io
import json
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import CheckFailed, close, equal

BENCH_DIR = Path(__file__).resolve().parent

#: The two-reference weight grid of `wms --grid`, as documented.
WEIGHT_GRID = ((0.0, 1.0), (0.15, 0.85), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (0.85, 0.15), (1.0, 0.0))
#: The guidance values of `sandbox --guidance-grid`, as documented.
GUIDANCE_GRID = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

VOCAB = (
    "amber ancient autumn bright calm castle cloud coast copper crystal dawn deep desert distant "
    "dusk echo ember field forest frozen gentle glass golden harbor hazy hidden hill ivory lantern "
    "lonely meadow misty moon mountain night ocean old painted pale quiet rain river rocky rolling "
    "rusty shadow silent silver slow soft stone storm summer sunlit tall thunder tower valley velvet "
    "warm wild window winter wooden"
).split()


@dataclass
class Context:
    root: Path
    work: Path
    quick: bool
    python: str = sys.executable

    @property
    def cli(self) -> list[str]:
        return [self.python, "-m", "latentblendkit.cli"]

    @property
    def provider_log(self) -> Path:
        return self.work / "provider.log"


@dataclass
class Op:
    """One CLI command. A malformed-input op must exit 2 with stderr
    starting 'error:'; any other op must exit 0 and pass ``check``."""

    label: str
    args: list[str]
    check: Callable[[str], None] | None = None
    malformed: bool = False


def judge(op: Op, code: int, out: str, err: str) -> tuple[bool, str | None]:
    """(operation succeeded, check failure message or None)."""
    if op.malformed:
        return code == 2 and err.startswith("error:"), None
    if code != 0:
        return False, None
    try:
        op.check(out)
    except CheckFailed as exc:
        return True, f"{op.label}: {exc}"
    return True, None


def _identical_stdout() -> Callable[[str, str], None]:
    """Check that every run of one command prints the same bytes."""
    seen: dict[str, str] = {}

    def check(key: str, out: str) -> None:
        first = seen.setdefault(key, out)
        if out != first:
            raise CheckFailed(f"stdout of '{key}' differs from its first run")

    return check


class Workload:
    name = ""

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)
        self.dir = ctx.work / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def write_json(self, name: str, obj) -> str:
        p = self.path(name)
        Path(p).write_text(json.dumps(obj), encoding="utf-8")
        return p

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def lib(self, lbk):
        """The ops' work through the public library API; returns its results."""
        raise NotImplementedError

    def check_lib(self, results) -> None:
        raise NotImplementedError


# -- sandbox_batch -------------------------------------------------------------


class SandboxBatch(Workload):
    """One sandbox run at (64, 256) x 8 images x 50 steps."""

    name = "sandbox_batch"

    def __init__(self, ctx: Context, seed: int):
        super().__init__(ctx, seed)
        n_images, shape, steps = (3, (8, 16), 10) if ctx.quick else (8, (64, 256), 50)
        self.steps = steps
        self.config = {
            "seed": self.seed(),
            "guidance_scale": 10.0,
            "n_images": n_images,
            "feature_shape": list(shape),
            "schedule": {"steps": steps},
        }
        self.config_path = self.write_json("sandbox_batch.json", self.config)
        self.want = ref.sandbox(self.config["seed"], 10.0, n_images, shape, steps)
        self.same = _identical_stdout()
        self.ops = [Op("sandbox", ["sandbox", "--config", self.config_path, "--format", "json"], self.check)]

    def check(self, out: str) -> None:
        ref.check_sandbox_report("sandbox", json.loads(out), self.want, self.steps)
        self.same("sandbox", out)

    def lib(self, lbk):
        raw = json.loads(Path(self.config_path).read_text(encoding="utf-8"))
        cfg = lbk.SandboxConfig(
            seed=raw["seed"],
            guidance_scale=raw["guidance_scale"],
            n_images=raw["n_images"],
            feature_shape=tuple(raw["feature_shape"]),
            schedule=lbk.DdimScheduleConfig(steps=raw["schedule"]["steps"]),
        )
        return lbk.run_sandbox(cfg)

    def check_lib(self, report) -> None:
        ref.check_sandbox_report("lib sandbox", report.to_dict(), self.want, self.steps)
        # the CLI prints json.dumps of the same report: library and CLI agree bit for bit
        self.same("sandbox", json.dumps(report.to_dict()) + "\n")


# -- sandbox_sweep -------------------------------------------------------------


class SandboxSweep(Workload):
    """`sandbox --guidance-grid` at the default (8, 32) x 4 for three seeds;
    the first seed runs twice so its two outputs can be compared byte for byte."""

    name = "sandbox_sweep"

    def __init__(self, ctx: Context, seed: int):
        super().__init__(ctx, seed)
        distinct = [self.seed() for _ in range(3)]
        self.seeds = distinct + distinct[:1]
        self.steps = 10 if ctx.quick else 50
        extra = ["--config", self.write_json("sweep.json", {"schedule": {"steps": 10}})] if ctx.quick else []
        self.want = {
            s: [ref.sandbox(s, g, 4, (8, 32), self.steps) for g in GUIDANCE_GRID] for s in distinct
        }
        self.same = _identical_stdout()
        self.ops = [
            Op(f"sweep seed {s}", ["sandbox", "--guidance-grid", "--seed", str(s), *extra],
               lambda out, s=s: self.check(s, out))
            for s in self.seeds
        ]

    def check_rows(self, s: int, rows: list[dict]) -> None:
        equal(f"seed {s} grid", [r["guidance"] for r in rows], list(GUIDANCE_GRID))
        for row, want in zip(rows, self.want[s]):
            name = f"seed {s} g={row['guidance']}"
            if not 0.0 < row["final_ref_mass"] < 1.0:
                raise CheckFailed(f"{name}: final_ref_mass {row['final_ref_mass']} outside (0, 1)")
            for key in ("initial_stat_distance", "final_stat_distance", "final_ref_mass"):
                close(f"{name} {key}", row[key], want[key])

    def check(self, s: int, out: str) -> None:
        rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(io.StringIO(out))]
        self.check_rows(s, rows)
        self.same(f"seed {s}", out)

    def lib(self, lbk):
        steps = lbk.DdimScheduleConfig(steps=self.steps)
        results = []
        for s in self.seeds:
            rows = []
            for g in GUIDANCE_GRID:
                report = lbk.run_sandbox(lbk.SandboxConfig(seed=s, guidance_scale=g, schedule=steps))
                rows.append({"guidance": g, **report.to_dict()})
            results.append((s, rows))
        return results

    def check_lib(self, results) -> None:
        for s, rows in results:
            for r in rows:
                equal(f"lib seed {s} steps", len(r["per_step_stat_distance"]), self.steps)
            self.check_rows(s, rows)


# -- wms_grid --------------------------------------------------------------------


class WmsGrid(Workload):
    """`wms --grid` over one large generated file, and `wms --weights` over a
    directory of many small files."""

    name = "wms_grid"

    def __init__(self, ctx: Context, seed: int):
        super().__init__(ctx, seed)
        n, d, n_files = (300, 32, 20) if ctx.quick else (10_000, 768, 400)
        refs = self.rng.standard_normal((2, d))
        mix = self.rng.uniform(0.0, 1.0, size=(n, 1))
        gen = mix * refs[0] + (1.0 - mix) * refs[1] + 1.5 * self.rng.standard_normal((n, d))
        self.refs_path, self.gen_path = self.path("refs.npy"), self.path("generated.npy")
        np.save(self.refs_path, refs)
        np.save(self.gen_path, gen)
        gen_dir = self.dir / "generated_parts"
        gen_dir.mkdir()
        parts = []
        for i in range(n_files):
            # sizes are fixed so per-layer counts do not depend on the seed
            part = (refs[i % 2] + 2.0 * self.rng.standard_normal((1 + i % 8, d))).astype("<f4")
            np.save(gen_dir / f"part_{i:04d}.npy", part)
            parts.append(part.astype(np.float64))
        self.gen_dir = str(gen_dir)
        self.weights = [float(w) for w in self.rng.uniform(0.1, 1.0, size=2)]
        self.want_grid = ref.wms(gen, refs, [1.0, 1.0])["ms"]
        self.want_dir = ref.wms(np.concatenate(parts), refs, self.weights)
        self.ops = [
            Op("wms --grid", ["wms", "--generated", self.gen_path, "--refs", self.refs_path, "--grid",
                              "--format", "json"], self.check_grid),
            Op("wms --weights", ["wms", "--generated", self.gen_dir, "--refs", self.refs_path,
                                 "--weights", ",".join(map(repr, self.weights)), "--ref-names", "a,b"],
               self.check_dir),
        ]

    def check_grid_rows(self, rows: list[dict]) -> None:
        equal("grid rows", len(rows), len(WEIGHT_GRID))
        ms = self.want_grid
        for row, (w1, w2) in zip(rows, WEIGHT_GRID):
            equal("grid weights", (row["w_ref1"], row["w_ref2"]), (w1, w2))
            close("grid MS", [row["MS_ref1"], row["MS_ref2"]], ms)
            close("grid WMS", row["WMS"], w1 * ms[0] + w2 * ms[1])
            close("grid MS_GAP", row["MS_GAP"], abs(ms[0] - ms[1]))

    def check_grid(self, out: str) -> None:
        self.check_grid_rows(json.loads(out)["rows"])

    def check_dir_values(self, ms, wms, gap) -> None:
        close("dir MS", ms, self.want_dir["ms"])
        close("dir WMS", wms, self.want_dir["wms"])
        close("dir MS_GAP", gap, self.want_dir["gap"])

    def check_dir(self, out: str) -> None:
        rows = list(csv.DictReader(io.StringIO(out)))
        equal("dir rows", len(rows), 1)
        r = {k: float(v) for k, v in rows[0].items()}
        equal("dir weights", [r["w_a"], r["w_b"]], self.weights)
        self.check_dir_values([r["MS_a"], r["MS_b"]], r["WMS"], r["MS_GAP"])

    def lib(self, lbk):
        refs = lbk.read_vectors(self.refs_path, rows=True)
        generated = tuple(lbk.read_vectors(self.gen_path, rows=True))
        grid = []
        for w1, w2 in WEIGHT_GRID:
            es = lbk.EmbeddingSet(
                generated=generated,
                references=(lbk.ReferenceStyle("ref1", refs[0], w1), lbk.ReferenceStyle("ref2", refs[1], w2)),
            )
            report = lbk.wms_score(es)
            grid.append({"w_ref1": w1, "w_ref2": w2, "MS_ref1": report.per_style_ms["ref1"],
                         "MS_ref2": report.per_style_ms["ref2"], "WMS": report.wms, "MS_GAP": report.ms_gap})
        parts = []
        for f in sorted(Path(self.gen_dir).glob("*.npy")):
            parts.extend(lbk.read_vectors(f, rows=True))
        es = lbk.EmbeddingSet(
            generated=tuple(parts),
            references=tuple(lbk.ReferenceStyle(n, r, w) for n, r, w in zip("ab", refs, self.weights)),
        )
        return grid, lbk.wms_score(es)

    def check_lib(self, results) -> None:
        grid, report = results
        self.check_grid_rows(grid)
        self.check_dir_values([report.per_style_ms["a"], report.per_style_ms["b"]], report.wms, report.ms_gap)


# -- style_prep ----------------------------------------------------------------


@dataclass
class _Blend:
    method: str
    spec: str
    out: str
    lib_out: str
    indices: list[int]
    weights: list[float]
    want: dict = field(default_factory=dict)


class StylePrep(Workload):
    """Short one-shot commands: blends that write NPY, fuse through a large
    fixture map and through an external provider, one-shot shared and
    lambda attention, and five malformed inputs."""

    name = "style_prep"

    def __init__(self, ctx: Context, seed: int):
        super().__init__(ctx, seed)
        q = ctx.quick
        d = 32 if q else 768
        n_styles = 12 if q else 300
        self.styles = [self.rng.standard_normal(d) for _ in range(n_styles)]
        for i, v in enumerate(self.styles):
            np.save(self.path(f"style_{i:03d}.npy"), v)
        sizes = [("sli", 4), ("sli", 10), ("linear", 6), ("linear", 12)] if q else [
            ("sli", 48), ("sli", 160), ("linear", 64), ("linear", 300)]
        self.blends = [self._blend(method, k) for method, k in sizes]

        self.catalog = json.loads(
            (ctx.root / "src" / "latentblendkit" / "data" / "music_queries.json").read_text(encoding="utf-8"))
        fixture_entries = self._fuse_inputs(n_flagged=4 if q else 16)
        command_entries = self._fuse_inputs(n_flagged=3 if q else 16)
        fixture_map = {self._text(12, 20): self._text(6, 10) for _ in range(200 if q else 20_000)}
        fixture_map.update((e["text"], ref.paraphrase(e["text"])) for e in fixture_entries if "text" in e)
        self.fixture = self.write_json("paraphrase_fixture.json", fixture_map)
        self.fixture_inputs = self.write_json("fuse_fixture_inputs.json", fixture_entries)
        self.command_inputs = self.write_json("fuse_command_inputs.json", command_entries)
        self.provider = " ".join(shlex.quote(a) for a in (
            ctx.python, str(BENCH_DIR / "provider.py"), "--log", str(ctx.provider_log)))
        emb = np.array([c["embedding"] for c in self.catalog], dtype=np.float64)
        texts = [c["text"] for c in self.catalog]
        self.want_fixture_prompt = ref.fused_prompt(fixture_entries, texts, emb)
        self.want_command_prompt = ref.fused_prompt(command_entries, texts, emb)

        n_tok, dim = (16, 8) if q else (192, 64)
        self.self_tokens = self.rng.standard_normal((n_tok, dim))
        # key-norm scale straddles the 0.5 threshold, so seeds hit both classes
        self.ref_tokens = self.rng.uniform(0.03, 0.09) * self.rng.standard_normal((n_tok, dim)) + 0.01
        self.blocks = [self.rng.standard_normal((int(n_tok * f), dim)) for f in (0.5, 0.75, 1.0)]
        self.lambda_weights = [float(w) for w in self.rng.uniform(0.2, 2.0, size=3)]
        self.self_path, self.ref_path = self.path("attend_self.npy"), self.path("attend_ref.npy")
        np.save(self.self_path, self.self_tokens)
        np.save(self.ref_path, self.ref_tokens)
        self.block_paths = [self.path(f"attend_block_{i}.npy") for i in range(3)]
        for p, b in zip(self.block_paths, self.blocks):
            np.save(p, b)
        self.want_shared = ref.shared_attend(self.self_tokens, self.ref_tokens)
        self.want_lambda = ref.lambda_attend(self.self_tokens, self.blocks, self.lambda_weights)

        self.ops = [
            *(Op(f"blend {b.method} {len(b.indices)}", ["blend", "--spec", b.spec, "--out", b.out],
                 lambda out, b=b: self.check_blend_cli(b, out)) for b in self.blends),
            Op("fuse fixture", ["fuse", "--inputs", self.fixture_inputs, "--provider", self.fixture, "--explain"],
               self.check_fuse_explain),
            Op("fuse command", ["fuse", "--inputs", self.command_inputs, "--provider-kind", "external_command",
                                "--provider", self.provider], self.check_fuse_plain),
            Op("attend shared", ["attend", "--self", self.self_path, "--ref", self.ref_path, "--auto-classify"],
               self.check_shared),
            Op("attend lambda", ["attend", "--self", self.self_path,
                                 *(a for p in self.block_paths for a in ("--ref", p)),
                                 "--lambda-weights", ",".join(map(repr, self.lambda_weights))],
               self.check_lambda),
            *self._malformed(),
        ]

    # inputs

    def _malformed(self) -> list[Op]:
        """Five malformed inputs that must exit 2 with 'error:'. Their content
        does not depend on the seed."""
        put = self.write_json
        short = put("bad_short_inputs.json", [{"modality": "text", "text": "a quiet harbor"}])
        return [
            Op("bad music embedding", ["fuse", "--inputs", put("bad_music.json", [
                {"modality": "music", "embedding": ["loud"] + [0.0] * 23}])], malformed=True),
            Op("bad temperature", ["fuse", "--inputs", put("bad_weather.json", [
                {"modality": "weather", "condition": "rain", "temperature_c": "warm", "wind_mps": 2.0}])],
               malformed=True),
            Op("bad blend weight", ["blend", "--spec", put("bad_blend.json", {
                "method": "linear", "styles": [{"path": "style_000.npy", "weight": "heavy"}]}),
                "--out", self.path("bad_blend_out.npy")], malformed=True),
            Op("bad paraphrase config", ["fuse", "--inputs", short, "--config",
                                         put("bad_fusion.json", {"paraphrase": 3})], malformed=True),
            Op("bad schedule config", ["sandbox", "--config", put("bad_sandbox.json", {"schedule": 5})],
               malformed=True),
        ]

    def _text(self, lo: int, hi: int) -> str:
        n = int(self.rng.integers(lo, hi + 1))
        return " ".join(VOCAB[i] for i in self.rng.integers(0, len(VOCAB), size=n))

    def _fuse_inputs(self, n_flagged: int) -> list[dict]:
        """Flagged (> 10 words) and short texts, music embeddings, weather."""
        entries = []
        modalities = ("image", "audio", "text")
        for i in range(n_flagged):
            entries.append({"modality": modalities[i % 3], "text": self._text(11, 24)})
            entries.append({"modality": modalities[(i + 1) % 3], "text": self._text(2, 10)})
        for _ in range(4):
            entries.append({"modality": "music", "embedding": self.rng.uniform(0.0, 1.0, size=24).tolist()})
            entries.append({
                "modality": "weather",
                "condition": self._text(1, 3),
                "temperature_c": round(float(self.rng.uniform(-20.0, 40.0)), 2),
                "wind_mps": round(float(self.rng.uniform(0.0, 20.0)), 2),
            })
        order = self.rng.permutation(len(entries))
        return [entries[i] for i in order]

    def _blend(self, method: str, k: int) -> _Blend:
        indices = sorted(int(i) for i in self.rng.choice(len(self.styles), size=k, replace=False))
        weights = [float(w) for w in self.rng.uniform(0.05, 1.0, size=k)]
        spec = self.write_json(f"blend_{method}_{k}.json", {
            "method": method,
            "styles": [{"path": f"style_{i:03d}.npy", "weight": w} for i, w in zip(indices, weights)],
        })
        b = _Blend(method, spec, self.path(f"out_{method}_{k}.npy"), self.path(f"lib_out_{method}_{k}.npy"),
                   indices, weights)
        vectors = [self.styles[i] for i in indices]
        if method == "sli":
            b.want = ref.sli(vectors, weights)
        else:
            b.want = {"vector": ref.linear(vectors, weights), "order": list(range(k)), "omegas": []}
        return b

    # checks

    def check_blend_vector(self, b: _Blend, path: str) -> np.ndarray:
        got = np.load(path)
        equal(f"{path} dtype", got.dtype, np.dtype("<f8"))
        close(f"blend {b.method} {len(b.indices)} vector", got, b.want["vector"])
        return got

    def check_blend_cli(self, b: _Blend, out: str) -> None:
        summary = json.loads(out)
        equal("blend method", summary["method"], b.method)
        equal("blend order", summary["order_used"], b.want["order"])
        close("blend omega_trace", summary["omega_trace"], b.want["omegas"])
        got = self.check_blend_vector(b, b.out)
        close("blend norm", summary["norm"], float(np.linalg.norm(got)))
        equal("blend out", summary["out"], b.out)

    def check_fuse_explain(self, out: str) -> None:
        result = json.loads(out)
        equal("fuse fixture prompt", result["prompt"], self.want_fixture_prompt)
        flagged = sum(d["paraphrased"] for d in result["decisions"])
        equal("fuse fixture flagged", flagged, sum(len(d["text_in"].split()) > 10 for d in result["decisions"]))

    def check_fuse_plain(self, out: str) -> None:
        equal("fuse command prompt", out, self.want_command_prompt + "\n")

    def check_shared(self, out: str) -> None:
        got, want = json.loads(out), self.want_shared
        equal("attend mode", got["mode"], "shared")
        equal("attend classification", got["classification"], want["classification"])
        close("attend mu/sigma", [got["mu"], got["sigma"]], [want["mu"], want["sigma"]])
        close("attend ref_mass", got["ref_mass"], want["ref_mass"])
        close("attend row_entropy", got["row_entropy"], want["row_entropy"])

    def check_lambda(self, out: str) -> None:
        got, want = json.loads(out), self.want_lambda
        equal("attend mode", got["mode"], "lambda")
        close("lambda lambdas", got["lambdas"], want["lambdas"])
        close("lambda block_mass", got["block_mass"], want["block_mass"])
        close("lambda row_entropy", got["row_entropy"], want["row_entropy"])

    # library path

    def _lib_fuse(self, lbk, inputs: str, binding):
        raw = json.loads(Path(inputs).read_text(encoding="utf-8"))
        catalog = lbk.default_query_catalog()
        descriptions = []
        for item in raw:
            if item["modality"] == "music":
                match = lbk.best_music_query(lbk.LatentVector(item["embedding"]), catalog)
                descriptions.append(lbk.ModalityDescription.from_text("music", match.text))
            elif item["modality"] == "weather":
                record = lbk.WeatherRecord(item["condition"], float(item["temperature_c"]), float(item["wind_mps"]))
                descriptions.append(lbk.weather_to_text(record))
            else:
                descriptions.append(lbk.ModalityDescription.from_text(item["modality"], item["text"]))
        prompt, _ = lbk.fuse_with_trace(descriptions, lbk.FusionConfig(), binding)
        return prompt

    def lib(self, lbk):
        blends = []
        for b in self.blends:
            spec = lbk.load_blend_spec(b.spec)
            vectors = [lbk.read_vectors(s.path) for s in spec.styles]
            styles = lbk.WeightedStyleSet.of(vectors, [s.weight for s in spec.styles])
            if spec.method == "sli":
                result = lbk.sli_blend(styles, spec.eps_omega)
            else:
                result = lbk.linear_blend(styles)
            lbk.write_vectors(b.lib_out, result.vector)
            blends.append(result)
        prompts = (
            self._lib_fuse(lbk, self.fixture_inputs, lbk.ProviderBinding(lbk.FIXTURE_FILE, self.fixture)),
            self._lib_fuse(lbk, self.command_inputs, lbk.ProviderBinding(lbk.EXTERNAL_COMMAND, self.provider)),
        )
        self_m = lbk.Matrix(lbk.load_array(self.self_path))
        ref_m = lbk.Matrix(lbk.load_array(self.ref_path))
        params = lbk.rescale_params_for(lbk.classify_style(ref_m))
        shared = lbk.shared_attention(self_m, self_m, self_m, ref_m, ref_m, ref_m, rescale=params)
        blocks = []
        for p, w in zip(self.block_paths, self.lambda_weights):
            m = lbk.Matrix(lbk.load_array(p))
            blocks.append(lbk.StyleBlock(k=m, v=m, weight=w))
        multi = lbk.lambda_rescaled_attention(self_m, blocks)
        return blends, prompts, (shared, lbk.row_entropy(shared.weights)), (multi, lbk.row_entropy(multi.weights))

    def check_lib(self, results) -> None:
        blends, prompts, (shared, shared_h), (multi, multi_h) = results
        for b, result in zip(self.blends, blends):
            equal("lib blend order", list(result.order_used), b.want["order"])
            close("lib blend omega_trace", result.omega_trace, b.want["omegas"])
            close("lib blend vector", result.vector.data, b.want["vector"])
            self.check_blend_vector(b, b.lib_out)
        equal("lib fuse prompts", prompts, (self.want_fixture_prompt, self.want_command_prompt))
        close("lib shared ref_mass", shared.ref_mass, self.want_shared["ref_mass"])
        close("lib shared row_entropy", shared_h, self.want_shared["row_entropy"])
        close("lib lambda block_mass", multi.block_mass, self.want_lambda["block_mass"])
        close("lib lambda row_entropy", multi_h, self.want_lambda["row_entropy"])


WORKLOADS = {w.name: w for w in (SandboxBatch, SandboxSweep, WmsGrid, StylePrep)}
