"""The JSON schema decoder and the exit-code contract for every JSON input.

``formats.decode`` reads each JSON input: the sandbox and fusion configs,
blend specs, fuse inputs and query catalogs. Malformed input of any shape
must exit 2 with ``error:`` and the JSON path at fault, never 1 with a
traceback.
"""

import copy
import json
import sys
import typing
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from latentblendkit import (
    BlendKitError,
    BlendSpec,
    BlendStyleRef,
    DdimScheduleConfig,
    FusionConfig,
    InputError,
    InvalidShape,
    LatentVector,
    ModalityDescription,
    ParaphraseParams,
    QueryEntry,
    RescaleParams,
    SandboxConfig,
    WeatherRecord,
    decode,
    fusion,
    sandbox,
    write_vectors,
)
from latentblendkit.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestStrictTypes:
    @pytest.mark.parametrize(
        "tp, raw, want",
        [
            (float, 2, 2.0),
            (float, -0.5, -0.5),
            (int, 3, 3),
            (str, "x", "x"),
            (bool, False, False),
            (tuple[int, ...], [], ()),
            (tuple[int, int], [1, 2], (1, 2)),
            (tuple[float, ...], [1, 2.5], (1.0, 2.5)),
        ],
    )
    def test_accepts(self, tp, raw, want):
        got = decode(tp, raw, "f.json")
        assert got == want
        assert type(got) is type(want)

    @pytest.mark.parametrize(
        "tp, raw, problem",
        [
            (float, True, "expected float, got true"),
            (float, "1.5", 'expected float, got "1.5"'),
            (float, None, "expected float, got null"),
            (int, 3.0, "expected int, got 3.0"),
            (int, False, "expected int, got false"),
            (int, "3", 'expected int, got "3"'),
            (str, 5, "expected str, got 5"),
            (str, ["a"], "expected str, got array"),
            (bool, 0, "expected bool, got 0"),
            (tuple[int, ...], {"a": 1}, "expected array, got object"),
            (tuple[int, int], [1], "expected 2 items, got 1"),
            (str, "a\ud800", "string holds a lone surrogate"),
        ],
    )
    def test_rejects(self, tp, raw, problem):
        with pytest.raises(InputError) as info:
            decode(tp, raw, "f.json", "x")
        assert str(info.value) == f"f.json: x: {problem}"

    @pytest.mark.parametrize("raw", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_floats_must_be_finite(self, raw):
        with pytest.raises(InputError, match=r"^f\.json: rescale\.mu: mu must be finite, got "):
            decode(RescaleParams, {"mu": raw, "sigma": 1.0}, "f.json", "rescale")

    def test_latent_vector_is_a_read_only_float64_vector(self):
        got = decode(LatentVector, [1, 2.5], "w")
        assert type(got) is LatentVector and got.data.dtype == np.float64
        assert not got.data.flags.writeable
        assert np.array_equal(got.data, LatentVector([1.0, 2.5]).data)

    def test_latent_vector_must_be_non_empty(self):
        with pytest.raises(InvalidShape, match=r"^w: e: LatentVector must be non-empty"):
            decode(LatentVector, [], "w", "e")
        with pytest.raises(InvalidShape):
            decode(LatentVector, [], "w")

    @pytest.mark.parametrize("raw, problem", [([True], "expected float, got true"), (["x"], 'expected float, got "x"')])
    def test_latent_vector_entries_are_floats(self, raw, problem):
        with pytest.raises(InputError) as info:
            decode(LatentVector, raw, "w")
        assert str(info.value) == f"w: [0]: {problem}"

    def test_long_values_are_cut_in_messages(self):
        with pytest.raises(InputError) as info:
            decode(int, "y" * 500, "f.json", "n")
        assert str(info.value) == 'f.json: n: expected int, got "' + "y" * 36 + "..."


class TestObjects:
    def test_message_names_the_file_and_json_path(self):
        with pytest.raises(InputError) as info:
            decode(SandboxConfig, {"schedule": {"steps": "many"}}, "sandbox config c.json")
        assert str(info.value) == 'sandbox config c.json: schedule.steps: expected int, got "many"'

    def test_unknown_key_is_rejected(self):
        with pytest.raises(InputError, match=r"^sandbox config: steps: unknown key$"):
            decode(SandboxConfig, {"steps": 5}, "sandbox config")
        with pytest.raises(InputError, match=r"^w: \[0\]\.extra: unknown key$"):
            decode(tuple[BlendStyleRef, ...], [{"path": "a", "weight": 1, "extra": 0}], "w")

    def test_retired_keys_are_accepted_and_ignored(self):
        raw = {"steps": 5, "clip_sample": True, "set_alpha_to_one": [1, "x"]}
        assert decode(DdimScheduleConfig, raw, "w") == DdimScheduleConfig(steps=5)
        with pytest.raises(InputError, match="clip_sample: unknown key"):
            decode(SandboxConfig, {"clip_sample": True}, "w")

    def test_text_entry_counts_its_words(self):
        assert decode(ModalityDescription, {"modality": "image", "text": "a b c"}, "w").word_count == 3
        with pytest.raises(InputError, match=r"^w: \[0\]: modality must be one of image, audio, music, weather, text"):
            decode(tuple[ModalityDescription, ...], [{"modality": "video", "text": "clip"}], "w")

    def test_missing_keys_take_the_defaults(self):
        assert decode(SandboxConfig, {}, "w") == SandboxConfig()
        cfg = decode(SandboxConfig, {"schedule": {"steps": 5}, "rescale": {"sigma": 0.5}}, "w")
        assert cfg == SandboxConfig(schedule=DdimScheduleConfig(steps=5), rescale=RescaleParams(mu=0.0, sigma=0.5))
        assert decode(FusionConfig, {"paraphrase": {"num_beams": 2}}, "w").paraphrase == ParaphraseParams(num_beams=2)

    def test_missing_required_key(self):
        with pytest.raises(InputError, match=r"^w: sigma: missing$"):
            decode(RescaleParams, {"mu": 0.0}, "w")
        with pytest.raises(InputError, match=r"^w: styles\[1\]\.weight: missing$"):
            decode(BlendSpec, {"method": "sli", "styles": [{"path": "a", "weight": 1}, {"path": "b"}]}, "w")

    def test_value_rules_are_the_dataclass_own_and_name_the_path(self):
        with pytest.raises(InputError, match=r"^w: rescale: sigma must be > 0, got -1\.0$"):
            decode(SandboxConfig, {"rescale": {"sigma": -1}}, "w")
        with pytest.raises(InputError, match=r"^w: method must be 'linear' or 'sli', got 'cubic'$"):
            decode(BlendSpec, {"method": "cubic", "styles": [{"path": "a", "weight": 1}]}, "w")
        with pytest.raises(InputError, match=r"^w: styles\[0\]: weight must be finite and >= 0, got -1\.0$"):
            decode(BlendSpec, {"method": "sli", "styles": [{"path": "a", "weight": -1}]}, "w")

    def test_blend_spec_value_rules_hold_for_the_library_too(self):
        with pytest.raises(InputError, match="positive, finite sum"):
            BlendSpec(method="linear", styles=(BlendStyleRef("a", 0.0),))
        with pytest.raises(InputError, match="positive, finite sum, got inf"):
            BlendSpec(method="linear", styles=(BlendStyleRef("a", 1e308), BlendStyleRef("b", 1e308)))
        with pytest.raises(InputError, match="eps_omega must be > 0"):
            BlendSpec(method="sli", styles=(BlendStyleRef("a", 1.0),), eps_omega=0.0)


class TestSizeCap:
    def test_largest_benchmark_config_is_well_under_the_cap(self):
        cfg = SandboxConfig(n_images=8, feature_shape=(64, 256), schedule=DdimScheduleConfig(steps=50))
        assert (8 * 64 * 256 + 256 * 2 * 256 + 50) * 60 <= sandbox.MAX_ELEMENTS
        assert cfg.feature_shape == (64, 256)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"feature_shape": (1, 1_000_000)},
            {"n_images": 10**12},
            {"schedule": DdimScheduleConfig(steps=10**12)},
            {"n_images": 2, "feature_shape": (sandbox.MAX_ELEMENTS // 2, 2), "schedule": DdimScheduleConfig(steps=1)},
        ],
    )
    def test_over_the_cap_is_an_input_error(self, kwargs):
        with pytest.raises(InputError, match="more than MAX_ELEMENTS"):
            SandboxConfig(**kwargs)


# -- every malformed input exits 2 through the CLI ------------------------------

_MUSIC = [0.0] * 24
_BLEND = ["blend", "--spec", "{f}", "--out", "{d}/out.npy"]
_FUSE = ["fuse", "--inputs", "{f}"]
_SANDBOX = ["sandbox", "--config", "{f}"]
_CATALOG = ["catalog", "--path", "{f}"]


def _spec(**style):
    return {"method": "linear", "styles": [{"path": "s.npy", "weight": 1.0, **style}]}


#: (argv with {f} for the file and {d} for its directory, the file's JSON
#: text, or an object to write as JSON, and the JSON path the error names)
MALFORMED = {
    "music embedding": (_FUSE, [{"modality": "music", "embedding": ["loud"] + _MUSIC[1:]}], "[0].embedding[0]"),
    "weather temperature": (
        _FUSE, [{"modality": "weather", "condition": "rain", "temperature_c": "warm", "wind_mps": 2.0}],
        "[0].temperature_c",
    ),
    "blend weight string": (_BLEND, _spec(weight="heavy"), "styles[0].weight"),
    "paraphrase config": (
        ["fuse", "--inputs", "{d}/short.json", "--config", "{f}"], {"paraphrase": 3}, "paraphrase",
    ),
    "schedule": (_SANDBOX, {"schedule": 5}, "schedule"),
    "rescale array": (_SANDBOX, {"rescale": [1]}, "rescale"),
    "feature_shape overflow": (_SANDBOX, '{"feature_shape": [8, 1e400]}', "feature_shape[1]"),
    "n_images float": (_SANDBOX, '{"n_images": 1e12}', "n_images"),
    "blend path number": (_BLEND, _spec(path=5), "styles[0].path"),
    "eps_omega string": (_BLEND, {**_spec(), "eps_omega": "x"}, "eps_omega"),
    "steps at top level": (_SANDBOX, {"steps": "many"}, "steps: unknown key"),
    "seed float": (_SANDBOX, {"seed": 3.7}, "seed"),
    "text number": (_FUSE, [{"modality": "text", "text": 5}], "[0].text"),
    "weather condition list": (
        _FUSE, [{"modality": "weather", "condition": ["rain"], "temperature_c": 1.0, "wind_mps": 2.0}],
        "[0].condition",
    ),
    "blend weight bool": (_BLEND, _spec(weight=True), "styles[0].weight"),
    "blend weights overflowing their sum": (
        _BLEND, {"method": "sli", "styles": [{"path": "s.npy", "weight": 1e308}] * 2}, "positive, finite sum",
    ),
    "guidance flag inf": (["sandbox", "--guidance", "inf"], None, "guidance_scale"),
    "guidance_scale Infinity": (_SANDBOX, '{"guidance_scale": Infinity}', "guidance_scale"),
    "feature_shape over the cap": (_SANDBOX, {"feature_shape": [1, 1_000_000]}, "feature_shape"),
    "steps over the cap": (_SANDBOX, {"schedule": {"steps": 10**12}}, "schedule.steps"),
    "catalog text number": (_CATALOG, [{"text": 5, "embedding": [1.0]}], "[0].text"),
    "catalog embedding string": (_CATALOG, [{"text": "a", "embedding": ["x", 1]}], "[0].embedding[0]"),
    "catalog embedding empty": (_CATALOG, [{"text": "a", "embedding": []}], "[0].embedding: LatentVector must be"),
    "music embedding empty": (_FUSE, [{"modality": "music", "embedding": []}], "[0].embedding: LatentVector must be"),
    "wms weights overflowing their sum": (
        ["wms", "--generated", "{d}/s.npy", "--refs", "{d}/refs.npy", "--weights", "1e308,1e308"], None,
        "reference weights must have a finite sum",
    ),
    "lambda weights overflowing their sum": (
        ["attend", "--self", "{d}/s.npy", "--ref", "{d}/s.npy", "--ref", "{d}/s.npy", "--lambda-weights", "1e308,1e308"],
        None, "style-block weights must have a finite sum",
    ),
}


@pytest.mark.parametrize("argv, content, json_path", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_naming_the_json_path(runner, tmp_path, argv, content, json_path):
    write_vectors(tmp_path / "s.npy", np.array([1.0, 2.0]))
    write_vectors(tmp_path / "refs.npy", np.array([[1.0, 0.0], [0.0, 1.0]]))
    (tmp_path / "short.json").write_text(json.dumps([{"modality": "text", "text": "a quiet harbor"}]))
    f = tmp_path / "in.json"
    if content is not None:
        f.write_text(content if isinstance(content, str) else json.dumps(content))
    result = runner.invoke(main, [a.format(f=f, d=tmp_path) for a in argv])
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.stderr.startswith("error:")
    assert json_path in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "content, problem",
    [
        ('[{"modality": "text", "text": "\\ud800"}]', "[0].text: string holds a lone surrogate"),
        ("[" * 100_000 + "]" * 100_000, "is nested too deeply"),
    ],
)
def test_unprintable_and_deep_inputs_exit_2(runner, tmp_path, content, problem):
    f = tmp_path / "in.json"
    f.write_text(content)
    result = runner.invoke(main, ["fuse", "--inputs", str(f)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.stderr.startswith("error:")
    assert problem in result.stderr


@pytest.mark.parametrize("kind", ["fixture_file", "external_command"])
def test_paraphrase_with_lone_surrogate_exits_5(runner, tmp_path, kind):
    long = "one two three four five six seven eight nine ten eleven"
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps([{"modality": "text", "text": long}]))
    if kind == "fixture_file":
        locator = tmp_path / "fix.json"
        locator.write_text(json.dumps({long: "\ud800"}))
    else:
        script = tmp_path / "provider.py"
        script.write_text('import json, sys\nsys.stdin.read()\nprint(json.dumps({"text": "\\ud800"}))\n')
        locator = f"{sys.executable} {script}"
    result = runner.invoke(main, ["fuse", "--inputs", str(inputs), "--provider-kind", kind, "--provider", str(locator)])
    assert result.exit_code == 5, (result.output, result.exception)
    assert result.stderr.startswith("error: [modality=text] ")
    assert "lone surrogate" in result.stderr


def test_style_path_with_nul_exits_2(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec(path="a\0b")))
    result = runner.invoke(main, ["blend", "--spec", str(spec), "--out", str(tmp_path / "out.npy")])
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.stderr.startswith("error: cannot read ")


# -- fuzzing ----------------------------------------------------------------------

_FIELD_NAMES = sorted(
    {
        "guidance_scale", "seed", "n_images", "feature_shape", "schedule", "rescale", "beta_start", "beta_end",
        "beta_schedule", "steps", "clip_sample", "mu", "sigma", "verbosity_threshold_k", "paraphrase", "l_max",
        "l_min", "length_penalty", "num_beams", "method", "styles", "eps_omega", "path", "weight", "condition",
        "temperature_c", "wind_mps", "modality", "text", "embedding",
    }
)

json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=4), children, max_size=5),
    max_leaves=12,
)

DECODED = [
    SandboxConfig,
    DdimScheduleConfig,
    RescaleParams,
    FusionConfig,
    ParaphraseParams,
    BlendSpec,
    BlendStyleRef,
    WeatherRecord,
    ModalityDescription,
    fusion._MusicInput,
    tuple[QueryEntry, ...],
    LatentVector,
]


@pytest.mark.parametrize("cls", DECODED, ids=lambda c: c.__name__)
@settings(max_examples=50, deadline=None)
@given(raw=json_trees)
def test_decode_returns_an_instance_or_raises_blendkit_error(cls, raw):
    try:
        got = decode(cls, raw, "fuzz.json")
    except BlendKitError:
        return
    assert isinstance(got, typing.get_origin(cls) or cls)


def _replaced(doc, at: tuple, value):
    """``doc`` with the value at JSON path ``at`` (keys and indices) set to ``value``; ``()`` is the whole doc."""
    if not at:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    return doc


def _invoke_ok(runner, argv):
    """Run ``argv``: it exits 0, 2, 3, 4 or 5, with ``error:`` on failure, and warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, argv)
    assert result.exit_code in (0, 2, 3, 4, 5), (result.exit_code, result.exception)
    if result.exit_code:
        assert result.stderr.startswith("error:"), result.stderr
    assert "Warning" not in result.stderr, result.stderr


BLEND_SPEC = {
    "method": "sli",
    "styles": [{"path": "a.npy", "weight": 0.25}, {"path": "b.npy", "weight": 0.75}],
    "eps_omega": 1e-7,
}
BLEND_POINTS = [
    (), ("method",), ("styles",), ("styles", 0), ("styles", 0, "path"), ("styles", 0, "weight"),
    ("styles", 1, "weight"), ("styles", 1, "extra"), ("eps_omega",), ("extra",),
]


@settings(max_examples=60, deadline=None)
@given(at=st.sampled_from(BLEND_POINTS), value=json_trees)
def test_fuzz_blend_spec(tmp_path_factory, at, value):
    d = tmp_path_factory.getbasetemp() / "fuzz_blend"
    if not d.exists():
        d.mkdir()
        write_vectors(d / "a.npy", np.array([1.0, 0.0]))
        write_vectors(d / "b.npy", np.array([0.6, 0.8]))
    spec = d / "spec.json"
    spec.write_text(json.dumps(_replaced(BLEND_SPEC, at, value)))
    _invoke_ok(CliRunner(), ["blend", "--spec", str(spec), "--out", str(d / "out.npy")])


FUSE_INPUTS = [
    {"modality": "image", "text": "a castle on a hill"},
    {"modality": "music", "embedding": [0.0, 1.0] + [0.0] * 22},
    {"modality": "weather", "condition": "rain", "temperature_c": 5.0, "wind_mps": 2.0},
]
FUSION_CONFIG = {"verbosity_threshold_k": 10, "paraphrase": {"l_max": 32, "l_min": 8, "num_beams": 4}}
FUSE_POINTS = [
    ("inputs",), ("inputs", 0), ("inputs", 0, "modality"), ("inputs", 0, "text"), ("inputs", 0, "extra"),
    ("inputs", 1, "embedding"), ("inputs", 1, "embedding", 1), ("inputs", 1, "modality"),
    ("inputs", 2, "condition"), ("inputs", 2, "temperature_c"), ("inputs", 2, "wind_mps"),
    ("config",), ("config", "verbosity_threshold_k"), ("config", "paraphrase"), ("config", "paraphrase", "l_min"),
    ("config", "extra"),
]


@settings(max_examples=80, deadline=None)
@given(at=st.sampled_from(FUSE_POINTS), value=json_trees)
def test_fuzz_fuse_inputs_and_config(tmp_path_factory, at, value):
    d = tmp_path_factory.getbasetemp() / "fuzz_fuse"
    d.mkdir(exist_ok=True)
    docs = _replaced({"inputs": FUSE_INPUTS, "config": FUSION_CONFIG}, at, value)
    (d / "inputs.json").write_text(json.dumps(docs["inputs"]))
    (d / "config.json").write_text(json.dumps(docs["config"]))
    _invoke_ok(CliRunner(), ["fuse", "--inputs", str(d / "inputs.json"), "--config", str(d / "config.json")])


CATALOGS = {
    "queries": [{"text": "dark and intense", "embedding": [1.0, 0.0]}, {"text": "calm", "embedding": [0.0, 1.0]}],
    "prompts": ["A snowman in the desert", "A mountain landscape"],
}
CATALOG_POINTS = [
    ("queries", ()), ("queries", (0,)), ("queries", (0, "text")), ("queries", (0, "embedding")),
    ("queries", (1, "embedding", 0)), ("queries", (1, "extra")), ("prompts", ()), ("prompts", (0,)),
]


@settings(max_examples=60, deadline=None)
@given(point=st.sampled_from(CATALOG_POINTS), value=json_trees, fmt=st.sampled_from(["csv", "json"]))
def test_fuzz_catalog_path(tmp_path_factory, point, value, fmt):
    which, at = point
    path = tmp_path_factory.getbasetemp() / "fuzz_catalog.json"
    path.write_text(json.dumps(_replaced(CATALOGS[which], at, value)))
    _invoke_ok(CliRunner(), ["catalog", "--which", which, "--path", str(path), "--format", fmt])


SANDBOX_CONFIG = {
    "guidance_scale": 10.0, "seed": 7, "n_images": 3, "feature_shape": [4, 16],
    "schedule": {"beta_start": 0.00085, "beta_end": 0.012, "beta_schedule": "scaled_linear", "steps": 5},
    "rescale": {"mu": 0.0, "sigma": 1.0},
}
SANDBOX_POINTS = [
    (), ("guidance_scale",), ("seed",), ("n_images",), ("feature_shape",), ("feature_shape", 0),
    ("feature_shape", 1), ("schedule",), ("schedule", "steps"), ("schedule", "beta_schedule"),
    ("schedule", "beta_end"), ("schedule", "clip_sample"), ("rescale",), ("rescale", "sigma"), ("extra",),
]


def _small(doc):
    """``doc`` with an int ``n_images``, ``schedule.steps`` or ``feature_shape``
    entry above (4, 5, (4, 16)) lowered to it: a config may ask for up to
    ``sandbox.MAX_ELEMENTS`` elements of work, which no fuzz example should."""
    if not isinstance(doc, dict):
        return doc
    small = lambda v, cap: min(v, cap) if type(v) is int else v  # noqa: E731
    if "n_images" in doc:
        doc["n_images"] = small(doc["n_images"], 4)
    if isinstance(doc.get("schedule"), dict) and "steps" in doc["schedule"]:
        doc["schedule"]["steps"] = small(doc["schedule"]["steps"], 5)
    if isinstance(doc.get("feature_shape"), list) and len(doc["feature_shape"]) == 2:
        doc["feature_shape"] = [small(v, cap) for v, cap in zip(doc["feature_shape"], (4, 16))]
    return doc


@settings(max_examples=60, deadline=None)
@given(at=st.sampled_from(SANDBOX_POINTS), value=json_trees | st.integers() | st.floats(),
       flags=st.sampled_from([[], ["--guidance-grid"], ["--dump-schedule"], ["--format", "json"]]))
def test_fuzz_sandbox_config(tmp_path_factory, at, value, flags):
    path = tmp_path_factory.getbasetemp() / "fuzz_sandbox.json"
    path.write_text(json.dumps(_small(_replaced(SANDBOX_CONFIG, at, value))))
    _invoke_ok(CliRunner(), ["sandbox", "--config", str(path), *flags])
