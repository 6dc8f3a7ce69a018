import concurrent.futures
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from latentblendkit import (
    DimensionMismatch,
    FusionConfig,
    InputError,
    LatentVector,
    ModalityDescription,
    ParaphraseParams,
    ProviderBinding,
    ProviderFailure,
    ProviderUnavailable,
    QueryCatalog,
    QueryEntry,
    WeatherRecord,
    ZeroVector,
    best_music_query,
    concatenate_descriptions,
    cosine_similarity,
    default_query_catalog,
    fuse,
    fuse_with_trace,
    fusion,
    needs_paraphrasing,
    tensorcore,
    unit,
    weather_to_text,
)
from latentblendkit.cli import main

LONG_TEXT = "a very long description that definitely exceeds the ten word threshold"  # 12 words


def desc(modality, text):
    return ModalityDescription.from_text(modality, text)


class TestModalityDescription:
    def test_word_count(self):
        assert desc("image", "a castle on a hill").word_count == 5
        assert desc("text", "").word_count == 0

    def test_word_count_validated(self):
        with pytest.raises(InputError):
            ModalityDescription(modality="image", text="two words", word_count=3)

    def test_unknown_modality(self):
        with pytest.raises(InputError):
            desc("video", "clip")


class TestNeedsParaphrasing:
    def test_threshold_is_strict(self):
        cfg = FusionConfig(verbosity_threshold_k=10)
        ten = desc("image", " ".join(["word"] * 10))
        eleven = desc("image", " ".join(["word"] * 11))
        assert not needs_paraphrasing(ten, cfg)
        assert needs_paraphrasing(eleven, cfg)

    def test_empty_never_flagged(self):
        assert not needs_paraphrasing(desc("text", ""), FusionConfig())

    def test_config_validation(self):
        with pytest.raises(InputError):
            FusionConfig(verbosity_threshold_k=0)
        with pytest.raises(InputError):
            ParaphraseParams(l_max=5, l_min=10)
        with pytest.raises(InputError):
            ParaphraseParams(num_beams=0)


class TestConcatenate:
    def test_single(self):
        assert concatenate_descriptions([desc("image", "a castle")]) == "a castle"

    def test_pair(self):
        assert concatenate_descriptions([desc("image", "a castle"), desc("weather", "rain")]) == "a castle, rain"

    def test_empty_entries_skipped(self):
        ds = [desc("image", "a castle"), desc("audio", ""), desc("weather", "rain")]
        assert concatenate_descriptions(ds) == "a castle, rain"


class TestWeatherToText:
    def test_template(self):
        d = weather_to_text(WeatherRecord(condition="clear", temperature_c=20.0, wind_mps=0.0))
        assert d.text == "clear, 20.0 degrees, wind 0.0 m/s"
        assert d.modality == "weather"

    def test_round_half_to_even(self):
        d = weather_to_text(WeatherRecord(condition="storm", temperature_c=-3.25, wind_mps=12.5))
        assert d.text == "storm, -3.2 degrees, wind 12.5 m/s"

    def test_word_count_of_template(self):
        # "rain, 0.0 degrees, wind 0.0 m/s" splits into 6 whitespace tokens
        d = weather_to_text(WeatherRecord(condition="rain", temperature_c=0.0, wind_mps=0.0))
        assert d.word_count == 6

    def test_condition_required(self):
        with pytest.raises(InputError):
            WeatherRecord(condition="", temperature_c=1.0, wind_mps=1.0)


class TestQueryCatalog:
    def test_shipped_catalog(self):
        cat = default_query_catalog()
        assert len(cat.queries) == 24
        assert cat.queries[0].text == "dark and intense"
        assert cat.queries[1].text == "bright and energetic"
        assert cat.queries[23].text == "intense and fiery"

    def test_best_query_exact_match(self):
        cat = default_query_catalog()
        match = best_music_query(cat.queries[7].embedding, cat)
        assert match.index == 7
        assert match.score == pytest.approx(1.0)

    def test_best_query_orthogonal_basis(self):
        cat = QueryCatalog(queries=tuple(QueryEntry(text=f"q{i}", embedding=unit(i, 4)) for i in range(4)))
        match = best_music_query(unit(2, 4), cat)
        assert match.index == 2
        assert match.text == "q2"
        assert match.score == pytest.approx(1.0)

    def test_tie_breaks_to_lowest_index(self):
        cat = QueryCatalog(
            queries=(
                QueryEntry(text="a", embedding=LatentVector([1.0, 0.0, 0.0])),
                QueryEntry(text="b", embedding=LatentVector([0.0, 1.0, 0.0])),
                QueryEntry(text="c", embedding=LatentVector([0.0, 1.0, 0.0])),
            )
        )
        # scores (0.1-ish, tie, tie): entries 1 and 2 tie exactly
        match = best_music_query(LatentVector([0.2, 1.0, 0.0]), cat)
        assert match.index == 1

    def test_argmax_beats_bruteforce(self):
        rng = np.random.default_rng(83)
        cat = default_query_catalog()
        for _ in range(100):
            m = LatentVector(rng.normal(size=24))
            match = best_music_query(m, cat)
            scores = [cosine_similarity(m, q.embedding) for q in cat.queries]
            assert match.score >= max(scores) - 1e-15
            assert match.index == int(np.argmax(scores))


    def test_one_kernel_call_over_the_catalog(self, monkeypatch):
        calls = []
        real = fusion._cosines

        def counting(rows, *args):
            calls.append(rows.shape)
            return real(rows, *args)

        monkeypatch.setattr(fusion, "_cosines", counting)
        cat = default_query_catalog()
        m = LatentVector(np.arange(24.0))
        match = best_music_query(m, cat)
        assert calls == [(24, 24)]
        assert match.score == cosine_similarity(m, cat.queries[match.index].embedding)

    def test_catalog_norms_are_computed_once(self, monkeypatch):
        # the catalog's _Record takes its row norms; each music vector's own
        # norm is a 1-D call
        calls = []
        real = tensorcore._row_norms

        def counting(rows):
            calls.append(rows.shape)
            return real(rows)

        monkeypatch.setattr(tensorcore, "_row_norms", counting)
        cat = default_query_catalog()
        matches = [best_music_query(unit(i, 24), cat).index for i in range(5)]
        assert [shape for shape in calls if len(shape) == 2] == [(24, 24)]
        assert matches == list(range(5))

    def test_scores_equal_per_entry_cosines(self):
        rng = np.random.default_rng(89)
        cat = QueryCatalog(
            queries=tuple(QueryEntry(text=f"q{i}", embedding=LatentVector(rng.normal(size=9))) for i in range(12))
        )
        for _ in range(50):
            m = LatentVector(rng.normal(size=9))
            scores = [cosine_similarity(m, q.embedding) for q in cat.queries]
            match = best_music_query(m, cat)
            assert match.score == max(scores)
            assert match.index == scores.index(max(scores))

    def test_catalog_errors(self):
        cat = QueryCatalog(queries=(QueryEntry("a", unit(0, 3)), QueryEntry("b", LatentVector([0.0, 0.0, 0.0]))))
        with pytest.raises(ZeroVector, match="music embedding is a zero vector"):
            best_music_query(LatentVector([0.0, 0.0, 0.0]), cat)
        with pytest.raises(ZeroVector, match="cosine similarity undefined"):
            best_music_query(unit(1, 3), cat)
        with pytest.raises(DimensionMismatch, match=r"^dot: dimensions differ \(2 vs 3\)$"):
            best_music_query(unit(1, 2), cat)
        with pytest.raises(DimensionMismatch, match=r"^catalog entry 1 has d_z=2, expected 3$"):
            QueryCatalog(queries=(QueryEntry("a", unit(0, 3)), QueryEntry("b", unit(0, 2))))


class TestFuse:
    def test_short_inputs_never_touch_provider(self, tmp_path):
        ds = [desc("image", "a castle"), desc("weather", "rain")]
        # provider locator points nowhere; must not matter
        binding = ProviderBinding(kind="fixture_file", locator=str(tmp_path / "missing.json"))
        assert fuse(ds, FusionConfig(), binding) == "a castle, rain"
        assert fuse(ds, FusionConfig(), None) == "a castle, rain"

    def test_fixture_roundtrip(self, tmp_path):
        fixture = tmp_path / "para.json"
        fixture.write_text(json.dumps({LONG_TEXT: "short caption"}))
        ds = [desc("image", LONG_TEXT), desc("weather", "rain")]
        out = fuse(ds, FusionConfig(), ProviderBinding(kind="fixture_file", locator=str(fixture)))
        assert out == "short caption, rain"

    def test_order_preserved(self, tmp_path):
        fixture = tmp_path / "para.json"
        fixture.write_text(json.dumps({LONG_TEXT: "middle"}))
        ds = [desc("text", "first"), desc("image", LONG_TEXT), desc("weather", "last words")]
        out = fuse(ds, FusionConfig(), ProviderBinding(kind="fixture_file", locator=str(fixture)))
        assert out == "first, middle, last words"

    def test_deterministic(self, tmp_path):
        fixture = tmp_path / "para.json"
        fixture.write_text(json.dumps({LONG_TEXT: "stable"}))
        ds = [desc("image", LONG_TEXT)]
        binding = ProviderBinding(kind="fixture_file", locator=str(fixture))
        assert fuse(ds, FusionConfig(), binding) == fuse(ds, FusionConfig(), binding)

    def test_trace_reports_decisions(self, tmp_path):
        fixture = tmp_path / "para.json"
        fixture.write_text(json.dumps({LONG_TEXT: "squashed"}))
        ds = [desc("text", "short"), desc("image", LONG_TEXT)]
        prompt, decisions = fuse_with_trace(ds, FusionConfig(), ProviderBinding("fixture_file", str(fixture)))
        assert prompt == "short, squashed"
        assert [d.paraphrased for d in decisions] == [False, True]
        assert decisions[1].text_out == "squashed"

    def test_missing_provider_names_modality(self):
        ds = [desc("audio", LONG_TEXT)]
        with pytest.raises(ProviderUnavailable, match="audio"):
            fuse(ds, FusionConfig(), None)

    def test_missing_fixture_file(self, tmp_path):
        ds = [desc("image", LONG_TEXT)]
        binding = ProviderBinding(kind="fixture_file", locator=str(tmp_path / "nope.json"))
        with pytest.raises(ProviderUnavailable, match="image"):
            fuse(ds, FusionConfig(), binding)

    def test_malformed_fixture(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all {")
        ds = [desc("image", LONG_TEXT)]
        with pytest.raises(ProviderFailure):
            fuse(ds, FusionConfig(), ProviderBinding("fixture_file", str(bad)))

    def test_fixture_read_once_per_call(self, tmp_path, monkeypatch):
        other = LONG_TEXT.replace("very", "rather")
        fixture = tmp_path / "para.json"
        fixture.write_text(json.dumps({LONG_TEXT: "one", other: "two"}))
        reads = []
        real_read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads.append(self)
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        ds = [desc("image", LONG_TEXT), desc("text", "short"), desc("audio", other), desc("text", LONG_TEXT)]
        binding = ProviderBinding("fixture_file", str(fixture))
        prompt, decisions = fuse_with_trace(ds, FusionConfig(), binding)
        assert prompt == "one, short, two, one"
        assert [d.paraphrased for d in decisions] == [True, False, True, True]
        assert reads == [fixture]
        reads.clear()
        fuse(ds, FusionConfig(), binding)  # a new call reads the file afresh
        assert reads == [fixture]

    def test_non_utf8_fixture_is_provider_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        with pytest.raises(ProviderFailure, match="image"):
            fuse([desc("image", LONG_TEXT)], FusionConfig(), ProviderBinding("fixture_file", str(bad)))

    def test_fixture_missing_key(self, tmp_path):
        fixture = tmp_path / "para.json"
        fixture.write_text(json.dumps({"some other text": "x"}))
        ds = [desc("image", LONG_TEXT)]
        with pytest.raises(ProviderFailure, match="image"):
            fuse(ds, FusionConfig(), ProviderBinding("fixture_file", str(fixture)))


class TestCommandProvider:
    @staticmethod
    def _script(tmp_path, body):
        script = tmp_path / "provider.py"
        script.write_text(body)
        return ProviderBinding(kind="external_command", locator=f"{sys.executable} {script}")

    def test_echo_provider_receives_parameters(self, tmp_path):
        binding = self._script(
            tmp_path,
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "assert req['task'] == 'paraphrase'\n"
            "out = f\"{req['l_max']}:{req['l_min']}:{req['length_penalty']}:{req['num_beams']}\"\n"
            "print(json.dumps({'text': out}))\n",
        )
        cfg = FusionConfig(paraphrase=ParaphraseParams(l_max=20, l_min=5, length_penalty=1.5, num_beams=2))
        out = fuse([desc("image", LONG_TEXT)], cfg, binding)
        assert out == "20:5:1.5:2"

    def test_nonzero_exit_is_failure(self, tmp_path):
        binding = self._script(tmp_path, "import sys\nsys.exit(3)\n")
        with pytest.raises(ProviderFailure, match="exited 3"):
            fuse([desc("image", LONG_TEXT)], FusionConfig(), binding)

    def test_slow_provider_times_out_as_failure(self, tmp_path, monkeypatch):
        binding = self._script(tmp_path, "import time\ntime.sleep(30)\n")
        monkeypatch.setattr(fusion, "PROVIDER_TIMEOUT_S", 0.5)
        with pytest.raises(ProviderFailure, match="did not answer within 0.5 s"):
            fuse([desc("image", LONG_TEXT)], FusionConfig(), binding)

    def test_garbage_stdout_is_failure(self, tmp_path):
        binding = self._script(tmp_path, "print('definitely not json')\n")
        with pytest.raises(ProviderFailure):
            fuse([desc("image", LONG_TEXT)], FusionConfig(), binding)

    def test_missing_command_unavailable(self):
        binding = ProviderBinding(kind="external_command", locator="/does/not/exist-cmd-xyz")
        with pytest.raises(ProviderUnavailable):
            fuse([desc("image", LONG_TEXT)], FusionConfig(), binding)

    def test_unparsable_command_unavailable(self):
        binding = ProviderBinding(kind="external_command", locator="python3 'unclosed")
        with pytest.raises(ProviderUnavailable, match="cannot parse provider command") as info:
            fuse([desc("audio", LONG_TEXT)], FusionConfig(), binding)
        assert info.value.modality == "audio"

    def test_output_at_the_cap_is_read(self, tmp_path, monkeypatch):
        reply = json.dumps({"text": "y" * 4000})
        binding = self._script(tmp_path, f"import sys\nsys.stdout.write({reply!r})\n")
        monkeypatch.setattr(fusion, "PROVIDER_MAX_OUTPUT_BYTES", len(reply))
        assert fuse([desc("image", LONG_TEXT)], FusionConfig(), binding) == "y" * 4000

    def test_chatty_stderr_is_drained_and_truncated(self, tmp_path):
        # 4 MiB of stderr, far past both the cap and a pipe's buffer
        binding = self._script(
            tmp_path,
            "import json, sys\n"
            "sys.stdin.read()\n"
            "sys.stderr.write('  \\r\\n' + 'e' * (4 << 20))\n"
            "print(json.dumps({'text': 'fine'}))\n"
            "sys.exit(int(sys.argv[1]) if len(sys.argv) > 1 else 0)\n",
        )
        assert fuse([desc("image", LONG_TEXT)], FusionConfig(), binding) == "fine"
        failing = ProviderBinding(kind="external_command", locator=f"{binding.locator} 2")
        with pytest.raises(ProviderFailure) as info:
            fuse([desc("image", LONG_TEXT)], FusionConfig(), failing)
        assert str(info.value) == "[modality=image] provider exited 2: " + "e" * 200

    def test_non_utf8_stdout_is_failure(self, tmp_path):
        binding = self._script(tmp_path, "import sys\nsys.stdout.buffer.write(b'\\xff\\xfe')\n")
        with pytest.raises(ProviderFailure, match="invalid JSON"):
            fuse([desc("image", LONG_TEXT)], FusionConfig(), binding)

    def test_output_cap_exits_5(self, tmp_path, monkeypatch):
        binding = self._script(tmp_path, "import sys\nsys.stdout.write('x' * 5000)\n")
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([{"modality": "weather", "condition": "rain", "temperature_c": 5.0,
                                       "wind_mps": 2.0}, {"modality": "image", "text": LONG_TEXT}]))
        monkeypatch.setattr(fusion, "PROVIDER_MAX_OUTPUT_BYTES", 4096)
        result = CliRunner().invoke(main, ["fuse", "--inputs", str(inputs), "--provider-kind", "external_command",
                                           "--provider", binding.locator])
        assert result.exit_code == 5, result.output
        assert result.stderr == "error: [modality=image] provider wrote more than 4096 bytes to stdout\n"
        assert result.stdout == ""


# Each description's text starts with its index: "d<i> ..." (12 words, so
# flagged). The provider answers with the text upper-cased, after sleeping
# longer for lower indices, so that the calls finish in reverse order.
_INDEXED_PROVIDER = """\
import json, sys, time
req = json.load(sys.stdin)
i = int(req["text"].split()[0][1:])
time.sleep(0.05 * (8 - i))
if "fail" in req["text"]:
    sys.stderr.write(f"bad {i}")
    sys.exit(3)
print(json.dumps({"text": req["text"].upper()}))
"""


class TestConcurrentProviders:
    MODALITIES = ("image", "audio", "text", "weather", "image", "text", "audio", "image")

    @staticmethod
    def _descriptions(failing=()):
        return [
            desc(m, f"d{i} {'fail' if i in failing else 'keep'} " + " ".join(["w"] * 10))
            for i, m in enumerate(TestConcurrentProviders.MODALITIES)
        ]

    @staticmethod
    def _spy_pools(monkeypatch):
        created = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def spy(max_workers):
            created.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
        return created

    def test_out_of_order_finishes_give_the_serial_result(self, tmp_path, monkeypatch):
        ds = self._descriptions() + [desc("text", "short one")]
        binding = TestCommandProvider._script(tmp_path, _INDEXED_PROVIDER)
        created = self._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        concurrent_result = fuse_with_trace(ds, FusionConfig(), binding)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial_result = fuse_with_trace(ds, FusionConfig(), binding)
        assert created == [8]
        assert concurrent_result == serial_result
        prompt, decisions = concurrent_result
        assert prompt == ", ".join([d.text.upper() for d in ds[:-1]] + ["short one"])
        assert [(d.modality, d.paraphrased) for d in decisions] == [(d.modality, d is not ds[-1]) for d in ds]

    def test_first_failure_in_input_order_is_raised(self, tmp_path, monkeypatch):
        # description 5 fails first in time, description 2 first in order
        binding = TestCommandProvider._script(tmp_path, _INDEXED_PROVIDER)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        with pytest.raises(ProviderFailure) as info:
            fuse(self._descriptions(failing=(2, 5)), FusionConfig(), binding)
        assert info.value.modality == "text"
        assert str(info.value) == "[modality=text] provider exited 3: bad 2"

    def test_calls_not_started_at_a_failure_are_cancelled(self, tmp_path, monkeypatch):
        # description 0 fails at once, while the other worker is on a slow
        # description 1; of the six after those, at most one can start
        log = tmp_path / "started.log"
        body = (
            "import json, sys, time\n"
            "req = json.load(sys.stdin)\n"
            f"with open({str(log)!r}, 'a') as fh:\n"
            "    fh.write(req['text'].split()[0] + '\\n')\n"
            "if 'fail' in req['text']:\n"
            "    sys.exit(3)\n"
            "time.sleep(0.5)\n"
            "print(json.dumps({'text': 'ok'}))\n"
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ProviderFailure, match="exited 3") as info:
            fuse(self._descriptions(failing=(0,)), FusionConfig(), TestCommandProvider._script(tmp_path, body))
        assert info.value.modality == "image"
        started = log.read_text().split()
        # the two workers' processes may log in either order, and a third
        # description may start before description 1's process logs
        assert {"d0", "d1"} <= set(started)
        assert len(started) <= 3

    def test_missing_command_starts_no_process(self, monkeypatch):
        started = []
        monkeypatch.setattr(fusion.subprocess, "Popen", lambda *a, **k: started.append(a))
        binding = ProviderBinding(kind="external_command", locator="/does/not/exist-cmd-xyz")
        ds = [desc("text", "short"), *self._descriptions()]
        with pytest.raises(ProviderUnavailable, match="provider command not found") as info:
            fuse(ds, FusionConfig(), binding)
        assert info.value.modality == "image"
        with pytest.raises(ProviderUnavailable, match="no paraphrase provider configured") as info:
            fuse(ds, FusionConfig(), None)
        assert info.value.modality == "image"
        assert started == []

    def test_one_flagged_description_or_one_cpu_makes_no_pool(self, tmp_path, monkeypatch):
        binding = TestCommandProvider._script(tmp_path, _INDEXED_PROVIDER)
        created = self._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        one = [desc("text", "short"), self._descriptions()[7]]
        assert fuse(one, FusionConfig(), binding) == "short, " + one[1].text.upper()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        ds = self._descriptions()[6:]
        assert fuse(ds, FusionConfig(), binding) == ", ".join(d.text.upper() for d in ds)
        assert created == []

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)) < 2,
        reason="needs 2 CPUs to run two providers at once",
    )
    def test_calls_overlap(self, tmp_path):
        # each call leaves a marker, then waits for the other call's; run one
        # after the other, the first would give up after 5 s and fail
        body = (
            "import json, sys, time\n"
            "from pathlib import Path\n"
            "req = json.load(sys.stdin)\n"
            "me, other = req['text'].split()[0], req['text'].split()[1]\n"
            f"root = Path({str(tmp_path)!r})\n"
            "(root / me).touch()\n"
            "deadline = time.monotonic() + 5.0\n"
            "while not (root / other).exists():\n"
            "    if time.monotonic() > deadline:\n"
            "        sys.exit(7)\n"
            "    time.sleep(0.01)\n"
            "print(json.dumps({'text': me}))\n"
        )
        filler = " ".join(["w"] * 10)
        ds = [desc("image", f"first second {filler}"), desc("audio", f"second first {filler}")]
        assert fuse(ds, FusionConfig(), TestCommandProvider._script(tmp_path, body)) == "first, second"
