import json
import sys
from pathlib import Path

import numpy as np
import pytest

from latentblendkit import (
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
    best_music_query,
    concatenate_descriptions,
    cosine_similarity,
    default_query_catalog,
    fuse,
    fuse_with_trace,
    fusion,
    needs_paraphrasing,
    unit,
    weather_to_text,
)

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
    def _script(self, tmp_path, body):
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
