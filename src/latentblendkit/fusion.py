"""Multi-modal prompt fusion.

Each input modality arrives as a short text description (music arrives as
an audio embedding and is matched to the closest entry of a fixed query
catalog). Descriptions longer than a word threshold are sent to a
paraphrasing provider; everything is then joined, in input order, into one
prompt. Model inference never happens in-process: providers are either a
JSON fixture file (exact text -> replacement) or an external command
speaking JSON on stdin/stdout.
"""

from __future__ import annotations

import json
import math
import shlex
import shutil
import subprocess
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    EmptySet,
    InputError,
    ProviderFailure,
    ProviderUnavailable,
    ZeroVector,
)
from .formats import read_json
from .metrics import cosine_similarity
from .tensorcore import LatentVector, norm

MODALITIES = ("image", "audio", "music", "weather", "text")

FIXTURE_FILE = "fixture_file"
EXTERNAL_COMMAND = "external_command"

#: Seconds an external paraphrase command may take per description before
#: it is killed and the fusion fails with ProviderFailure.
PROVIDER_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ModalityDescription:
    """One modality's text plus its whitespace-token count."""

    modality: str
    text: str
    word_count: int

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise InputError(f"unknown modality '{self.modality}'")
        if self.word_count != len(self.text.split()):
            raise InputError(
                f"word_count {self.word_count} does not match text ({len(self.text.split())} words)"
            )

    @classmethod
    def from_text(cls, modality: str, text: str) -> "ModalityDescription":
        return cls(modality=modality, text=text, word_count=len(text.split()))


@dataclass(frozen=True)
class QueryEntry:
    text: str
    embedding: LatentVector


@dataclass(frozen=True)
class QueryCatalog:
    """Ordered mood/atmosphere queries with their text embeddings."""

    queries: tuple[QueryEntry, ...]

    def __post_init__(self):
        queries = tuple(self.queries)
        if not queries:
            raise EmptySet("query catalog is empty")
        d = queries[0].embedding.d_z
        for i, q in enumerate(queries):
            if q.embedding.d_z != d:
                raise DimensionMismatch(f"catalog entry {i} has d_z={q.embedding.d_z}, expected {d}")
        object.__setattr__(self, "queries", queries)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "QueryCatalog":
        return cls.from_obj(read_json(path, "query catalog"), source=str(path))

    @classmethod
    def from_obj(cls, raw, source: str = "<memory>") -> "QueryCatalog":
        if not isinstance(raw, list):
            raise InputError(f"query catalog {source} must be a JSON array")
        entries = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict) or "text" not in item or "embedding" not in item:
                raise InputError(f"query catalog {source} entry {i} needs 'text' and 'embedding'")
            entries.append(QueryEntry(text=str(item["text"]), embedding=LatentVector(item["embedding"])))
        return cls(queries=tuple(entries))


def default_query_catalog() -> QueryCatalog:
    """The shipped 24-entry catalog (one-hot fixture embeddings)."""
    raw = resources.files("latentblendkit").joinpath("data/music_queries.json").read_text("utf-8")
    return QueryCatalog.from_obj(json.loads(raw), source="data/music_queries.json")


class QueryMatch(NamedTuple):
    index: int
    text: str
    score: float


@dataclass(frozen=True)
class ParaphraseParams:
    """Generation bounds forwarded verbatim to the paraphrase provider."""

    l_max: int = 32
    l_min: int = 8
    length_penalty: float = 2.0
    num_beams: int = 4

    def __post_init__(self):
        if self.l_min > self.l_max:
            raise InputError(f"l_min {self.l_min} exceeds l_max {self.l_max}")
        if self.num_beams < 1:
            raise InputError(f"num_beams must be >= 1, got {self.num_beams}")


@dataclass(frozen=True)
class FusionConfig:
    """Word-count threshold above which a description gets paraphrased."""

    verbosity_threshold_k: int = 10
    paraphrase: ParaphraseParams = ParaphraseParams()

    def __post_init__(self):
        if self.verbosity_threshold_k < 1:
            raise InputError(f"verbosity threshold must be >= 1, got {self.verbosity_threshold_k}")


@dataclass(frozen=True)
class ProviderBinding:
    """Where paraphrases come from: a fixture JSON map or an external command."""

    kind: str
    locator: str

    def __post_init__(self):
        if self.kind not in (FIXTURE_FILE, EXTERNAL_COMMAND):
            raise InputError(f"unknown provider kind '{self.kind}'")
        if not self.locator:
            raise InputError("provider locator must be non-empty")


@dataclass(frozen=True)
class WeatherRecord:
    condition: str
    temperature_c: float
    wind_mps: float

    def __post_init__(self):
        if not self.condition:
            raise InputError("weather condition must be non-empty")
        if not (math.isfinite(self.temperature_c) and math.isfinite(self.wind_mps)):
            raise InputError("weather numbers must be finite")


def best_music_query(music_embedding: LatentVector, catalog: QueryCatalog) -> QueryMatch:
    """Catalog entry most cosine-similar to the music embedding.

    Ties break to the lowest index so the match is deterministic.
    """
    if norm(music_embedding) == 0.0:
        raise ZeroVector("music embedding is a zero vector")
    best_index = 0
    best_score = -math.inf
    for i, q in enumerate(catalog.queries):
        score = cosine_similarity(music_embedding, q.embedding)
        if score > best_score:
            best_index, best_score = i, score
    return QueryMatch(index=best_index, text=catalog.queries[best_index].text, score=best_score)


def needs_paraphrasing(d: ModalityDescription, cfg: FusionConfig = FusionConfig()) -> bool:
    """Strictly more words than the threshold."""
    return d.word_count > cfg.verbosity_threshold_k


def concatenate_descriptions(ds: Sequence[ModalityDescription]) -> str:
    """Join non-empty texts with ', ' in input order; empty entries vanish."""
    return ", ".join(d.text for d in ds if d.text)


def weather_to_text(record: WeatherRecord) -> ModalityDescription:
    """Fixed template; numbers rendered to one decimal (banker's rounding)."""
    text = (
        f"{record.condition}, {record.temperature_c:.1f} degrees,"
        f" wind {record.wind_mps:.1f} m/s"
    )
    return ModalityDescription.from_text("weather", text)


class FusionDecision(NamedTuple):
    """What happened to one description on its way into the prompt."""

    modality: str
    paraphrased: bool
    text_in: str
    text_out: str


def fuse(
    ds: Sequence[ModalityDescription],
    cfg: FusionConfig = FusionConfig(),
    paraphraser: ProviderBinding | None = None,
) -> str:
    """Paraphrase every over-long description, then concatenate in order.

    The provider is only consulted for flagged descriptions, so short-only
    inputs never need one configured.
    """
    prompt, _ = fuse_with_trace(ds, cfg, paraphraser)
    return prompt


def fuse_with_trace(
    ds: Sequence[ModalityDescription],
    cfg: FusionConfig = FusionConfig(),
    paraphraser: ProviderBinding | None = None,
) -> tuple[str, list[FusionDecision]]:
    """Like ``fuse`` but also reports the per-description decisions.

    A fixture provider's map is read once, at the first flagged description.
    """
    processed = []
    decisions = []
    fixture: dict | None = None
    for d in ds:
        flagged = needs_paraphrasing(d, cfg)
        text = d.text
        if flagged:
            if paraphraser is None:
                raise ProviderUnavailable("no paraphrase provider configured", modality=d.modality)
            if paraphraser.kind == EXTERNAL_COMMAND:
                text = _paraphrase_command(d.text, cfg.paraphrase, paraphraser.locator, d.modality)
            else:
                if fixture is None:
                    fixture = _load_fixture(paraphraser.locator, d.modality)
                text = _fixture_lookup(fixture, d.text, paraphraser.locator, d.modality)
        processed.append(ModalityDescription.from_text(d.modality, text))
        decisions.append(
            FusionDecision(modality=d.modality, paraphrased=flagged, text_in=d.text, text_out=text)
        )
    return concatenate_descriptions(processed), decisions


def _load_fixture(locator: str, modality: str) -> dict:
    """The fixture provider's text -> replacement map."""
    path = Path(locator)
    if not path.is_file():
        raise ProviderUnavailable(f"fixture file not found: {locator}", modality=modality)
    try:
        mapping = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ProviderFailure(f"malformed fixture {locator}: {exc}", modality=modality) from exc
    if not isinstance(mapping, dict):
        raise ProviderFailure(f"fixture {locator} must be a JSON object", modality=modality)
    return mapping


def _fixture_lookup(mapping: dict, text: str, locator: str, modality: str) -> str:
    if text not in mapping:
        raise ProviderFailure(f"fixture {locator} has no entry for the input text", modality=modality)
    out = mapping[text]
    if not isinstance(out, str):
        raise ProviderFailure(f"fixture {locator} maps the input to a non-string", modality=modality)
    return out


def _paraphrase_command(text: str, params: ParaphraseParams, locator: str, modality: str) -> str:
    argv = shlex.split(locator)
    if not argv:
        raise ProviderUnavailable("empty provider command", modality=modality)
    if shutil.which(argv[0]) is None and not Path(argv[0]).is_file():
        raise ProviderUnavailable(f"provider command not found: {argv[0]}", modality=modality)
    request = json.dumps(
        {
            "task": "paraphrase",
            "text": text,
            "l_max": params.l_max,
            "l_min": params.l_min,
            "length_penalty": params.length_penalty,
            "num_beams": params.num_beams,
        }
    )
    try:
        proc = subprocess.run(
            argv, input=request, capture_output=True, text=True, check=False, timeout=PROVIDER_TIMEOUT_S
        )
    except OSError as exc:
        raise ProviderUnavailable(f"cannot execute provider: {exc}", modality=modality) from exc
    except subprocess.TimeoutExpired as exc:  # run() has killed the provider
        raise ProviderFailure(
            f"provider did not answer within {PROVIDER_TIMEOUT_S} s", modality=modality
        ) from exc
    if proc.returncode != 0:
        raise ProviderFailure(
            f"provider exited {proc.returncode}: {proc.stderr.strip()[:200]}", modality=modality
        )
    try:
        response = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise ProviderFailure(f"provider emitted invalid JSON: {exc}", modality=modality) from exc
    if not isinstance(response, dict) or not isinstance(response.get("text"), str):
        raise ProviderFailure("provider response lacks a string 'text' field", modality=modality)
    return response["text"]
