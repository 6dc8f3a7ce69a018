"""Multi-modal prompt fusion.

Each input modality arrives as a short text description (music arrives as
an audio embedding and is matched to the closest entry of a fixed query
catalog). Descriptions longer than a word threshold are sent to a
paraphrasing provider; everything is then joined, in input order, into one
prompt. Model inference never happens in-process: providers are either a
JSON fixture file (exact text -> replacement) or an external command that
reads a JSON request from stdin, a regular file, and prints a JSON reply.

A fusion checks its provider once, before any description is paraphrased.
External commands then run concurrently, one process per flagged
description and at most one per CPU at a time; the prompt, the decisions
and any error are those of running them one after another in input order.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import shlex
import shutil
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    InputError,
    IoFailure,
    ProviderFailure,
    ProviderUnavailable,
    ZeroVector,
)
from .formats import _SURROGATE, _parse_json, decode, read_json
from .tensorcore import LatentVector, _cosines, _Frozen, _map_threads, _Record, _stack_vectors, norm

MODALITIES = ("image", "audio", "music", "weather", "text")

FIXTURE_FILE = "fixture_file"
EXTERNAL_COMMAND = "external_command"

#: Seconds an external paraphrase command may take per description before
#: it is killed and the fusion fails with ProviderFailure.
PROVIDER_TIMEOUT_S = 60.0

#: Bytes an external paraphrase command may write to stdout per description
#: before it is killed and the fusion fails with ProviderFailure. Of its
#: stderr as much is kept, and the rest read and dropped.
PROVIDER_MAX_OUTPUT_BYTES = 1 << 20


@dataclass(frozen=True)
class ModalityDescription:
    """One modality's text; a fuse input entry given as text."""

    modality: str
    text: str

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise InputError(f"modality must be one of {', '.join(MODALITIES)}, got {self.modality!r}")

    @property
    def word_count(self) -> int:
        """The text's whitespace-token count."""
        return len(self.text.split())

    @classmethod
    def from_text(cls, modality: str, text: str) -> "ModalityDescription":
        return cls(modality=modality, text=text)


@dataclass(frozen=True)
class _MusicInput:
    """A music fuse input entry, less its modality."""

    embedding: LatentVector


@dataclass(frozen=True)
class QueryEntry:
    text: str
    embedding: LatentVector


@dataclass(frozen=True)
class QueryCatalog(_Frozen):
    """Ordered mood/atmosphere queries with their text embeddings, also
    stacked as the rows of one read-only matrix, whose ``_Record``, kept as
    ``_rec``, takes the row norms once for every match."""

    queries: tuple[QueryEntry, ...]
    _rec: _Record = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        queries = tuple(self.queries)
        if not queries:
            raise EmptySet("query catalog is empty")
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "_rec", _stack_vectors([q.embedding for q in queries], "catalog entry {}"))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "QueryCatalog":
        return cls(queries=decode(tuple[QueryEntry, ...], read_json(path, "query catalog"), f"query catalog {path}"))


def default_query_catalog() -> QueryCatalog:
    """The shipped 24-entry catalog (one-hot fixture embeddings)."""
    return QueryCatalog.from_json_file(resources.files("latentblendkit") / "data" / "music_queries.json")


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
    music_norm = norm(music_embedding)
    if music_norm == 0.0:
        raise ZeroVector("music embedding is a zero vector")
    embeddings, norms = catalog._rec.matrix, catalog._rec.norms()
    if music_embedding.d_z != embeddings.shape[1]:
        raise DimensionMismatch(f"dot: dimensions differ ({music_embedding.d_z} vs {embeddings.shape[1]})")
    if not norms.all():
        raise ZeroVector("cosine similarity undefined for zero vectors")
    scores = _cosines(embeddings, norms, music_embedding.data, music_norm)
    best = int(np.argmax(scores))  # the first of equal maxima
    return QueryMatch(index=best, text=catalog.queries[best].text, score=float(scores[best]))


def needs_paraphrasing(d: ModalityDescription, cfg: FusionConfig = FusionConfig()) -> bool:
    """Strictly more words than the threshold."""
    return d.word_count > cfg.verbosity_threshold_k


def concatenate_descriptions(ds: Sequence[ModalityDescription]) -> str:
    """Join non-empty texts with ', ' in input order; empty entries vanish."""
    return _join_texts(d.text for d in ds)


def _join_texts(texts: Iterable[str]) -> str:
    return ", ".join(t for t in texts if t)


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
    """Like ``fuse`` but also reports the per-description decisions."""
    flags = [needs_paraphrasing(d, cfg) for d in ds]
    paraphrases = iter(_paraphrase([d for d, f in zip(ds, flags) if f], cfg.paraphrase, paraphraser))
    decisions = []
    for d, flagged in zip(ds, flags):
        text = next(paraphrases) if flagged else d.text
        decisions.append(
            FusionDecision(modality=d.modality, paraphrased=flagged, text_in=d.text, text_out=text)
        )
    return _join_texts(d.text_out for d in decisions), decisions


def _paraphrase(
    ds: list[ModalityDescription], params: ParaphraseParams, paraphraser: ProviderBinding | None
) -> list[str]:
    """The paraphrases of the flagged descriptions ``ds``, in order.

    The provider is checked once, up front: a missing one, a fixture map
    that cannot be read and a command that cannot be parsed or found all
    name the first description's modality. A fixture map is then looked up
    one description at a time. External commands run through
    ``tensorcore._map_threads``, the package's one pool policy: one thread
    per CPU, at most one per description, and no pool when that is one.
    The first failure in input order is raised, and the calls not yet
    started are cancelled. By then later calls may have finished, and up to
    workers - 1 may still be running; their output is discarded.
    """
    if not ds:
        return []
    modality = ds[0].modality
    if paraphraser is None:
        raise ProviderUnavailable("no paraphrase provider configured", modality=modality)
    if paraphraser.kind == FIXTURE_FILE:
        fixture = _load_fixture(paraphraser.locator, modality)
        return [_fixture_lookup(fixture, d.text, paraphraser.locator, d.modality) for d in ds]
    call = partial(_paraphrase_command, _provider_argv(paraphraser.locator, modality), params)
    return _map_threads(call, ds)


def _load_fixture(locator: str, modality: str) -> dict:
    """The fixture provider's text -> replacement map."""
    try:
        return read_json(locator, "paraphrase fixture", expect=dict)
    except IoFailure as exc:
        raise ProviderUnavailable(str(exc), modality=modality) from exc
    except InputError as exc:
        raise ProviderFailure(str(exc), modality=modality) from exc


def _fixture_lookup(mapping: dict, text: str, locator: str, modality: str) -> str:
    if text not in mapping:
        raise ProviderFailure(f"fixture {locator} has no entry for the input text", modality=modality)
    out = mapping[text]
    if not isinstance(out, str) or _SURROGATE.search(out):
        raise ProviderFailure(f"fixture {locator} maps the input to a non-string or lone surrogate", modality=modality)
    return out


def _provider_argv(locator: str, modality: str) -> list[str]:
    """The argument vector of an external provider command, whose program exists."""
    try:
        argv = shlex.split(locator)
    except ValueError as exc:  # an unclosed quote or a trailing escape
        raise ProviderUnavailable(f"cannot parse provider command: {exc}", modality=modality) from exc
    if not argv:
        raise ProviderUnavailable("empty provider command", modality=modality)
    if shutil.which(argv[0]) is None and not Path(argv[0]).is_file():
        raise ProviderUnavailable(f"provider command not found: {argv[0]}", modality=modality)
    return argv


def _paraphrase_command(argv: list[str], params: ParaphraseParams, d: ModalityDescription) -> str:
    """One external provider call: the paraphrase of ``d.text``."""
    request = json.dumps({"task": "paraphrase", "text": d.text, **asdict(params)})
    returncode, stdout, stderr = _exchange(argv, request.encode("utf-8"), d.modality)
    if returncode != 0:
        raise ProviderFailure(
            f"provider exited {returncode}: {_text(stderr, 'replace').strip()[:200]}", modality=d.modality
        )
    try:
        response = _parse_json(_text(stdout, "strict"), "provider output")
    except (InputError, UnicodeDecodeError) as exc:
        raise ProviderFailure(f"invalid JSON: {exc}", modality=d.modality) from exc
    match response:
        case {"text": str(text)} if not _SURROGATE.search(text):
            return text
    raise ProviderFailure("provider response lacks a 'text' string free of lone surrogates", modality=d.modality)


def _text(data: bytes, errors: str) -> str:
    """Provider output as text, with universal newlines as subprocess's text mode reads it."""
    return data.decode("utf-8", errors).replace("\r\n", "\n").replace("\r", "\n")


def _exchange(argv: list[str], request: bytes, modality: str) -> tuple[int, bytes, bytes]:
    """Run ``argv`` reading ``request`` from an unlinked temporary file as
    its stdin: (exit code, stdout, stderr). Both output pipes are read as
    they fill, so a chatty stderr cannot stall the provider; stderr past
    PROVIDER_MAX_OUTPUT_BYTES is read and dropped. A provider that writes
    more than that to stdout, or has not exited PROVIDER_TIMEOUT_S after it
    started, is killed.
    """
    deadline = time.monotonic() + PROVIDER_TIMEOUT_S
    try:  # an unwritable temporary directory fails as a provider that cannot start
        with tempfile.TemporaryFile() as stdin:
            stdin.write(request)
            stdin.seek(0)
            proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except OSError as exc:
        raise ProviderUnavailable(f"cannot execute provider: {exc}", modality=modality) from exc
    timed_out = ProviderFailure(f"provider did not answer within {PROVIDER_TIMEOUT_S} s", modality=modality)
    outputs = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    with proc, selectors.DefaultSelector() as selector:  # proc's exit closes the pipes and reaps it
        try:
            for pipe in outputs:
                selector.register(pipe, selectors.EVENT_READ)
            while selector.get_map():
                remaining = deadline - time.monotonic()
                ready = selector.select(remaining) if remaining > 0 else []
                if not ready:
                    raise timed_out
                for key, _ in ready:
                    chunk = os.read(key.fd, 65536)
                    if not chunk:
                        selector.unregister(key.fileobj)
                        continue
                    kept = outputs[key.fileobj]
                    if key.fileobj is proc.stdout and len(kept) + len(chunk) > PROVIDER_MAX_OUTPUT_BYTES:
                        raise ProviderFailure(
                            f"provider wrote more than {PROVIDER_MAX_OUTPUT_BYTES} bytes to stdout", modality=modality
                        )
                    kept += chunk[: PROVIDER_MAX_OUTPUT_BYTES - len(kept)]
            try:
                returncode = proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise timed_out from None
        except BaseException:  # a failure above, or an interrupt: the provider goes too
            proc.kill()
            raise
    return returncode, bytes(outputs[proc.stdout]), bytes(outputs[proc.stderr])
