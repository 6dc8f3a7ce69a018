"""Similarity metrics over embedding sets.

The headline score is a weighted mean of per-reference mean cosine
similarities: MS_i is the mean similarity of the generated embeddings to
reference i, and the multi-style score is sum(w_i * MS_i). Being a convex
combination, it can never exceed the best single-style MS, which is the
checkable core of the multi-style score-drop argument.

Embeddings arrive from files; no vision model is run here, so the scores
are exact arithmetic on the supplied vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, EmptySet, InputError, ZeroVector
from .tensorcore import LatentVector, dot, norm


@dataclass(frozen=True)
class ReferenceStyle:
    name: str
    embedding: LatentVector
    weight: float


@dataclass(frozen=True)
class EmbeddingSet:
    """Generated-image embeddings plus named, weighted reference embeddings."""

    generated: tuple[LatentVector, ...]
    references: tuple[ReferenceStyle, ...]

    def __post_init__(self):
        generated = tuple(self.generated)
        references = tuple(self.references)
        if not generated:
            raise EmptySet("no generated embeddings")
        if not references:
            raise EmptySet("no reference styles")
        d = generated[0].d_z
        for i, g in enumerate(generated):
            if g.d_z != d:
                raise DimensionMismatch(f"generated[{i}] has d_z={g.d_z}, expected {d}")
            if norm(g) == 0.0:
                raise InputError(f"generated[{i}] is a zero vector")
        names = set()
        for r in references:
            if r.embedding.d_z != d:
                raise DimensionMismatch(f"reference '{r.name}' has d_z={r.embedding.d_z}, expected {d}")
            if norm(r.embedding) == 0.0:
                raise InputError(f"reference '{r.name}' is a zero vector")
            if not math.isfinite(r.weight) or r.weight < 0:
                raise InputError(f"reference '{r.name}' has invalid weight {r.weight}")
            if r.name in names:
                raise InputError(f"duplicate reference name '{r.name}'")
            names.add(r.name)
        if math.fsum(r.weight for r in references) == 0.0:
            raise InputError("all reference weights are zero")
        object.__setattr__(self, "generated", generated)
        object.__setattr__(self, "references", references)


@dataclass(frozen=True)
class WmsReport:
    """Per-style mean similarities, their weighted mean, and the largest
    pairwise gap between them."""

    per_style_ms: dict[str, float]
    wms: float
    ms_gap: float


class ScoreDropBound(NamedTuple):
    wms: float
    max_ms: float
    holds: bool


def cosine_similarity(a: LatentVector, b: LatentVector) -> float:
    """(a . b) / (|a| |b|), clamped to [-1, 1] against rounding."""
    return _cosine(a, b, norm(b))


def _cosine(a: LatentVector, b: LatentVector, nb: float) -> float:
    """cosine_similarity(a, b) given b's norm ``nb``."""
    na = norm(a)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for zero vectors")
    return min(1.0, max(-1.0, dot(a, b) / (na * nb)))


def mean_similarity(generated: Sequence[LatentVector], ref: LatentVector) -> float:
    """Mean cosine similarity of a generated set to one reference.

    Summation is plain left-to-right so results do not depend on any
    parallel evaluation strategy.
    """
    if len(generated) == 0:
        raise EmptySet("mean similarity over an empty generated set")
    ref_norm = norm(ref)
    total = 0.0
    for g in generated:
        total += _cosine(g, ref, ref_norm)
    return total / len(generated)


def weighted_score(ms_values: Sequence[float], weights: Sequence[float]) -> float:
    """Raw weighted sum of per-style scores, left-to-right, no normalization.

    This is the arithmetic layer that turns a row of MS values plus weights
    into the multi-style score; it is linear in the weight vector.
    """
    if len(ms_values) != len(weights):
        raise DimensionMismatch(f"{len(ms_values)} scores but {len(weights)} weights")
    total = 0.0
    for ms, w in zip(ms_values, weights):
        total += w * ms
    return total


def wms_score(es: EmbeddingSet) -> WmsReport:
    """Per-style MS values plus the weighted multi-style score.

    Reference weights are normalized to sum 1 before weighting, so the
    score is a convex combination of the per-style means.
    """
    total_w = math.fsum(r.weight for r in es.references)
    per_style = {r.name: mean_similarity(es.generated, r.embedding) for r in es.references}
    wms = weighted_score(
        [per_style[r.name] for r in es.references],
        [r.weight / total_w for r in es.references],
    )
    values = list(per_style.values())
    ms_gap = max(values) - min(values)  # equals the max pairwise |MS_i - MS_j|
    return WmsReport(per_style_ms=per_style, wms=wms, ms_gap=ms_gap)


def score_drop_bound(es: EmbeddingSet) -> ScoreDropBound:
    """The weighted score against the best single-style MS.

    A convex combination of reals is bounded by their maximum, so ``holds``
    is always true; it is reported (rather than asserted) so sweeps can log
    the margin.
    """
    report = wms_score(es)
    max_ms = max(report.per_style_ms.values())
    return ScoreDropBound(wms=report.wms, max_ms=max_ms, holds=report.wms <= max_ms + 1e-12)
