"""Similarity metrics over embedding sets.

The headline score is a weighted mean of per-reference mean cosine
similarities: MS_i is the mean similarity of the generated embeddings to
reference i, and the multi-style score is sum(w_i * MS_i). Being a convex
combination, it can never exceed the best single-style MS, which is the
checkable core of the multi-style score-drop argument.

Embeddings arrive from files; no vision model is run here, so the scores
are exact arithmetic on the supplied vectors.

The MS values do not depend on the weights, so a weight grid needs each
only once. Every ``EmbeddingSet`` keeps the ``tensorcore._Record`` of its
matrix: the row norms are taken once per matrix, and the MS values of the
last references it was scored against are kept for the next set over the
same record. Sets built from every row ``read_vectors(path, rows=True)``
gave for one file, in order, share that file's record; ``lbk wms`` builds
one record per ``--generated`` path and one set per weight row over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet, InputError, ZeroVector
from .tensorcore import (
    LatentVector, _cosines, _Frozen, _Record, _row_norms, _stack_vectors, _sum, _weight_sum, norm
)


@dataclass(frozen=True)
class ReferenceStyle:
    name: str
    embedding: LatentVector
    weight: float


@dataclass(frozen=True)
class EmbeddingSet(_Frozen):
    """Generated-image embeddings plus named, weighted reference embeddings.

    ``generated`` may be given as a sequence of LatentVectors or as an
    (n, d) array; it is stored as one read-only (n, d) float64 matrix,
    with the norm of each reference computed once for every reference's
    score. The set keeps the ``_Record`` of that matrix as ``_rec``, which
    holds its row norms and the MS values ``wms_score`` last took over it.
    Given every row of one file, in order, as ``read_vectors(path,
    rows=True)`` returns them, the set keeps that file's matrix and record,
    so sets over the same rows share them; any other input gets a new
    matrix and record. A pickled or copied set carries a record over its
    own matrix.
    """

    generated: np.ndarray
    references: tuple[ReferenceStyle, ...]
    _rec: _Record = field(init=False, repr=False, compare=False)
    _ref_norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        record = _generated_record(self.generated, "no generated embeddings")
        references = tuple(self.references)
        if not references:
            raise EmptySet("no reference styles")
        zero = np.flatnonzero(record.norms() == 0.0)
        if zero.size:
            raise InputError(f"generated[{zero[0]}] is a zero vector")
        d = record.matrix.shape[1]
        names = set()
        ref_norms = tuple(norm(r.embedding) for r in references)
        for r, ref_norm in zip(references, ref_norms):
            if r.embedding.d_z != d:
                raise DimensionMismatch(f"reference '{r.name}' has d_z={r.embedding.d_z}, expected {d}")
            if ref_norm == 0.0:
                raise InputError(f"reference '{r.name}' is a zero vector")
            if not math.isfinite(r.weight) or r.weight < 0:
                raise InputError(f"reference '{r.name}' has invalid weight {r.weight}")
            if r.name in names:
                raise InputError(f"duplicate reference name '{r.name}'")
            names.add(r.name)
        if _weight_sum((r.weight for r in references), "reference weights") == 0.0:
            raise InputError("all reference weights are zero")
        object.__setattr__(self, "generated", record.matrix)
        object.__setattr__(self, "references", references)
        object.__setattr__(self, "_rec", record)
        object.__setattr__(self, "_ref_norms", ref_norms)


def _generated_record(generated, empty: str) -> _Record:
    """The ``_Record`` of a generated set: the record itself, given one (it
    is over a ``_checked`` matrix that nothing else changes); the record of
    every row of one file, in order, whose matrix ``_stack_vectors`` returns
    itself; otherwise a new record over a read-only float64 (n, d) copy of
    the LatentVectors or (n, d) array. ``empty`` is the EmptySet message
    for n == 0."""
    if isinstance(generated, _Record):
        return generated
    if not isinstance(generated, np.ndarray):
        generated = tuple(generated)
    if len(generated) == 0:
        raise EmptySet(empty)
    matrix = _stack_vectors(generated, "generated[{}]", "generated")
    record = getattr(generated[0], "_rec", None)
    return record if record is not None and matrix is record.matrix else _Record(matrix)


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
    gen = a.data[np.newaxis]
    return _mean_similarity(gen, _row_norms(gen), b, norm(b))


def mean_similarity(generated: Sequence[LatentVector] | np.ndarray, ref: LatentVector) -> float:
    """Mean cosine similarity of a generated set (LatentVectors or an (n, d)
    array) to one reference."""
    record = _generated_record(generated, "mean similarity over an empty generated set")
    ms = record.scores.get(ref.data.tobytes())
    return _mean_similarity(record.matrix, record.norms(), ref, norm(ref)) if ms is None else ms


def _mean_similarity(gen: np.ndarray, norms: np.ndarray, ref: LatentVector, ref_norm: float) -> float:
    """Mean of the ``_cosines`` of the rows of a C-order (n, d) ``gen``,
    whose ``_row_norms`` are ``norms``, to ``ref``, whose norm is ``ref_norm``.
    """
    if ref_norm == 0.0 or not norms.all():
        raise ZeroVector("cosine similarity undefined for zero vectors")
    return _sum(_cosines(gen, norms, ref.data, ref_norm).tolist()) / gen.shape[0]


def weighted_score(ms_values: Sequence[float], weights: Sequence[float]) -> float:
    """Raw weighted sum of per-style scores, left-to-right, no normalization.

    This is the arithmetic layer that turns a row of MS values plus weights
    into the multi-style score; it is linear in the weight vector.
    """
    if len(ms_values) != len(weights):
        raise DimensionMismatch(f"{len(ms_values)} scores but {len(weights)} weights")
    return _sum(w * ms for ms, w in zip(ms_values, weights))


def wms_score(es: EmbeddingSet) -> WmsReport:
    """Per-style MS values plus the weighted multi-style score.

    Reference weights are normalized to sum 1 before weighting, so the
    score is a convex combination of the per-style means.
    """
    per_style = _style_means(es)
    weights = [r.weight for r in es.references]
    total_w = _weight_sum(weights, "reference weights")
    values = list(per_style.values())
    wms = weighted_score(values, [w / total_w for w in weights])
    ms_gap = max(values) - min(values)  # equals the max pairwise |MS_i - MS_j|
    return WmsReport(per_style_ms=per_style, wms=wms, ms_gap=ms_gap)


def _style_means(es: EmbeddingSet) -> dict[str, float]:
    """MS of the generated set to each reference, in reference order.

    They are taken from the set's ``_Record`` when its references are the
    ones scored last, and left there otherwise: the dict is replaced whole,
    never grown, and never changed once stored, so threads sharing the
    record read whole dicts.
    """
    keys = [r.embedding.data.tobytes() for r in es.references]
    record = es._rec
    scores = record.scores
    if scores.keys() != set(keys):
        scores = {
            key: _mean_similarity(record.matrix, record.norms(), r.embedding, ref_norm)
            for key, r, ref_norm in zip(keys, es.references, es._ref_norms)
        }
        record.scores = scores
    return {r.name: scores[key] for r, key in zip(es.references, keys)}


def score_drop_bound(es: EmbeddingSet) -> ScoreDropBound:
    """The weighted score against the best single-style MS.

    A convex combination of reals is bounded by their maximum, so ``holds``
    is always true; it is reported (rather than asserted) so sweeps can log
    the margin.
    """
    report = wms_score(es)
    max_ms = max(report.per_style_ms.values())
    return ScoreDropBound(wms=report.wms, max_ms=max_ms, holds=report.wms <= max_ms + 1e-12)
