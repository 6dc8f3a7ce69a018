"""Scaled dot-product attention and its style-aligned variants.

``shared_attention`` lets a generated image's tokens attend over the
concatenation of reference keys/values and its own, with queries and keys
first re-statistic'd against the reference (AdaIN) and the reference logit
block optionally rescaled (logit -> logit * sigma + mu). A uniform shift of
*all* logits cancels in the softmax, so the rescale is only applied to the
reference block, pre-softmax; that is the one reading under which it can
change the result.

``lambda_rescaled_attention`` is the multi-reference balancing variant:
each style block's logits are scaled by its relative weight before a joint
softmax, so no single style can dominate by activation magnitude alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllZeroWeights, DimensionMismatch, EmptySet, InputError, NumericDomainError
from .normalization import AdainConfig, _adain_rows, _column_stats
from .tensorcore import Matrix, _row_matmul, _softmax_rows_array, _weight_sum, _weighted_rows


class StyleClass(enum.Enum):
    NORMAL = "normal"
    FAMOUS = "famous"


@dataclass(frozen=True)
class RescaleParams:
    """Affine transform of the reference logit block: logit * sigma + mu."""

    mu: float
    sigma: float

    def __post_init__(self):
        for name in ("mu", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.sigma > 0:
            raise InputError(f"sigma must be > 0, got {self.sigma}")


IDENTITY_RESCALE = RescaleParams(mu=0.0, sigma=1.0)


@dataclass(frozen=True)
class StyleClassifierConfig:
    """Key-norm threshold and the rescale parameters for each class.

    References whose mean key norm exceeds the threshold produce outsized
    attention logits ("famous" styles) and get damped (sigma 0.5); ordinary
    references get a mild boost (mu log 2) instead.
    """

    threshold_t: float = 0.5
    params_normal: RescaleParams = RescaleParams(mu=math.log(2.0), sigma=1.0)
    params_famous: RescaleParams = RescaleParams(mu=math.log(1.0), sigma=0.5)

    def __post_init__(self):
        if not self.threshold_t > 0:
            raise InputError(f"threshold_t must be > 0, got {self.threshold_t}")


@dataclass(frozen=True)
class AttentionInputs:
    q: Matrix
    k: Matrix
    v: Matrix

    def __post_init__(self):
        if self.q.cols != self.k.cols:
            raise DimensionMismatch(f"Q feature dim {self.q.cols} != K feature dim {self.k.cols}")
        if self.k.rows != self.v.rows:
            raise DimensionMismatch(f"K has {self.k.rows} tokens but V has {self.v.rows}")


@dataclass(frozen=True)
class SharedAttentionOutput:
    """Updated tokens, full attention weights, and the probability mass the
    queries put on the reference block (averaged over query rows)."""

    updated: Matrix
    weights: Matrix
    ref_mass: float


@dataclass(frozen=True)
class StyleBlock:
    """Key/value token stack for one reference style plus its blend weight."""

    k: Matrix
    v: Matrix
    weight: float

    def __post_init__(self):
        if self.k.rows != self.v.rows:
            raise DimensionMismatch(f"K has {self.k.rows} tokens but V has {self.v.rows}")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise InputError(f"style weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True)
class MultiStyleAttentionOutput:
    """Joint-softmax result over several style blocks with per-block mass
    and the lambda w_i / sum(w) that scaled each block's logits."""

    updated: Matrix
    weights: Matrix
    block_mass: tuple[float, ...]
    lambdas: tuple[float, ...]


def attention(inp: AttentionInputs) -> tuple[Matrix, Matrix]:
    """Plain scaled dot-product attention; returns (output, weights)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out, weights, _ = _attend_blocks(inp.k.data, inp.v.data, 0, IDENTITY_RESCALE, inp.q.data)
        _finite_rows(weights)
    return Matrix(out), Matrix(weights)


def _scaled_logits(q: np.ndarray, k: np.ndarray, tail: int | None = None) -> np.ndarray:
    """q @ k.T / sqrt(dim), through ``_row_matmul`` (``tail`` as there)."""
    logits = _row_matmul(q, k, tail)
    logits /= math.sqrt(q.shape[-1])
    return logits


def _finite_rows(weights: np.ndarray) -> np.ndarray:
    """``weights`` from ``_softmax_rows_array``, or a NumericDomainError if
    the max logit of a row was not finite: the softmax makes such a row all
    NaN, so the first column shows it, without a pass over every entry.

    The public attention functions call their kernels with numpy's overflow
    and invalid warnings off, and report the one overflow that matters here.
    A max that is finite while other logits overflow to -inf is harmless:
    their weights are exactly 0.
    """
    if not np.isfinite(weights[..., 0]).all():
        raise NumericDomainError("attention logits overflowed float64: a row's largest logit is not finite")
    return weights


def classify_style(ref_k: Matrix, cfg: StyleClassifierConfig = StyleClassifierConfig()) -> StyleClass:
    """Famous iff the mean key-row norm exceeds the threshold.

    The mean over token rows stands in for "the" key norm: it is
    permutation-invariant and scales with the activations.
    """
    mean_norm = float(np.linalg.norm(ref_k.data, axis=1).mean())
    return StyleClass.FAMOUS if mean_norm > cfg.threshold_t else StyleClass.NORMAL


def rescale_params_for(style: StyleClass, cfg: StyleClassifierConfig = StyleClassifierConfig()) -> RescaleParams:
    return cfg.params_famous if style is StyleClass.FAMOUS else cfg.params_normal


def shared_attention(
    self_q: Matrix,
    self_k: Matrix,
    self_v: Matrix,
    ref_q: Matrix,
    ref_k: Matrix,
    ref_v: Matrix,
    rescale: RescaleParams = IDENTITY_RESCALE,
    adain_cfg: AdainConfig = AdainConfig(),
) -> SharedAttentionOutput:
    """Attend self queries over [reference keys || self keys].

    Self queries and keys are first AdaIN-normalized against the reference
    ones; values stay raw on both sides. The reference block's logits are
    transformed by ``rescale`` before the softmax; self logits are untouched.
    """
    dims = {m.cols for m in (self_q, self_k, ref_q, ref_k)}
    if len(dims) != 1:
        raise DimensionMismatch(f"Q/K feature dims disagree: {sorted(dims)}")
    if ref_v.cols != self_v.cols:
        raise DimensionMismatch(f"value dims differ: {ref_v.cols} vs {self_v.cols}")
    if ref_k.rows != ref_v.rows:
        raise DimensionMismatch(f"reference K has {ref_k.rows} tokens but V has {ref_v.rows}")
    if self_k.rows != self_v.rows:
        raise DimensionMismatch(f"self K has {self_k.rows} tokens but V has {self_v.rows}")

    eps_std = adain_cfg.eps_std
    q_hat = _adain_rows(self_q.data, *_column_stats(ref_q.data, eps_std), eps_std)
    # the same inputs make the same bits, and queries that are the keys let
    # the kernel compute half the self logits
    same = self_k is self_q and ref_k is ref_q
    k_hat = q_hat if same else _adain_rows(self_k.data, *_column_stats(ref_k.data, eps_std), eps_std)
    keys, values = np.concatenate((ref_k.data, k_hat)), np.concatenate((ref_v.data, self_v.data))
    with np.errstate(over="ignore", invalid="ignore"):
        out, weights, ref_mass = _attend_blocks(keys, values, ref_k.rows, rescale, None if same else q_hat)
        _finite_rows(weights)
    return SharedAttentionOutput(updated=Matrix(out), weights=Matrix(weights), ref_mass=float(ref_mass))


def _attend_blocks(
    keys: np.ndarray,
    values: np.ndarray,
    n_ref: int,
    rescale: RescaleParams,
    q_hat: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(updated, weights, ref_mass) of already-normalized queries over
    [reference || self] key and value blocks, whose first ``n_ref`` tokens
    are the reference's; ``q_hat`` None means the queries are the self keys.

    The blocks are one (tokens x dim) matrix each, or stacks of them in
    leading axes, with one query matrix per block and one ``ref_mass`` entry
    per matrix. Each matrix of the blocks and ``q_hat`` must be C-contiguous:
    the einsum's summation order follows the memory layout of its operands.
    When the queries are the self keys, the self logits are symmetric, and
    ``_row_matmul`` may compute half of them. The identity rescale is
    skipped: ``x * 1.0 + 0.0`` only turns -0.0 into +0.0, which the
    max-shifted exp cannot tell apart.
    """
    if q_hat is None:
        logits = _scaled_logits(keys[..., n_ref:, :], keys, n_ref)
    else:
        logits = _scaled_logits(q_hat, keys)
    if rescale.sigma != 1.0 or rescale.mu != 0.0:
        ref_block = logits[..., :n_ref]  # a view: the rescale writes into logits
        ref_block *= rescale.sigma
        ref_block += rescale.mu
    weights = _softmax_rows_array(logits)
    out = _weighted_rows(weights, values)
    return out, weights, weights[..., :n_ref].sum(axis=-1).mean(axis=-1)


def lambda_rescaled_attention(
    self_q: Matrix, style_blocks: Sequence[StyleBlock]
) -> MultiStyleAttentionOutput:
    """Joint attention over several style blocks with weight-proportional
    logit scaling: block i's logits are multiplied by w_i / sum(w).

    Identical blocks then receive attention mass in the order of their
    weights, which is the balancing guarantee this variant exists for.
    """
    if not style_blocks:
        raise EmptySet("need at least one style block")
    total = _weight_sum((b.weight for b in style_blocks), "style-block weights")
    if total == 0.0:
        raise AllZeroWeights("all style-block weights are zero")
    d_v = style_blocks[0].v.cols
    for b in style_blocks:
        if b.k.cols != self_q.cols:
            raise DimensionMismatch(f"block feature dim {b.k.cols} != query dim {self_q.cols}")
        if b.v.cols != d_v:
            raise DimensionMismatch(f"block value dims disagree: {b.v.cols} vs {d_v}")

    lambdas = tuple(b.weight / total for b in style_blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = [lam * _scaled_logits(self_q.data, b.k.data) for lam, b in zip(lambdas, style_blocks)]
        weights = _finite_rows(_softmax_rows_array(np.concatenate(scaled, axis=1)))
    out = _weighted_rows(weights, np.concatenate([b.v.data for b in style_blocks], axis=0))

    masses = []
    start = 0
    for b in style_blocks:
        stop = start + b.k.rows
        masses.append(float(weights[:, start:stop].sum(axis=1).mean()))
        start = stop
    return MultiStyleAttentionOutput(
        updated=Matrix(out), weights=Matrix(weights), block_mass=tuple(masses), lambdas=lambdas
    )


def row_entropy(weights: Matrix) -> list[float]:
    """Shannon entropy (nats) of each attention row; 0 log 0 counts as 0."""
    w = weights.data
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, -w * np.log(w), 0.0)
    return [float(x) for x in terms.sum(axis=1)]
