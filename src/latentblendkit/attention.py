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

from .errors import AllZeroWeights, DimensionMismatch, EmptySet, InputError
from .normalization import AdainConfig, _adain_rows, _column_stats
from .tensorcore import Matrix, _row_matmul, _softmax_rows_array, _weighted_rows


class StyleClass(enum.Enum):
    NORMAL = "normal"
    FAMOUS = "famous"


@dataclass(frozen=True)
class RescaleParams:
    """Affine transform of the reference logit block: logit * sigma + mu."""

    mu: float
    sigma: float

    def __post_init__(self):
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
    """Joint-softmax result over several style blocks with per-block mass."""

    updated: Matrix
    weights: Matrix
    block_mass: tuple[float, ...]


def attention(inp: AttentionInputs) -> tuple[Matrix, Matrix]:
    """Plain scaled dot-product attention; returns (output, weights)."""
    weights = _softmax_rows_array(_scaled_logits(inp.q.data, inp.k.data))
    out = _weighted_rows(weights, inp.v.data)
    return Matrix(out), Matrix(weights)


def _scaled_logits(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    return _row_matmul(q, k) / math.sqrt(q.shape[1])


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
    k_hat = _adain_rows(self_k.data, *_column_stats(ref_k.data, eps_std), eps_std)
    out, weights, ref_mass = _shared_attention(q_hat, k_hat, self_v.data, ref_k.data, ref_v.data, rescale)
    return SharedAttentionOutput(updated=Matrix(out), weights=Matrix(weights), ref_mass=ref_mass)


def _shared_attention(
    q_hat: np.ndarray,
    k_hat: np.ndarray,
    self_v: np.ndarray,
    ref_k: np.ndarray,
    ref_v: np.ndarray,
    rescale: RescaleParams,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(updated, weights, ref_mass) of already-normalized queries and keys.

    ``q_hat`` should be C-contiguous: the einsum's summation order follows
    the memory layout of its operands.
    """
    n_ref = ref_k.shape[0]
    logits = _scaled_logits(q_hat, np.concatenate([ref_k, k_hat], axis=0))
    logits[:, :n_ref] = logits[:, :n_ref] * rescale.sigma + rescale.mu
    weights = _softmax_rows_array(logits)
    out = _weighted_rows(weights, np.concatenate([ref_v, self_v], axis=0))
    return out, weights, float(weights[:, :n_ref].sum(axis=1).mean())


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
    total = math.fsum(b.weight for b in style_blocks)
    if total == 0.0:
        raise AllZeroWeights("all style-block weights are zero")
    d_v = style_blocks[0].v.cols
    for b in style_blocks:
        if b.k.cols != self_q.cols:
            raise DimensionMismatch(f"block feature dim {b.k.cols} != query dim {self_q.cols}")
        if b.v.cols != d_v:
            raise DimensionMismatch(f"block value dims disagree: {b.v.cols} vs {d_v}")

    scaled = [
        (b.weight / total) * _scaled_logits(self_q.data, b.k.data) for b in style_blocks
    ]
    logits = np.concatenate(scaled, axis=1)
    weights = _softmax_rows_array(logits)
    out = _weighted_rows(weights, np.concatenate([b.v.data for b in style_blocks], axis=0))

    masses = []
    start = 0
    for b in style_blocks:
        stop = start + b.k.rows
        masses.append(float(weights[:, start:stop].sum(axis=1).mean()))
        start = stop
    return MultiStyleAttentionOutput(
        updated=Matrix(out), weights=Matrix(weights), block_mass=tuple(masses)
    )


def row_entropy(weights: Matrix) -> list[float]:
    """Shannon entropy (nats) of each attention row; 0 log 0 counts as 0."""
    w = weights.data
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, -w * np.log(w), 0.0)
    return [float(x) for x in terms.sum(axis=1)]
