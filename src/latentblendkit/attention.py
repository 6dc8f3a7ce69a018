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

These two, plain ``attention`` and the sandbox's step are one operation:
an affine transform of some key blocks' logits before one joint softmax,
which ``_attend_blocks`` computes for each of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllZeroWeights, DimensionMismatch, EmptySet, InputError, NumericDomainError
from .normalization import AdainConfig, _adain_rows
from .tensorcore import (
    Matrix, _row_matmul, _row_norms, _softmax_rows_array, _weight_sum, _weighted_channels, _weighted_rows, _wrap,
)


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
    return _attend(inp.k.data, inp.v.data, (), inp.q.data)


def classify_style(ref_k: Matrix, cfg: StyleClassifierConfig = StyleClassifierConfig()) -> StyleClass:
    """Famous iff the mean key-row norm exceeds the threshold.

    The mean over token rows stands in for "the" key norm: it is
    permutation-invariant and scales with the activations.
    """
    mean_norm = float(_row_norms(ref_k.data).mean())
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

    q_hat = _adain_rows(self_q.data, ref_q.data, adain_cfg.eps_std)
    # the same inputs make the same bits, and queries that are the keys let
    # the kernel compute half the self logits
    same = self_k is self_q and ref_k is ref_q
    k_hat = q_hat if same else _adain_rows(self_k.data, ref_k.data, adain_cfg.eps_std)
    keys, values = np.concatenate((ref_k.data, k_hat)), np.concatenate((ref_v.data, self_v.data))
    out, weights = _attend(keys, values, ((ref_k.rows, rescale.sigma, rescale.mu),), None if same else q_hat)
    return SharedAttentionOutput(updated=out, weights=weights, ref_mass=float(_mass(weights.data, 0, ref_k.rows)))


def _attend(
    keys: np.ndarray, values: np.ndarray, blocks: Sequence[tuple[int, float, float]], q_hat: np.ndarray | None
) -> tuple[Matrix, Matrix]:
    """``_attend_blocks`` for the public functions, as (updated, weights)
    matrices, with numpy's overflow and invalid warnings off, or a
    NumericDomainError if the max logit of a row was not finite.

    The softmax makes such a row all NaN, so the first column shows it,
    without a pass over every entry. A max that is finite while other
    logits overflow to -inf is harmless: their weights are exactly 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, weights = _attend_blocks(keys, values, blocks, q_hat)
    if not np.isfinite(weights[..., 0]).all():
        raise NumericDomainError("attention logits overflowed float64: a row's largest logit is not finite")
    return _wrap(Matrix, out), _wrap(Matrix, weights)


def _attend_blocks(
    keys: np.ndarray, values: np.ndarray, blocks: Sequence[tuple[int, float, float]], q_hat: np.ndarray | None = None,
    channels_first: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(updated, weights) of already-normalized queries over key and value
    blocks, with an affine transform of some blocks' logits before the one
    joint softmax.

    ``blocks`` lists ``(tokens, scale, shift)`` for each leading key block,
    in order: its logits become ``logit * scale + shift``. The keys after
    them, the self block, keep their logits; ``q_hat`` None means the
    queries are those self keys. A scale of 1 and a shift of 0 are skipped:
    ``x * 1.0`` is ``x``, and ``x + 0.0`` only turns -0.0 into +0.0, which
    the max-shifted exp cannot tell apart.

    The keys and values are one (tokens x dim) matrix each, or stacks of
    them in leading axes, with one query matrix per matrix. Each matrix of
    the blocks and ``q_hat`` must be C-contiguous: the einsum's summation
    order follows the memory layout of its operands. A key's logits do not
    depend on the other keys in the call, so joining blocks into one call
    changes no bit. When the queries are the self keys, the self logits are
    symmetric, and ``_row_matmul`` may compute half of them.

    ``updated`` has a row per query, or with ``channels_first`` (values of
    two or more dims) a column per query, in the same bits: see
    ``_weighted_channels``.
    """
    lead = sum(tokens for tokens, _, _ in blocks)
    if q_hat is None:
        logits = _row_matmul(keys[..., lead:, :], keys, lead)
    else:
        logits = _row_matmul(q_hat, keys)
    logits /= math.sqrt(keys.shape[-1])
    start = 0
    for tokens, scale, shift in blocks:
        block = logits[..., start : start + tokens]  # a view: the transform writes into logits
        if scale != 1.0:
            block *= scale
        if shift != 0.0:
            block += shift
        start += tokens
    weights = _softmax_rows_array(logits)
    return (_weighted_channels if channels_first else _weighted_rows)(weights, values), weights


def _mass(weights: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The attention mass on keys ``start:stop``, averaged over query rows:
    one entry per matrix of a stack, a scalar for one matrix.

    The ufunc calls of ``.sum(axis=-1).mean(axis=-1)``, whose mean is
    add.reduce and a true division by the count, without the wrappers."""
    return np.add.reduce(np.add.reduce(weights[..., start:stop], axis=-1), axis=-1) / weights.shape[-2]


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
    out, weights = _attend(
        np.concatenate([b.k.data for b in style_blocks]),
        np.concatenate([b.v.data for b in style_blocks]),
        [(b.k.rows, lam, 0.0) for b, lam in zip(style_blocks, lambdas)],
        self_q.data,
    )
    bounds = np.cumsum([0] + [b.k.rows for b in style_blocks]).tolist()
    masses = tuple(float(_mass(weights.data, start, stop)) for start, stop in zip(bounds, bounds[1:]))
    return MultiStyleAttentionOutput(updated=out, weights=weights, block_mass=masses, lambdas=lambdas)


def row_entropy(weights: Matrix) -> list[float]:
    """Shannon entropy (nats) of each attention row; 0 log 0 counts as 0."""
    w = weights.data
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, -w * np.log(w), 0.0)
    return [float(x) for x in terms.sum(axis=1)]
