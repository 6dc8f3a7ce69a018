"""Minimal dense array types plus the handful of kernels everything else uses.

The value types are the validated public boundary: each wraps a float64
defensive copy with the writeable flag cleared, so instances are immutable
and safe to share across threads. The private ``_``-prefixed kernels take
and return plain arrays; public functions validate, call a kernel and wrap
its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidShape, ZeroVector

DEFAULT_EPS_STD = 1e-5


def _frozen_f64(values, ndim: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise InvalidShape(f"{what} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0 or min(arr.shape) < 1:
        raise InvalidShape(f"{what} must be non-empty, got shape {arr.shape}")
    # min and max propagate NaN and expose +-Inf without the array-sized
    # mask that isfinite(arr).all() would allocate
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise InvalidShape(f"{what} contains NaN or Inf entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LatentVector:
    """A 1-D latent/embedding vector (style vector, image embedding, ...)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f64(self.data, 1, "LatentVector"))

    @property
    def d_z(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class FeatureMap:
    """A (channels x positions) activation map."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f64(self.data, 2, "FeatureMap"))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def positions(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Matrix:
    """A dense (rows x cols) matrix; houses token stacks such as Q, K, V."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f64(self.data, 2, "Matrix"))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel population mean and (floored) standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_f64(self.mean, 1, "ChannelStats.mean"))
        object.__setattr__(self, "std", _frozen_f64(self.std, 1, "ChannelStats.std"))
        if self.mean.shape != self.std.shape:
            raise DimensionMismatch(
                f"mean/std length mismatch: {self.mean.shape[0]} vs {self.std.shape[0]}"
            )


def dot(a: LatentVector, b: LatentVector) -> float:
    """Inner product a . b; symmetric, requires equal dimension."""
    if a.d_z != b.d_z:
        raise DimensionMismatch(f"dot: dimensions differ ({a.d_z} vs {b.d_z})")
    return float(np.dot(a.data, b.data))


def norm(a: LatentVector) -> float:
    """Euclidean norm sqrt(a . a)."""
    return float(np.linalg.norm(a.data))


def channel_stats(f: FeatureMap, eps_std: float = DEFAULT_EPS_STD) -> ChannelStats:
    """Population mean/std per channel, std floored at ``eps_std``.

    The floor keeps downstream divisions well-defined on constant channels.
    """
    if not eps_std > 0:
        raise InvalidShape(f"eps_std must be > 0, got {eps_std}")
    mean, std = _channel_stats(f.data, eps_std)
    return ChannelStats(mean=mean, std=std)


def _channel_stats(x: np.ndarray, eps_std: float) -> tuple[np.ndarray, np.ndarray]:
    """(mean, floored std) of each row of ``x``, over its last axis.

    Pass a C-contiguous ``x``: numpy's pairwise summation order, and so the
    last bits of the result, depend on the memory layout. Each row of a
    stack then reduces exactly as it would on its own.
    """
    return x.mean(axis=-1), np.maximum(x.std(axis=-1), eps_std)  # population std: divide by N


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction for overflow safety."""
    return Matrix(_softmax_rows_array(m.data))


def _softmax_rows_array(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``logits`` (left untouched) into one new array.

    The shift, exp and division all run in place on that array, so a call
    allocates one logits-sized buffer rather than three; concurrent calls
    from the sandbox's threads then stop churning allocator pages.
    """
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _row_matmul(a: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """a @ b_t.T via einsum, for one matrix or each matrix of a 3-D stack.

    einsum (without ``optimize``) runs a fixed-order single-threaded loop,
    so results are bit-identical regardless of BLAS thread settings. It is
    not cheap: at 256x512x64 one call took 3.0-3.8 ms, against 0.3-0.6 ms
    for a BLAS ``a @ b_t.T`` (2 vCPUs, numpy 2.4, OpenBLAS 0.3.31). einsum is
    kept for its fixed summation order, which the sandbox goldens pin bit
    for bit.
    """
    return _per_matrix("id,jd->ij", a, b_t, b_t.shape[-2])


def _weighted_rows(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """weights @ values with the same fixed-order guarantee as _row_matmul."""
    return _per_matrix("ij,jv->iv", weights, values, values.shape[-1])


def _per_matrix(subscripts: str, a: np.ndarray, b: np.ndarray, cols: int) -> np.ndarray:
    """A 2-D einsum of ``a`` and ``b``, or of each pair of their matrices
    when both are 3-D stacks, written into one (maps, rows, cols) array.

    A 3-D einsum sums each matrix in the same order, but through numpy's
    generic iteration loop rather than its specialised 2-D one. For the 18
    maps of a default sandbox sweep, 32 tokens of 8 dims against 64 keys,
    it took 0.66 ms against 0.58 ms for 18 2-D calls on the logits and
    0.65 ms against 0.30 ms on the weighted sum (2 vCPUs, numpy 2.4).
    """
    if a.ndim == 2:
        return np.einsum(subscripts, a, b)
    out = np.empty((*a.shape[:-1], cols))
    for i in range(a.shape[0]):
        np.einsum(subscripts, a[i], b[i], out=out[i])
    return out




def unit(i: int, d: int) -> LatentVector:
    """Standard basis vector e_i in R^d (convenience for fixtures and CLIs)."""
    if not 0 <= i < d:
        raise InvalidShape(f"basis index {i} outside dimension {d}")
    v = np.zeros(d)
    v[i] = 1.0
    return LatentVector(v)


def angle_between(a: LatentVector, b: LatentVector) -> float:
    """Angle in [0, pi] between the directions of two nonzero vectors."""
    na = norm(a)
    nb = norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle undefined for a zero-norm vector")
    c = dot(a, b) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))
