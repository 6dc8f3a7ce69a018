"""Minimal dense array types plus the handful of kernels everything else uses.

The value types are the validated public boundary: each wraps a float64
defensive copy with the writeable flag cleared, so instances are immutable
and safe to share across threads. The private ``_``-prefixed kernels take
and return plain arrays; public functions validate, call a kernel and wrap
its result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidShape, ZeroVector

DEFAULT_EPS_STD = 1e-5

_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64
_HUGE = float(np.finfo(np.float64).max)


def _frozen_f64(values, ndim: int, what: str, copy: bool = True) -> np.ndarray:
    """A validated read-only C-order float64 copy of ``values``; with
    ``copy=False``, ``values`` itself if it is one (frozen in place)."""
    arr = np.array(values, dtype=np.float64, order="C", copy=True if copy else None)
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
    """Euclidean norm sqrt(a . a), through ``_row_norms``."""
    return float(_row_norms(a.data))


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
    return _angle(a.data, b.data)


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in [0, pi] between two nonzero 1-D arrays, through ``_cosines``."""
    na, nb = _row_norms(a), _row_norms(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle undefined for a zero-norm vector")
    return math.acos(_cosines(a, na, b, nb))


def _row_norms(x: np.ndarray) -> np.ndarray | float:
    """The Euclidean norm of each row of a C-order ``x`` (of ``x``, as a
    float, if 1-D).

    A row keeps the bits of np.linalg.norm, the square root of its
    np.vecdot with itself, unless that squared norm is not a finite normal
    float (entries near 1e-160 underflow it, near 1e160 overflow it). Such
    a row is first scaled by a power of two near its max-abs, which is exact.
    """
    if x.ndim == 1:  # in Python floats: each angle takes two of these and one _cosines
        square = float(np.vecdot(x, x))
        return math.sqrt(square) if _TINY <= square <= _HUGE else float(_scaled_norms(x[np.newaxis])[0])
    squares = np.vecdot(x, x)  # >= 0, and never NaN for finite x
    norms = np.sqrt(squares)
    off = ~_normal(squares)
    if off.any():
        norms[off] = _scaled_norms(x[off])
    return norms


def _cosines(rows: np.ndarray, norms: np.ndarray, v: np.ndarray, v_norm: float) -> np.ndarray:
    """The package's one cosine: of each row of a C-order (n, d) ``rows``
    (or of one 1-D row, as a scalar), whose ``_row_norms`` are ``norms``,
    to the 1-D ``v`` of norm ``v_norm``, clamped to [-1, 1]. Zero norms are
    the caller's to reject.

    Each entry is bit-identical to np.dot(row, v) / (np.linalg.norm(row) *
    np.linalg.norm(v)): np.vecdot runs the same BLAS dot for every row, and
    a vector's np.linalg.norm is the square root of that dot. ``rows @ v``
    and ``norm(rows, axis=1)`` sum in other orders. The exception is a row
    whose dot with ``v``, or whose norm times ``v_norm``, is not a finite
    normal float: its cosine is taken after scaling it and ``v`` by powers
    of two, as ``_row_norms`` does, so it neither overflows (a vector of
    1e200s has cosine 1 with itself) nor underflows.
    """
    if rows.shape[-1] != v.shape[0]:
        raise DimensionMismatch(f"dot: dimensions differ ({rows.shape[-1]} vs {v.shape[0]})")
    if rows.ndim == 1:  # in Python floats, as in _row_norms
        dot, scale = float(np.vecdot(rows, v)), norms * v_norm
        if not (_TINY <= abs(dot) <= _HUGE and _TINY <= scale <= _HUGE):
            dot, scale = (float(t[0]) for t in _scaled_cosine_terms(rows[np.newaxis], v))
        return min(1.0, max(-1.0, dot / scale))
    dots = np.vecdot(rows, v)
    scales = norms * v_norm
    off = ~(_normal(np.abs(dots)) & _normal(scales))
    if off.any():
        dots[off], scales[off] = _scaled_cosine_terms(rows[off], v)
    # fmin/fmax rather than clip: a NaN cosine (of a zero row) clamps to -1,
    # as min(1.0, max(-1.0, c)) does
    return np.fmin(1.0, np.fmax(-1.0, dots / scales))


def _normal(x: np.ndarray) -> np.ndarray:
    """Where the non-negative or NaN ``x`` is a finite normal float."""
    return (_TINY <= x) & (x <= _HUGE)


def _scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows * 2**-e, e) for each row of a 2-D ``rows``, with 2**e the
    power of two just above the row's max-abs. Entries then fall in
    (-1, 1), so neither a row's squared norm nor its dot with another
    scaled row can overflow. Scaling by a power of two is exact, but for
    entries under 2**-1022 times the max-abs, which lose bits as subnormals."""
    _, exponents = np.frexp(np.abs(rows).max(axis=-1))
    return np.ldexp(rows, -exponents[:, np.newaxis]), exponents


def _scaled_norms(rows: np.ndarray) -> np.ndarray:
    """``_row_norms`` of a 2-D ``rows``, each taken on the row scaled by ``_scaled``."""
    scaled, exponents = _scaled(rows)
    return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), exponents)


def _scaled_cosine_terms(rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dots, norm products) of the rows of a 2-D ``rows`` with ``v``, each
    on rows and ``v`` scaled by ``_scaled``; their ratios are the cosines."""
    scaled, _ = _scaled(rows)
    v_scaled = _scaled(v[np.newaxis])[0][0]
    scales = np.sqrt(np.vecdot(scaled, scaled)) * np.sqrt(np.vecdot(v_scaled, v_scaled))
    return np.vecdot(scaled, v_scaled), scales


def _cpu_threads(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: one per CPU this process may
    run on, at most ``tasks``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def _stack_vectors(vectors: Sequence[LatentVector], label: str) -> np.ndarray:
    """A new read-only (k, d) matrix of k >= 1 vectors, one per row. The
    first whose d_z differs from vector 0's is named ``label.format(i)``."""
    d = vectors[0].d_z
    for i, v in enumerate(vectors):
        if v.d_z != d:
            raise DimensionMismatch(f"{label.format(i)} has d_z={v.d_z}, expected {d}")
    matrix = np.stack([v.data for v in vectors])
    matrix.setflags(write=False)
    return matrix
