"""Minimal dense array types plus the handful of kernels everything else uses.

The value types are the validated public boundary: each wraps a read-only
float64 array, so instances are immutable and safe to share across threads.
A value built by its constructor holds a defensive copy. Two kinds skip that
copy, through the private ``_rows`` and ``_wrap``:
- each row of a file read with ``formats.read_vectors(rows=True)`` is a
  read-only view of the one matrix that was checked, as a whole, on load,
  and the views share one ``_Record`` of what is derived from it;
- a vector or matrix the library has just computed or read (a blend, an
  attention output, a file) is checked and frozen in place.
Every value type derives from ``_Frozen``, which keeps its arrays read-only
through pickle and ``copy``.

The private ``_``-prefixed kernels take and return plain arrays; public
functions validate, call a kernel and wrap its result.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InputError, InvalidShape, ZeroVector

DEFAULT_EPS_STD = 1e-5

# The blend methods and their degenerate-angle cutoff live here, beside the
# angle kernel, so that the blend-spec decoder in formats can name them
# without loading blending.
LINEAR = "linear"
SLI = "sli"

#: Below this angle (radians) sin(omega) is numerically unusable and the
#: straight-line interpolation is the correct limit.
DEFAULT_EPS_OMEGA = 1e-7

_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64
_HUGE = float(np.finfo(np.float64).max)


def _frozen_f64(values, ndim: int, what: str) -> np.ndarray:
    """A validated read-only C-order float64 copy of ``values``."""
    return _checked(np.array(values, dtype=np.float64, order="C"), ndim, what)


def _checked(arr: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """``arr`` frozen in place, if it has ``ndim`` dims, none of them 0, and
    only finite entries; an InvalidShape naming ``what`` if not."""
    if arr.ndim != ndim:
        raise InvalidShape(f"{what} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:  # some axis has length 0
        raise InvalidShape(f"{what} must be non-empty, got shape {arr.shape}")
    # One BLAS pass decides almost every array: a finite sum of squares
    # shows every entry finite, and vdot tests no floating-point flags, so
    # nothing warns. A NaN or +-Inf entry makes the sum NaN or Inf, but so
    # do finite entries whose squares overflow (1e200); only then do min
    # and max, which propagate NaN and expose +-Inf, make two more passes.
    if not math.isfinite(np.vdot(arr, arr)) and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise InvalidShape(f"{what} contains NaN or Inf entries")
    arr.setflags(write=False)
    return arr


def _weight_sum(weights, what: str) -> float:
    """The exact sum of finite ``weights``; an InputError naming ``what``
    when it overflows float64 (fsum raises rather than return inf)."""
    try:
        return math.fsum(weights)
    except OverflowError:
        raise InputError(f"{what} must have a finite sum, got inf") from None


def _sum(values) -> float:
    """``values`` added by plain float addition, left to right: the one sum
    of every reported mean and score. Its bits depend on no parallel
    evaluation strategy, nor on the Python version (the builtin ``sum`` of
    floats compensates from 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


class _Frozen:
    """The base of the value types. pickle and ``copy`` keep the dataclass
    fields alone (a row view's ``_rec`` is dropped, so a copied row is a
    vector of its own; see ``_rows``) and restore them without
    ``__post_init__``, so each array, which numpy restores writable, is
    frozen here."""

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


@dataclass(frozen=True)
class LatentVector(_Frozen):
    """A 1-D latent/embedding vector (style vector, image embedding, ...)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f64(self.data, 1, "LatentVector"))

    @property
    def d_z(self) -> int:
        return self.data.shape[0]


def _wrap(cls, data: np.ndarray):
    """A ``cls`` (LatentVector, FeatureMap or Matrix) holding the C-order
    float64 ``data`` itself, not the copy ``__post_init__`` would make.

    ``data`` is an array the library has just computed or read, which
    nothing else holds: it is checked as ``__post_init__`` checks (a blend
    of finite vectors can still overflow) and frozen in place.
    """
    value = object.__new__(cls)
    value.__dict__["data"] = _checked(data, 1 if cls is LatentVector else 2, cls.__name__)
    return value


class _Record:
    """What is derived from one ``_checked`` matrix: the matrix, its
    read-only ``_row_norms`` from the first ``norms()`` on, ``scores``, the
    MS values of the references ``metrics`` last scored it against, keyed by
    each reference vector's bytes, and ``rows``, the row views' arrays when
    ``_rows`` made them (empty otherwise). ``_stack_vectors`` builds it for
    every ``EmbeddingSet`` and ``QueryCatalog``, and the row views of one
    matrix and the sets over all of them share it. It refers to no view or
    set, so deleting them frees it and the matrix at once, with no cycle for
    the garbage collector. It freezes its matrix and pickles as that matrix
    alone: an unpickled or deep-copied set gets a new read-only record over
    its own matrix (a shallow copy shares both), and the pickle holds the
    matrix once.

    The matrix must stay as it was checked: a caller that makes it writable
    again and changes it gets stale norms and scores from sets built before.
    """

    __slots__ = ("matrix", "rows", "_norms", "scores")

    def __init__(self, matrix: np.ndarray):
        matrix.setflags(write=False)
        self.matrix = matrix
        self.rows: tuple[np.ndarray, ...] = ()
        self._norms = None
        self.scores: dict[bytes, float] = {}

    def __reduce__(self):
        return _Record, (self.matrix,)

    def norms(self) -> np.ndarray:
        if self._norms is None:
            norms = _row_norms(self.matrix)
            norms.setflags(write=False)
            self._norms = norms
        return self._norms


def _rows(matrix: np.ndarray) -> list[LatentVector]:
    """A LatentVector view of each row of the ``_checked`` 2-D ``matrix``. The
    views share one ``_Record`` of it, kept as ``_rec`` beside the dataclass
    field (which ``fields``, ``repr`` and ``==`` see alone), so that
    ``_stack_vectors`` returns that record."""
    record = _Record(matrix)
    record.rows = tuple(matrix)
    vectors = []
    for row in record.rows:
        value = object.__new__(LatentVector)
        value.__dict__.update(data=row, _rec=record)
        vectors.append(value)
    return vectors


@dataclass(frozen=True)
class FeatureMap(_Frozen):
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
class Matrix(_Frozen):
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
class ChannelStats(_Frozen):
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
    mean, std, _ = _centred_stats(x, eps_std)
    return mean[..., 0], std[..., 0]


def _centred_stats(x: np.ndarray, eps_std: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, floored std, x - mean) over the last axis of a C-contiguous
    ``x``, the first two with that axis kept at length 1.

    The arithmetic is that of ``x.mean(axis=-1)`` and ``x.std(axis=-1)``
    (population std: divide by N), bit for bit: add.reduce and a division
    by the count, then subtract, square, add.reduce, divide and sqrt. The
    mean is taken once rather than twice, and the centred array is left for
    AdaIN, which needs it again.
    """
    count = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= count
    centred = x - mean
    std = np.add.reduce(np.square(centred), axis=-1, keepdims=True)
    std /= count
    np.sqrt(std, out=std)
    np.maximum(std, eps_std, out=std)
    return mean, std, centred


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction for overflow safety."""
    return _wrap(Matrix, _softmax_rows_array(m.data.copy()))


def _softmax_rows_array(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``logits``, written over ``logits``,
    which it returns; a call allocates no logits-sized buffer.

    A row whose max is not finite (an overflowed logit, +-inf or NaN) comes
    out all NaN, and every other row finite: so one entry per row shows
    whether its max was finite.
    """
    # the ufunc reductions that ndarray.max and .sum call, without those wrappers
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


#: Rows of a symmetric a @ a.T per tile of ``_row_matmul``'s mirrored path.
_TILE = 64

#: Fewest rows of ``a`` from which ``_row_matmul`` computes a @ a.T from its
#: upper tiles; below them, or with one-dim rows, it takes the full einsum.
#: Tiled/full time ratios of the reference and self logits of one map, (rows,
#: dims) as in a sandbox's (positions, channels), measured on 2 vCPUs (median
#: of 7 alternating timings; below 1 the tiles win):
#:
#:     dims   64 rows  96 rows  128 rows  192 rows  256 rows  300 rows
#:     1      1.82     1.78     1.60      1.41      1.42      1.33
#:     2      1.21     1.06     0.98      0.92      0.88      0.87
#:     4      1.18     1.05     0.97      0.89      0.88      0.86
#:     8      1.15     1.00     0.97      0.90      0.87      0.86
#:     16     1.12     0.99     0.94      0.88      0.86      0.85
#:     64     1.05     0.94     0.90      0.86      0.84      0.83
#:
#: One-dim rows take einsum's outer-product loop, which the tiles' extra
#: calls and mirror copies cannot beat.
_MIRROR_MIN_ROWS = 128


def _row_matmul(a: np.ndarray, b_t: np.ndarray, tail: int | None = None) -> np.ndarray:
    """a @ b_t.T via einsum, for one matrix or each matrix of a 3-D stack.

    einsum (without ``optimize``) runs a fixed-order single-threaded loop,
    so results are bit-identical regardless of BLAS thread settings. It is
    not cheap: at 256x512x64 one call took 3.0-3.8 ms, against 0.3-0.6 ms
    for a BLAS ``a @ b_t.T`` (2 vCPUs, numpy 2.4, OpenBLAS 0.3.31). einsum is
    kept for its fixed summation order, which the sandbox goldens pin bit
    for bit.

    With ``tail``, ``a`` is ``b_t[..., tail:, :]``, so the columns from
    ``tail`` on hold the symmetric a @ a.T. From ``_MIRROR_MIN_ROWS`` rows
    of two or more dims only its upper ``_TILE``-row tiles are computed, and
    each is mirrored below the diagonal. That is exact: each entry is an
    einsum dot of two C-contiguous rows, whose summation order does not
    depend on which operand comes first, nor on what else the call computes.
    """
    rows, dims = a.shape[-2:]
    cols = b_t.shape[-2]
    if tail is None or rows < _MIRROR_MIN_ROWS or dims < 2:
        return _per_matrix("id,jd->ij", a, b_t, (rows, cols))
    out = np.empty((*a.shape[:-1], cols))
    for a2, b2, out2 in zip(a.reshape(-1, rows, dims), b_t.reshape(-1, cols, dims), out.reshape(-1, rows, cols)):
        np.einsum("id,jd->ij", a2, b2[:tail], out=out2[:, :tail])
        gram = out2[:, tail:]
        for top in range(0, rows, _TILE):
            bottom = top + _TILE
            np.einsum("id,jd->ij", a2[top:bottom], a2[top:], out=gram[top:bottom, top:])
            gram[bottom:, top:bottom] = gram[top:bottom, bottom:].T
    return out


def _weighted_rows(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """weights @ values with the same fixed-order guarantee as _row_matmul:
    each entry sums its terms over the keys left to right, each term one
    multiply and one add. Rows of the result are query rows.
    """
    return _per_matrix("ij,jv->iv", weights, values, (weights.shape[-2], values.shape[-1]))


def _weighted_channels(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``_weighted_rows`` with its last two axes swapped, bit for bit: a
    C-contiguous (value dims x query rows) matrix per matrix, the sandbox
    maps' own (channels x positions) layout.

    einsum runs the same loop over a C-contiguous copy of the transposed
    weights: for each key, a multiply and an add into every output entry,
    keys left to right, but with the query rows as the inner axis, which is
    longer than the value dims. With one value dim einsum would take its dot
    loop instead, which sums in another order, so that case is the row
    result itself, whose swapped (1 x query rows) view is C-contiguous.
    """
    if values.shape[-1] == 1:
        return _weighted_rows(weights, values).swapaxes(-1, -2)
    w_t = np.ascontiguousarray(weights.swapaxes(-1, -2))
    return _per_matrix("ji,jv->vi", w_t, values, (values.shape[-1], weights.shape[-2]))


def _per_matrix(subscripts: str, a: np.ndarray, b: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A 2-D einsum of ``a`` and ``b``, or of each pair of their matrices
    when both are 3-D stacks, written into one new (maps, *shape) array;
    ``shape`` is that of one matrix's result.

    Only each matrix need be C-contiguous, not the stack: the sandbox's
    queries are the self halves of its [reference || self] key blocks.
    A 3-D einsum sums each matrix in the same order, but through numpy's
    generic iteration loop rather than its specialised 2-D one. For the 18
    maps of a default sandbox sweep, 32 tokens of 8 dims against 64 keys,
    it took 0.66 ms against 0.58 ms for 18 2-D calls on the logits and
    0.65 ms against 0.30 ms on the weighted sum in rows (2 vCPUs, numpy 2.4).
    """
    if a.ndim == 2:
        return np.einsum(subscripts, a, b)
    out = np.empty((a.shape[0], *shape))
    for i in range(a.shape[0]):
        np.einsum(subscripts, a[i], b[i], out=out[i])
    return out


def unit(i: int, d: int) -> LatentVector:
    """Standard basis vector e_i in R^d (convenience for fixtures and CLIs)."""
    if not 0 <= i < d:
        raise InvalidShape(f"basis index {i} outside dimension {d}")
    v = np.zeros(d)
    v[i] = 1.0
    return _wrap(LatentVector, v)


def angle_between(a: LatentVector, b: LatentVector) -> float:
    """Angle in [0, pi] between the directions of two nonzero vectors."""
    return _angle(a.data, b.data)[0]


def _angle(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """(angle in [0, pi], norm of ``a``, norm of ``b``) of two nonzero 1-D
    arrays, through ``_row_norms`` and ``_cosines``."""
    na, nb = _row_norms(a), _row_norms(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle undefined for a zero-norm vector")
    return math.acos(_cosines(a, na, b, nb)), na, nb


def _row_norms(x: np.ndarray) -> np.ndarray | float:
    """The Euclidean norm of each row of a C-order ``x`` (of ``x``, as a
    float, if 1-D).

    A row keeps the bits of np.linalg.norm, the square root of its
    np.vecdot with itself, unless that squared norm is not a finite normal
    float (entries near 1e-160 underflow it, near 1e160 overflow it). Such
    a row is first scaled by a power of two near its max-abs, which is exact,
    and numpy's warning for the unscaled pass is not raised.
    """
    if x.ndim == 1:  # in Python floats: each angle takes two of these and one _cosines
        # np.vdot runs np.vecdot's BLAS dot but checks no floating-point
        # flags, so the fallback mends an overflow without a warning; an
        # errstate would cost this hot path about 2.5 us a call (numpy 2.4)
        square = float(np.vdot(x, x))
        return math.sqrt(square) if _TINY <= square <= _HUGE else float(_scaled_norms(x[np.newaxis])[0])
    with np.errstate(over="ignore", invalid="ignore"):
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
    if rows.ndim == 1:  # in Python floats and np.vdot, as in _row_norms
        dot, scale = float(np.vdot(rows, v)), norms * v_norm
        if not (_TINY <= abs(dot) <= _HUGE and _TINY <= scale <= _HUGE):
            dot, scale = (float(t[0]) for t in _scaled_cosine_terms(rows[np.newaxis], v))
        return min(1.0, max(-1.0, dot / scale))
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore"):  # a norm past the float64 max is inf
        return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), exponents)


def _scaled_cosine_terms(rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dots, norm products) of the rows of a 2-D ``rows`` with ``v``, each
    on rows and ``v`` scaled by ``_scaled``; their ratios are the cosines."""
    scaled, _ = _scaled(rows)
    v_scaled = _scaled(v[np.newaxis])[0][0]
    scales = np.sqrt(np.vecdot(scaled, scaled)) * np.sqrt(np.vecdot(v_scaled, v_scaled))
    return np.vecdot(scaled, v_scaled), scales


def _map_threads(fn: Callable, items: Sequence, stop: Callable[[], object] = lambda: None) -> list:
    """``[fn(x) for x in items]``, in input order, on one thread per CPU this
    process may run on, at most one per item: the package's one pool policy.
    With one thread it runs in the calling thread and makes no pool.

    The first failure in input order is raised, and the calls not yet
    started are cancelled, as ``Executor.map`` does. Before the pool waits
    for the calls still running, ``stop()`` is called, so that they can end
    early.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(items))
    if workers < 2:
        return [fn(x) for x in items]
    # imported here: concurrent.futures pulls in logging, about 12 ms of
    # every CLI start, and most runs never make a pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            return list(pool.map(fn, items))
        except BaseException:
            stop()
            raise


_DATA = operator.attrgetter("data")


def _stack_vectors(vectors: Sequence[LatentVector] | np.ndarray | _Record, label: str, what: str = "vectors") -> _Record:
    """The ``_Record`` of a read-only (k, d) matrix of k >= 1 vectors, one per
    row, or of the ``_frozen_f64`` copy of a (k, d) array (errors name
    ``what``), or the record given. The first vector whose d_z differs from
    vector 0's is named ``label.format(i)``.

    The vectors are stacked into a new matrix, unless they are every row of
    one read-only matrix, in order, as ``_rows`` made them: its record is
    returned.
    """
    if isinstance(vectors, _Record):
        return vectors
    if isinstance(vectors, np.ndarray):
        return _Record(_frozen_f64(vectors, 2, what))
    record = getattr(vectors[0], "_rec", None)
    if (
        record is not None
        and len(vectors) == len(record.rows)
        and not record.matrix.flags.writeable
        # map and operator.is_ loop in C: 0.65 ms over 10,000 rows, where a
        # generator of the same checks took 1.9 ms
        and all(map(operator.is_, map(_DATA, vectors), record.rows))
    ):
        return record
    try:
        return _Record(np.stack([v.data for v in vectors]))
    except ValueError:
        d = vectors[0].d_z
        for i, v in enumerate(vectors):
            if v.d_z != d:
                raise DimensionMismatch(f"{label.format(i)} has d_z={v.d_z}, expected {d}") from None
        raise
