"""Weighted blending of latent style vectors.

Two schemes: a plain convex combination (``linear_blend``) and spherical
linear interpolation (``sli_blend``), which walks the great-circle arc so
unit inputs stay on the unit hypersphere. Multi-style spherical blending is
a pairwise fold over the styles sorted by descending weight; the fold is
not associative, so the sort is what makes results reproducible.

A ``WeightedStyleSet`` keeps its styles as one read-only (k, d) float64
matrix, row i being source index i. The blends work on its rows as plain
arrays, take every angle from ``tensorcore``'s cosine kernel and build one
``LatentVector``, the result, around the array they computed rather than a
copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllZeroWeights, AntipodalVectors, DimensionMismatch, InputError
from .tensorcore import (
    DEFAULT_EPS_OMEGA, LINEAR, SLI, _HUGE, LatentVector, _angle, _check_eps_omega, _Frozen, _stack_vectors, _weight_sum,
    _wrap, angle_between,
)

#: Below this bound on its entries, ``c1 * z1 + c2 * z2`` cannot overflow:
#: the margin under the float64 max covers the rounding of the products,
#: the sum and the norms the bound is taken from.
_SAFE_SUM = 0.5 * _HUGE


@dataclass(frozen=True)
class WeightedStyleSet(_Frozen):
    """Reference styles with non-negative weights, all sharing d_z.

    ``vectors`` may be given as a (k, d) array or, as ``of`` does, as a
    sequence of LatentVectors; it is stored as one read-only (k, d) float64
    matrix whose row i is style i. ``weights`` holds one float per row.
    """

    vectors: np.ndarray
    weights: tuple[float, ...]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        if len(self.vectors) != len(weights):
            raise InputError(f"{len(self.vectors)} vectors but {len(weights)} weights")
        if not weights:
            raise InputError("WeightedStyleSet needs at least one style")
        vectors = _stack_vectors(self.vectors, "style {}", "WeightedStyleSet.vectors").matrix
        for i, w in enumerate(weights):
            if not math.isfinite(w) or w < 0:
                raise InputError(f"style {i} has invalid weight {w}")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def of(cls, vectors: Sequence[LatentVector], weights: Sequence[float]) -> "WeightedStyleSet":
        return cls(vectors, weights)

    @property
    def d_z(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class BlendResult:
    """Blended vector plus the bookkeeping needed to reproduce it.

    ``order_used`` lists source indices in the order they entered the blend;
    ``omega_trace`` records the angle of every pairwise spherical step and
    is empty for the linear method.
    """

    vector: LatentVector
    method: str
    order_used: tuple[int, ...]
    omega_trace: tuple[float, ...]


def normalize_weights(s: WeightedStyleSet) -> WeightedStyleSet:
    """Rescale weights to sum to 1; vectors and order are untouched."""
    return WeightedStyleSet(s.vectors, _normalized(s.weights))


def _normalized(weights: tuple[float, ...]) -> tuple[float, ...]:
    total = _weight_sum(weights, "style weights")
    if total == 0.0:
        raise AllZeroWeights("cannot normalize: all weights are zero")
    return tuple(w / total for w in weights)


def linear_blend(s: WeightedStyleSet) -> BlendResult:
    """Convex combination sum(w_i * z_i) in input order.

    Weights are normalized internally, so callers may pass raw weights.
    Note the result of distinct unit inputs falls inside the sphere (the
    chord undershoots the arc).
    """
    weights = _normalized(s.weights)
    out = np.zeros(s.d_z)
    for w, row in zip(weights, s.vectors):
        out += w * row
    return BlendResult(
        vector=_wrap(LatentVector, out),
        method=LINEAR,
        order_used=tuple(range(len(weights))),
        omega_trace=(),
    )


def slerp_pair(
    z1: LatentVector,
    z2: LatentVector,
    t: float,
    eps_omega: float = DEFAULT_EPS_OMEGA,
) -> tuple[LatentVector, float]:
    """Spherical interpolation between two vectors at parameter t in [0, 1].

    The angle omega comes from the normalized directions; the sine
    coefficients are applied to the raw vectors, so magnitudes interpolate
    sinusoidally alongside direction. Returns ``(vector, omega)``.

    Below ``eps_omega`` the vectors are treated as parallel and the
    straight-line interpolation is returned; within ``eps_omega`` of pi the
    geodesic is ambiguous and ``AntipodalVectors`` is raised rather than
    silently picking a direction.
    """
    if not 0.0 <= t <= 1.0:
        raise InputError(f"interpolation parameter t={t} outside [0, 1]")
    _check_eps_omega(eps_omega)
    if z1.d_z != z2.d_z:
        raise DimensionMismatch(f"slerp: dimensions differ ({z1.d_z} vs {z2.d_z})")
    vector, omega = _slerp(z1.data, z2.data, t, eps_omega)
    if t in (0.0, 1.0):  # the endpoint itself, as _slerp returns it
        return (z1 if t == 0.0 else z2), omega
    return _wrap(LatentVector, vector), omega


def _slerp(z1: np.ndarray, z2: np.ndarray, t: float, eps_omega: float) -> tuple[np.ndarray, float]:
    """``slerp_pair`` of two equal-length 1-D arrays, for t in [0, 1]."""
    omega, n1, n2 = _angle(z1, z2)  # raises ZeroVector on zero-norm input
    if math.pi - omega < eps_omega:
        raise AntipodalVectors(
            f"vectors are antipodal within eps_omega={eps_omega} (omega={omega})"
        )
    if t == 0.0:
        return z1, omega
    if t == 1.0:
        return z2, omega
    if omega < eps_omega:
        c1, c2 = 1.0 - t, t
    else:
        sin_omega = math.sin(omega)
        c1 = math.sin((1.0 - t) * omega) / sin_omega
        c2 = math.sin(t * omega) / sin_omega
    # |c1| * |z1| + |c2| * |z2| bounds every entry of the result. Only past
    # it can the sum overflow, and the caller's check then raises on the
    # inf or NaN it makes; an errstate on every call would cost about 2.5 us.
    if abs(c1) * n1 + abs(c2) * n2 < _SAFE_SUM:
        return c1 * z1 + c2 * z2, omega
    with np.errstate(over="ignore", invalid="ignore"):
        return c1 * z1 + c2 * z2, omega


def sli_blend(s: WeightedStyleSet, eps_omega: float = DEFAULT_EPS_OMEGA) -> BlendResult:
    """Multi-style spherical blend.

    Styles are folded pairwise in descending-weight order (ties broken by
    ascending source index, so repeated calls and permuted inputs give
    bit-identical results). Step i+1 interpolates the cumulative blend
    toward style i+1 with t = w_{i+1} / sum(w_1..w_{i+1}); for two styles
    this reduces exactly to ``slerp_pair`` with t = w2 / (w1 + w2).
    """
    _check_eps_omega(eps_omega)
    weights = _normalized(s.weights)
    order = tuple(sorted(range(len(weights)), key=lambda i: (-weights[i], i)))
    vector, trace = _sli_fold(s.vectors, weights, order, eps_omega)
    return BlendResult(vector=_wrap(LatentVector, vector), method=SLI, order_used=order, omega_trace=trace)


def _sli_fold(
    vectors: np.ndarray, weights: Sequence[float], order: Sequence[int], eps_omega: float
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Pairwise fold of the rows of ``vectors``, with their ``weights``, in
    the row order ``order``. The order matters: the fold is not
    associative, which is why sli_blend canonicalizes it first."""
    cumulative = vectors[order[0]]
    running_weight = weights[order[0]]
    trace: list[float] = []
    for i in order[1:]:
        running_weight += weights[i]
        t = weights[i] / running_weight
        try:
            cumulative, omega = _slerp(cumulative, vectors[i], t, eps_omega)
        except AntipodalVectors as exc:
            raise AntipodalVectors(f"incorporating style {i}: {exc}") from exc
        trace.append(omega)
    return cumulative, tuple(trace)


def chord_and_arc(z1: LatentVector, z2: LatentVector) -> tuple[float, float]:
    """(straight-line, great-circle) distance between the two directions.

    For angular separation omega these are 2*sin(omega/2) and omega; the
    chord strictly undershoots the arc for omega > 0, which is exactly the
    separation a linear blend loses.
    """
    omega = angle_between(z1, z2)
    return 2.0 * math.sin(omega / 2.0), omega
