"""Adaptive instance normalization: re-statistics one signal to match another.

``adain`` works channel-wise on feature maps; ``adain_rows`` applies the
same transform to token matrices, treating each feature dimension (column)
as a channel and the token rows as positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, DimensionMismatch, InputError, NumericDomainError
from .tensorcore import DEFAULT_EPS_STD, FeatureMap, Matrix, _centred_stats, _channel_stats, _wrap


@dataclass(frozen=True)
class AdainConfig:
    """Variance floor for the normalizing division (constant channels)."""

    eps_std: float = DEFAULT_EPS_STD

    def __post_init__(self):
        if not self.eps_std > 0:
            raise InputError(f"eps_std must be > 0, got {self.eps_std}")


def adain(g: FeatureMap, s: FeatureMap, cfg: AdainConfig = AdainConfig()) -> FeatureMap:
    """Shift/scale every channel of ``g`` so its statistics match ``s``'s.

    out[c][n] = std_s[c] * (g[c][n] - mean_g[c]) / std_g[c] + mean_s[c]

    Spatial sizes may differ; the output keeps ``g``'s. Constant channels
    divide by the configured floor instead of zero.
    """
    if g.channels != s.channels:
        raise ChannelMismatch(f"channel counts differ: {g.channels} vs {s.channels}")
    return FeatureMap(_adain_rows(g.data.T, s.data.T, cfg.eps_std).T)


def adain_rows(x: Matrix, ref: Matrix, cfg: AdainConfig = AdainConfig()) -> Matrix:
    """AdaIN over a token matrix: columns are channels, rows are positions.

    After the transform each column of ``x`` carries the per-dimension mean
    and std of the corresponding column of ``ref``.
    """
    if x.cols != ref.cols:
        raise DimensionMismatch(f"feature dims differ: {x.cols} vs {ref.cols}")
    return _wrap(Matrix, _adain_rows(x.data, ref.data, cfg.eps_std))


def _adain(g: np.ndarray, s_mean: np.ndarray, s_std: np.ndarray, eps_std: float, out: np.ndarray) -> np.ndarray:
    """AdaIN of a C-contiguous (..., channels, positions) array to given
    target stats, written into ``out`` (of any layout); returns the floored
    std of ``g`` that it divided by.

    The centred array that the stats leave behind is scaled in place, so
    the only new buffers are the stats' own.
    """
    _, g_std, centred = _centred_stats(g, eps_std)
    centred *= s_std[:, None]
    centred /= g_std
    np.add(centred, s_mean[:, None], out=out)
    return g_std


def _adain_rows(x: np.ndarray, ref: np.ndarray, eps_std: float) -> np.ndarray:
    """AdaIN of the columns of the token matrix ``x`` to the column stats
    of ``ref``, as a new C-contiguous array.

    The columns are copied to C order before their stats are taken, so the
    reductions see the same memory layout whatever the inputs' is; for the
    transposed maps of ``adain`` that copies nothing.

    This is the public functions' boundary. numpy's overflow warnings are
    off, and a std of either side that is not finite raises
    NumericDomainError: squares of entries near 1e160 overflow, and dividing
    by an infinite std would collapse every position onto the target mean.
    The sandbox calls ``_adain`` itself: its maps are convex blends of
    bounded maps, and a check there would cost every step.
    """
    out = np.empty(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        ref_mean, ref_std = _channel_stats(np.ascontiguousarray(ref.T), eps_std)
        x_std = _adain(np.ascontiguousarray(x.T), ref_mean, ref_std, eps_std, out.T)
    if not (np.isfinite(ref_std).all() and np.isfinite(x_std).all()):
        raise NumericDomainError("AdaIN statistics overflowed float64: a channel's std is not finite")
    return out
