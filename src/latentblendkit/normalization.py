"""Adaptive instance normalization: re-statistics one signal to match another.

``adain`` works channel-wise on feature maps; ``adain_rows`` applies the
same transform to token matrices, treating each feature dimension (column)
as a channel and the token rows as positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, DimensionMismatch, InputError
from .tensorcore import DEFAULT_EPS_STD, FeatureMap, Matrix, _centred_stats, _channel_stats


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
    s_mean, s_std = _channel_stats(s.data, cfg.eps_std)
    return FeatureMap(_adain(g.data, s_mean, s_std, cfg.eps_std))


def adain_rows(x: Matrix, ref: Matrix, cfg: AdainConfig = AdainConfig()) -> Matrix:
    """AdaIN over a token matrix: columns are channels, rows are positions.

    After the transform each column of ``x`` carries the per-dimension mean
    and std of the corresponding column of ``ref``.
    """
    if x.cols != ref.cols:
        raise DimensionMismatch(f"feature dims differ: {x.cols} vs {ref.cols}")
    ref_mean, ref_std = _column_stats(ref.data, cfg.eps_std)
    return Matrix(_adain_rows(x.data, ref_mean, ref_std, cfg.eps_std))


def _adain(
    g: np.ndarray, s_mean: np.ndarray, s_std: np.ndarray, eps_std: float, out: np.ndarray | None = None
) -> np.ndarray:
    """AdaIN of a C-contiguous (..., channels, positions) array to given
    target stats, into ``out`` (of any layout) when given.

    The centred array that the stats leave behind is scaled in place, so
    the only new buffers are the stats' own.
    """
    _, g_std, centred = _centred_stats(g, eps_std)
    centred *= s_std[:, None]
    centred /= g_std
    return np.add(centred, s_mean[:, None], out=centred if out is None else out)


def _column_stats(x: np.ndarray, eps_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean, floored std) of a token matrix."""
    return _channel_stats(np.ascontiguousarray(x.T), eps_std)


def _adain_rows(x: np.ndarray, ref_mean: np.ndarray, ref_std: np.ndarray, eps_std: float) -> np.ndarray:
    """AdaIN of the columns of a token matrix, or of each matrix in a stack
    of them, to given per-column target stats, as a new C-contiguous array.

    The columns are copied to C order before their stats are taken, so the
    reductions see the same memory layout whatever ``x``'s is.
    """
    out = np.empty(x.shape)
    _adain(np.ascontiguousarray(np.swapaxes(x, -1, -2)), ref_mean, ref_std, eps_std, out=np.swapaxes(out, -1, -2))
    return out
