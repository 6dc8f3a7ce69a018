"""Adaptive instance normalization: re-statistics one signal to match another.

``adain`` works channel-wise on feature maps; ``adain_rows`` applies the
same transform to token matrices, treating each feature dimension (column)
as a channel and the token rows as positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, DimensionMismatch, InputError
from .tensorcore import DEFAULT_EPS_STD, FeatureMap, Matrix, _channel_stats


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


def _adain(g: np.ndarray, s_mean: np.ndarray, s_std: np.ndarray, eps_std: float) -> np.ndarray:
    """AdaIN of a C-contiguous (..., channels, positions) array to given target stats."""
    g_mean, g_std = _channel_stats(g, eps_std)
    return s_std[:, None] * (g - g_mean[..., None]) / g_std[..., None] + s_mean[:, None]


def _column_stats(x: np.ndarray, eps_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean, floored std) of a token matrix."""
    return _channel_stats(np.ascontiguousarray(x.T), eps_std)


def _adain_rows(x: np.ndarray, ref_mean: np.ndarray, ref_std: np.ndarray, eps_std: float) -> np.ndarray:
    """AdaIN of the columns of a token matrix, or of each matrix in a stack
    of them, to given per-column target stats.

    Both transposes are made C-contiguous, so reductions and the matrix
    products downstream see the same memory layout whatever ``x``'s is.
    """
    cols = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    return np.ascontiguousarray(np.swapaxes(_adain(cols, ref_mean, ref_std, eps_std), -1, -2))
