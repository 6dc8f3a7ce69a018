"""One-vector-at-a-time references for the package's norm and cosine
kernels: np.dot and np.linalg.norm on 1-D arrays, and, for a vector or pair
whose squared norm, dot or norm product is not a finite normal float, the
same arithmetic on the vectors scaled by the power of two just above their
max-abs, as ``tensorcore._row_norms`` and ``tensorcore._cosines`` document."""

import math
import sys

import numpy as np


def on_scale(x: float) -> bool:
    """Whether ``x`` is a finite normal float."""
    return sys.float_info.min <= abs(x) <= sys.float_info.max


def _scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    e = math.frexp(float(np.max(np.abs(x))))[1]
    return np.ldexp(x, -e), e


def norm(x: np.ndarray) -> float:
    if on_scale(float(np.dot(x, x))):
        return float(np.linalg.norm(x))
    scaled, e = _scaled(x)
    return math.ldexp(float(np.linalg.norm(scaled)), e)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """The cosine of two nonzero vectors, clamped to [-1, 1]."""
    dot, scale = float(np.dot(a, b)), norm(a) * norm(b)
    if not (on_scale(dot) and on_scale(scale)):
        a, b = _scaled(a)[0], _scaled(b)[0]
        dot, scale = float(np.dot(a, b)), float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    return min(1.0, max(-1.0, dot / scale))
