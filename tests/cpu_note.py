"""The CPU a byte-for-byte comparison ran on, for its failure message.

numpy dispatches some float64 kernels (``np.exp`` among them) to SIMD code
picked at run time, and OpenBLAS picks its kernels by CPU and thread count;
each can move the last bit of a golden. So every ``==`` golden appends this
note to its assertion message, and a mismatch on another host names what
that host ran.
"""

import os

from numpy._core import _multiarray_umath

#: The variables that choose numpy's and OpenBLAS's code paths.
_VARS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")


def cpu_note() -> str:
    """numpy's enabled dispatch targets and the values of ``_VARS``."""
    features = _multiarray_umath.__cpu_features__
    targets = [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    settings = ", ".join(f"{var}={os.environ.get(var, '(unset)')}" for var in _VARS)
    return f"numpy dispatch targets: {' '.join(targets) or '(none)'}; {settings}"
