"""File formats: NPY vectors/maps, JSON files, blend specs, and the prompt catalog.

Only the NPY v1.0 subset is supported: little-endian f4/f8, C order, 1-D or
2-D. The reader reports the byte offset of whatever it rejects; the writer
emits <f8 v1.0 with the header padded to a 64-byte multiple and goes
through a uniquely named temp file, so neither a failed write nor two
concurrent writers leave a plausible-looking partial output behind.
"""

from __future__ import annotations

import ast
import contextlib
import json
import math
import os
import stat
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .blending import DEFAULT_EPS_OMEGA, LINEAR, SLI
from .errors import (
    BadMagic,
    DimensionMismatch,
    InputError,
    InvalidShape,
    IoFailure,
    NpyFormatError,
    TruncatedPayload,
    UnsupportedDtype,
    UnsupportedOrder,
    UnsupportedVersion,
)
from .tensorcore import FeatureMap, LatentVector, Matrix

_MAGIC = b"\x93NUMPY"
_HEADER_START = 10  # magic (6) + version (2) + header length (2)
_SUPPORTED_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def load_array(path: str | Path) -> np.ndarray:
    """Read an NPY v1.0 file into a fresh float64 C-order array."""
    return _load_npy(path).astype(np.float64)  # also copies out of the read-only buffer


def load_rows(paths: Sequence[str | Path]) -> np.ndarray:
    """The rows of NPY files, in order, as one fresh (n, d) float64 C-order
    array; a 1-D file is one row.

    Each file's data is cast straight into its slice of the result, so no
    float64 copy of a file is made besides the result.
    """
    parts = [np.atleast_2d(_load_npy(p)) for p in paths]
    if not parts:
        raise InputError("no NPY files to read rows from")
    d = parts[0].shape[1]
    for p, part in zip(paths, parts):
        if part.shape[1] != d:
            raise DimensionMismatch(f"{p} has d_z={part.shape[1]}, expected {d} (from {paths[0]})")
    return np.concatenate(parts, dtype=np.float64)


def _load_npy(path: str | Path) -> np.ndarray:
    """Validate an NPY v1.0 file; its data as a read-only view of the
    file's bytes, in the file's dtype and shape."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if raw[:6] != _MAGIC:
        raise BadMagic(f"{path}: not an NPY file", offset=0)
    if len(raw) < _HEADER_START:
        raise TruncatedPayload(f"{path}: file ends inside the fixed header", offset=len(raw))
    if (raw[6], raw[7]) != (1, 0):
        raise UnsupportedVersion(f"{path}: NPY version {raw[6]}.{raw[7]}, only 1.0 supported", offset=6)
    (header_len,) = struct.unpack("<H", raw[8:10])
    header_end = _HEADER_START + header_len
    if len(raw) < header_end:
        raise TruncatedPayload(f"{path}: file ends inside the header dict", offset=len(raw))

    try:
        header = ast.literal_eval(raw[_HEADER_START:header_end].decode("latin-1"))
        descr = header["descr"]
        fortran_order = header["fortran_order"]
        shape = header["shape"]
    except (ValueError, SyntaxError, KeyError, TypeError) as exc:
        raise NpyFormatError(f"{path}: malformed header dict: {exc}", offset=_HEADER_START) from exc

    if descr not in _SUPPORTED_DTYPES:
        raise UnsupportedDtype(f"{path}: dtype {descr!r} not in (<f4, <f8)", offset=_HEADER_START)
    if fortran_order is not False:
        raise UnsupportedOrder(f"{path}: fortran_order must be False", offset=_HEADER_START)
    if (
        not isinstance(shape, tuple)
        or not 1 <= len(shape) <= 2
        or not all(isinstance(s, int) and s >= 1 for s in shape)
    ):
        raise NpyFormatError(
            f"{path}: shape {shape!r} outside the 1-D/2-D, size >= 1 subset", offset=_HEADER_START
        )

    dtype = _SUPPORTED_DTYPES[descr]
    count = math.prod(shape)
    expected = count * dtype.itemsize
    if len(raw) - header_end < expected:
        raise TruncatedPayload(
            f"{path}: payload has {len(raw) - header_end} of {expected} bytes", offset=len(raw)
        )
    if len(raw) - header_end > expected:
        raise NpyFormatError(
            f"{path}: {len(raw) - header_end - expected} bytes after the {expected}-byte payload",
            offset=header_end + expected,
        )
    return np.frombuffer(raw, dtype=dtype, count=count, offset=header_end).reshape(shape)


def read_vectors(path: str | Path, rows: bool = False):
    """Load a vector file.

    1-D data yields a LatentVector; 2-D data yields a FeatureMap with file
    rows as channels. With ``rows=True`` the result is always a list of
    LatentVectors (2-D rows become individual vectors).
    """
    arr = load_array(path)
    if arr.ndim == 1:
        vec = LatentVector(arr)
        return [vec] if rows else vec
    if rows:
        return [LatentVector(r) for r in arr]
    return FeatureMap(arr)


def write_vectors(path: str | Path, data) -> None:
    """Write a vector/map/array as NPY v1.0, <f8, C order.

    Accepts LatentVector, FeatureMap, Matrix, or a 1-D/2-D array-like.
    The write is atomic (see ``write_atomic``).
    """
    if isinstance(data, (LatentVector, FeatureMap, Matrix)):
        arr = data.data
    else:
        arr = np.asarray(data, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size == 0 or min(arr.shape) < 1:
        raise InvalidShape(f"cannot write shape {arr.shape}: need 1-D/2-D with size >= 1")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    write_atomic(path, _build_header(arr.shape), arr.tobytes(order="C"))


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` so that readers see the old file or the
    whole new one, never a part.

    The bytes go to a new temp file under a unique name beside the file
    ``path`` resolves to, so concurrent writers never share one; it is
    fsynced and then renamed over that file, which keeps a symlinked
    ``path`` a link and an existing file's permission bits. A ``path`` that
    exists but is not a regular file (a device such as /dev/null or
    /dev/stdout, a FIFO) has no file to replace and is written in place.
    On any failure the temp file is removed; an OSError is raised as
    IoFailure.
    """
    try:
        st = os.stat(path)
    except OSError:
        st = None  # nothing there yet; a bad parent fails at the temp file
    target = Path(os.path.realpath(path))
    tmp = None
    try:
        if st is not None and not (stat.S_ISREG(st.st_mode) and _is_file(target, st)):
            with open(path, "wb") as fh:
                fh.writelines(chunks)
            return
        fd, tmp = _create_temp(target)
        with os.fdopen(fd, "wb") as fh:
            if st is not None:
                os.fchmod(fh.fileno(), st.st_mode & 0o777)
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def _is_file(path: Path, st: os.stat_result) -> bool:
    """Whether ``path`` names the file ``st`` describes (a /proc/self/fd
    link to a deleted file resolves to a name that does not)."""
    try:
        return os.path.samestat(os.stat(path), st)
    except OSError:
        return False


def _create_temp(path: Path) -> tuple[int, Path]:
    """A new file beside ``path`` under a random name, opened for writing.

    Like tempfile.mkstemp, but created with mode 0o666 less the umask, as
    ``open(path, "wb")`` would create ``path`` itself, rather than 0o600.
    """
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def _build_header(shape: tuple[int, ...]) -> bytes:
    if len(shape) == 1:
        shape_repr = f"({shape[0]},)"
    else:
        shape_repr = f"({shape[0]}, {shape[1]})"
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape_repr}, }}"
    # pad with spaces + newline so the total preamble is a multiple of 64
    pad = (64 - (_HEADER_START + len(header) + 1) % 64) % 64
    header = header + " " * pad + "\n"
    return _MAGIC + bytes((1, 0)) + struct.pack("<H", len(header)) + header.encode("latin-1")


def read_json(path: str | Path, what: str, expect: type | None = None):
    """Parse the JSON file ``path``, described as ``what`` in error messages.

    An unreadable file raises IoFailure; invalid JSON, or a top-level value
    that is not an ``expect`` (``dict`` or ``list``) when one is given,
    raises InputError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc
    if expect is not None and not isinstance(raw, expect):
        raise InputError(f"{what} {path} must be a JSON {'object' if expect is dict else 'array'}")
    return raw


@dataclass(frozen=True)
class BlendStyleRef:
    path: str
    weight: float


@dataclass(frozen=True)
class BlendSpec:
    """A blend request: method, style files with weights, degenerate-angle cutoff."""

    method: str
    styles: tuple[BlendStyleRef, ...]
    eps_omega: float = DEFAULT_EPS_OMEGA


def load_blend_spec(path: str | Path) -> BlendSpec:
    """Parse and validate a blend-spec JSON file.

    Style paths are resolved relative to the blend-spec file's directory.
    """
    path = Path(path)
    raw = read_json(path, "blend spec", expect=dict)
    method = raw.get("method")
    if method not in (LINEAR, SLI):
        raise InputError(f"blend spec {path}: method must be 'linear' or 'sli', got {method!r}")
    styles_raw = raw.get("styles")
    if not isinstance(styles_raw, list) or not styles_raw:
        raise InputError(f"blend spec {path}: 'styles' must be a non-empty array")
    styles = []
    total = 0.0
    for i, item in enumerate(styles_raw):
        if not isinstance(item, dict) or "path" not in item or "weight" not in item:
            raise InputError(f"blend spec {path}: style {i} needs 'path' and 'weight'")
        weight = float(item["weight"])
        if not math.isfinite(weight) or weight < 0:
            raise InputError(f"blend spec {path}: style {i} has invalid weight {item['weight']}")
        total += weight
        styles.append(BlendStyleRef(path=str(path.parent / item["path"]), weight=weight))
    if total <= 0.0:
        raise InputError(f"blend spec {path}: style weights must have a positive sum")
    eps_omega = float(raw.get("eps_omega", DEFAULT_EPS_OMEGA))
    if not eps_omega > 0:
        raise InputError(f"blend spec {path}: eps_omega must be > 0")
    return BlendSpec(method=method, styles=tuple(styles), eps_omega=eps_omega)


def default_prompt_catalog() -> list[str]:
    """The shipped image-prompt list."""
    raw = resources.files("latentblendkit").joinpath("data/prompts.json").read_text("utf-8")
    return load_prompt_catalog_obj(json.loads(raw), source="data/prompts.json")


def load_prompt_catalog(path: str | Path) -> list[str]:
    return load_prompt_catalog_obj(read_json(path, "prompt catalog"), source=str(path))


def load_prompt_catalog_obj(raw, source: str = "<memory>") -> list[str]:
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw) or not raw:
        raise InputError(f"prompt catalog {source} must be a non-empty JSON array of strings")
    return list(raw)
