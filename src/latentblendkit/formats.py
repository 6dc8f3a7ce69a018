"""File formats: NPY vectors/maps, JSON files and their schema decoder, blend
specs, and the prompt catalog.

Only the NPY v1.0 subset is supported: little-endian f4/f8, C order, 1-D or
2-D. The reader reports the byte offset of whatever it rejects. It reads the
header dict that numpy and the writer emit with one regular expression and
parses any other with ``ast.literal_eval``, to the same result; a pipe or
device it reads only up to the declared payload and one byte more. The writer
emits <f8 v1.0 with the header padded to a 64-byte multiple and goes
through a uniquely named temp file, so neither a failed write nor two
concurrent writers leave a plausible-looking partial output behind.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import stat
import struct
import typing
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BadMagic,
    BlendKitError,
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
from .tensorcore import (
    DEFAULT_EPS_OMEGA, LINEAR, SLI, FeatureMap, LatentVector, Matrix, _check_eps_omega, _checked, _rows, _wrap
)

_MAGIC = b"\x93NUMPY"
_HEADER_START = 10  # magic (6) + version (2) + header length (2)
_SUPPORTED_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def load_array(path: str | Path) -> np.ndarray:
    """Read an NPY v1.0 file into a fresh float64 C-order array."""
    npy = _read_header(path)
    out = np.empty(npy.shape, dtype=np.float64)
    _read_payload(npy, out)
    return out


def load_rows(paths: Sequence[str | Path]) -> np.ndarray:
    """The rows of NPY files, in order, as one fresh (n, d) float64 C-order
    array; a 1-D file is one row.

    Every file's header is checked before the result is allocated; then
    each ``<f8`` payload is read straight into its slice of the result and
    each ``<f4`` payload is cast into it, so no copy of a regular file is
    held besides the result. A pipe or device is read with its header, as
    its size is known only then, and its bytes are held until the call
    returns: ``tracemalloc`` read a peak of 2.0x the result for a 2,000 x
    256 ``<f8`` file through a pipe, against 1.0x for the regular file.
    """
    files = [_read_header(p) for p in paths]
    if not files:
        raise InputError("no NPY files to read rows from")
    d = files[0].shape[-1]
    for f in files:
        if f.shape[-1] != d:
            raise DimensionMismatch(f"{f.path} has d_z={f.shape[-1]}, expected {d} (from {paths[0]})")
    out = np.empty((sum(math.prod(f.shape[:-1]) for f in files), d), dtype=np.float64)
    row = 0
    for f in files:
        n = math.prod(f.shape[:-1])  # 1 for a 1-D file
        _read_payload(f, out[row : row + n])
        row += n
    return out


class _Npy(NamedTuple):
    """An NPY file whose header and size ``_read_header`` has checked."""

    path: str | Path
    dtype: np.dtype
    shape: tuple[int, ...]
    start: int  # the payload's byte offset
    raw: bytes | None  # a pipe or device's bytes, up to the payload's end; None for a regular file


#: The header dict that numpy and ``_build_header`` write for a supported
#: array, padded with spaces to its newline, with sizes of at most 18
#: digits and no leading zero: ``_read_header`` reads it without
#: ``ast.literal_eval``, whose ~20 us a file it would spend to the same
#: result. (The bound keeps ``int`` clear of ``sys.int_max_str_digits``.)
_CANONICAL_HEADER = re.compile(
    rb"\{'descr': '(<f[48])', 'fortran_order': False, 'shape': \(([1-9][0-9]{0,17}),(?: ([1-9][0-9]{0,17}))?\), \} *\n"
)
#: The most bytes one read of a pipe or device asks for, so that no buffer
#: is sized by the payload a header declares, which may be petabytes.
_CHUNK = 1 << 24


def _read_header(path: str | Path) -> _Npy:
    """Validate the NPY v1.0 header of ``path`` and the file's size.

    A regular file's payload is left on disk for ``_read_payload``. Any
    other file (a pipe, a device) is read after its header only up to the
    declared payload and one byte more, as its size is known only then, so
    a source that never ends is rejected as one that is too long.
    """
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            raw = fh.read(_HEADER_START)
            if len(raw) == _HEADER_START and raw[:6] == _MAGIC:
                raw += fh.read(struct.unpack("<H", raw[8:10])[0])
            dtype, shape, start = _parse_header(path, raw)
            if stat.S_ISREG(st.st_mode):
                npy = _Npy(path, dtype, shape, start, None)
                size = st.st_size
            else:
                chunks = [raw]
                left = math.prod(shape) * dtype.itemsize + 1
                while left > 0 and (chunk := fh.read(min(left, _CHUNK))):
                    chunks.append(chunk)
                    left -= len(chunk)
                npy = _Npy(path, dtype, shape, start, b"".join(chunks))
                size = len(npy.raw)
    except BlendKitError:  # the header's own errors: an InputError is a ValueError
        raise
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in the path
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    _check_size(npy, size)
    return npy


def _parse_header(path: str | Path, raw: bytes) -> tuple[np.dtype, tuple[int, ...], int]:
    """The dtype, shape and payload offset that the preamble ``raw`` (the
    fixed header and as much of the header dict as the file holds)
    declares, or the NpyFormatError at the first byte outside the subset."""
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

    match = _CANONICAL_HEADER.fullmatch(raw, _HEADER_START, header_end)
    if match is not None:
        descr, *sizes = match.groups()
        return _SUPPORTED_DTYPES[descr.decode()], tuple(int(s) for s in sizes if s is not None), header_end

    try:
        header = ast.literal_eval(raw[_HEADER_START:header_end].decode("latin-1"))
        if header.keys() != {"descr", "fortran_order", "shape"}:
            raise ValueError("its keys must be exactly descr, fortran_order and shape")
        descr = header["descr"]
        fortran_order = header["fortran_order"]
        shape = header["shape"]
    except (ValueError, SyntaxError, AttributeError, TypeError) as exc:
        raise NpyFormatError(f"{path}: malformed header dict: {exc}", offset=_HEADER_START) from exc
    # a literal nested deeper than the parser can follow fits in the header:
    # '1+' * 20000 raises RecursionError, '-' * 60000 + '1' MemoryError
    except (RecursionError, MemoryError) as exc:
        raise NpyFormatError(f"{path}: header nested too deeply", offset=_HEADER_START) from exc

    if not isinstance(descr, str) or descr not in _SUPPORTED_DTYPES:
        raise UnsupportedDtype(f"{path}: dtype {descr!r} not in (<f4, <f8)", offset=_HEADER_START)
    if fortran_order is not False:
        raise UnsupportedOrder(f"{path}: fortran_order must be False", offset=_HEADER_START)
    if (
        not isinstance(shape, tuple)
        or not 1 <= len(shape) <= 2
        or not all(type(s) is int and s >= 1 for s in shape)  # a bool is an int, but no size
    ):
        raise NpyFormatError(
            f"{path}: shape {shape!r} outside the 1-D/2-D, size >= 1 subset", offset=_HEADER_START
        )
    return _SUPPORTED_DTYPES[descr], shape, header_end


def _check_size(npy: _Npy, size: int) -> None:
    """Raise unless a file of ``size`` bytes ends where ``npy``'s payload
    does. A pipe or device is read one byte past its payload at most, so
    how many bytes follow it is not known."""
    expected = math.prod(npy.shape) * npy.dtype.itemsize
    if size - npy.start < expected:
        raise TruncatedPayload(f"{npy.path}: payload has {size - npy.start} of {expected} bytes", offset=size)
    if size - npy.start > expected:
        extra = "bytes" if npy.raw is not None else f"{size - npy.start - expected} bytes"
        raise NpyFormatError(
            f"{npy.path}: {extra} after the {expected}-byte payload",
            offset=npy.start + expected,
        )


def _read_payload(npy: _Npy, out: np.ndarray) -> None:
    """Fill the C-contiguous float64 ``out`` with ``npy``'s payload.

    A regular file is opened again, a pipe's bytes are read from memory:
    ``<f8`` bytes straight into ``out``, ``<f4`` bytes into a buffer that
    is cast into it. A file whose size changed since its header was read
    raises TruncatedPayload or NpyFormatError, as ``_read_header`` would.
    """
    buf = out if npy.dtype == out.dtype else np.empty(out.shape, dtype=npy.dtype)
    try:
        with open(npy.path, "rb") if npy.raw is None else io.BytesIO(npy.raw) as fh:
            fh.seek(npy.start)
            got = fh.readinto(memoryview(buf).cast("B"))
            size = npy.start + got if got < buf.nbytes else fh.seek(0, os.SEEK_END)
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot read {npy.path}: {exc}") from exc
    _check_size(npy, size)
    if buf is not out:
        with np.errstate(invalid="ignore"):  # a signalling NaN <f4 casts to a quiet NaN, not a warning
            out[...] = buf


def read_vectors(path: str | Path, rows: bool = False):
    """Load a vector file.

    1-D data yields a LatentVector; 2-D data yields a FeatureMap with file
    rows as channels. With ``rows=True`` the result is always a list of
    LatentVectors, one per row (a 1-D file is one row). The file is then
    read as one matrix, checked once, as a whole, and frozen: each of its
    rows is a read-only view of that matrix, not a copy, and
    ``EmbeddingSet``, ``WeightedStyleSet`` and ``QueryCatalog`` take the
    matrix itself from the full list of them, in order. The views share the
    matrix's ``_Record``, which every ``EmbeddingSet`` and ``QueryCatalog``
    over all of them keeps, with its row norms and MS values; so the matrix
    must not be made writable and changed: sets built afterwards, even once
    it is read-only again, would get the old values.
    """
    if rows:
        return _rows(_checked(load_rows([path]), 2, "LatentVector"))
    arr = load_array(path)
    return _wrap(LatentVector if arr.ndim == 1 else FeatureMap, arr)


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
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {tuple(shape)!r}, }}"
    # pad with spaces + newline so the total preamble is a multiple of 64
    pad = (64 - (_HEADER_START + len(header) + 1) % 64) % 64
    header = header + " " * pad + "\n"
    return _MAGIC + bytes((1, 0)) + struct.pack("<H", len(header)) + header.encode("latin-1")


def read_json(path: str | Path, what: str, expect: type | None = None):
    """Parse the JSON file ``path``, described as ``what`` in error messages.

    An unreadable file raises IoFailure; a file that is not UTF-8, or whose
    text ``_parse_json`` rejects, raises InputError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError, or a NUL in the path
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc
    return _parse_json(text, f"{what} {path}", expect)


def _parse_json(text: str, what: str, expect: type | None = None):
    """The JSON value of ``text``, described as ``what`` in error messages.

    Text that is not JSON, JSON nested deeper than the parser can follow,
    or a top-level value that is not an ``expect`` (``dict`` or ``list``)
    when one is given, raises InputError.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{what} is nested too deeply") from exc
    if expect is not None and not isinstance(raw, expect):
        raise InputError(f"{what} must be a JSON {'object' if expect is dict else 'array'}")
    return raw


def decode(cls, raw, where: str, path: str = ""):
    """The ``cls`` read from ``raw``, a parsed JSON value found at JSON path
    ``path`` of the input ``where`` names.

    ``cls`` is a frozen dataclass, read through its fields' annotations, or
    a field type: float, int, str, bool, ``tuple[T, ...]``, a fixed-length
    tuple such as ``tuple[int, int]``, a dataclass, or ``LatentVector``, a
    non-empty array of floats (an empty one raises InvalidShape). Types are
    strict: a bool is never a number, a string never a number, a float never
    an int (an int is a float), floats are finite and strings valid Unicode.
    Unknown keys are rejected, save a dataclass's ``RETIRED_KEYS``, which
    are ignored. A missing key takes the field's default: in a nested
    object, the value in the enclosing field's default instance. Value
    rules are each dataclass's ``__post_init__``. Every failure is an
    InputError that reads ``{where}: {path}: {problem}``.
    """
    if cls is LatentVector:
        try:
            return _wrap(LatentVector, np.array(decode(tuple[float, ...], raw, where, path)))
        except InvalidShape as exc:  # an empty array
            raise _error(where, path, str(exc), InvalidShape) from None
    if dataclasses.is_dataclass(cls):
        return _decode_object(cls, raw, where, path)
    if typing.get_origin(cls) is tuple:
        types = typing.get_args(cls)
        if not isinstance(raw, list):
            raise _error(where, path, f"expected array, got {_show(raw)}")
        if types[-1] is Ellipsis:
            types = types[:1] * len(raw)
        elif len(raw) != len(types):
            raise _error(where, path, f"expected {len(types)} items, got {len(raw)}")
        return tuple(decode(t, item, where, f"{path}[{i}]") for i, (t, item) in enumerate(zip(types, raw)))
    if not isinstance(raw, _JSON_TYPES[cls]) or isinstance(raw, bool) is not (cls is bool):
        raise _error(where, path, f"expected {cls.__name__}, got {_show(raw)}")
    if cls is float:
        try:
            raw = float(raw)  # a JSON int
        except OverflowError:
            raw = math.inf
        if not math.isfinite(raw):
            raise _error(where, path, f"{path.rpartition('.')[2]} must be finite, got {_show(raw)}")
    if cls is str and _SURROGATE.search(raw):
        raise _error(where, path, "string holds a lone surrogate")
    return raw


#: The JSON values that each scalar type accepts; a bool is never a number.
_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str}
#: ``_parse_json`` joins escaped surrogate pairs, so any surrogate left is lone.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _decode_object(cls, raw, where: str, path: str, default=None):
    """``decode`` of a dataclass; a ``default`` instance supplies missing keys."""
    if not isinstance(raw, dict):
        raise _error(where, path, f"expected object, got {_show(raw)}")
    fields = _fields(cls)
    for key in raw:
        if key not in fields and key not in getattr(cls, "RETIRED_KEYS", ()):
            raise _error(where, _join(path, key), "unknown key")
    values = {}
    for name, (tp, field_default) in fields.items():
        if default is not None:
            field_default = getattr(default, name)
        if name not in raw:
            if field_default is dataclasses.MISSING:
                raise _error(where, _join(path, name), "missing")
            values[name] = field_default
        elif dataclasses.is_dataclass(field_default):
            values[name] = _decode_object(tp, raw[name], where, _join(path, name), field_default)
        else:
            values[name] = decode(tp, raw[name], where, _join(path, name))
    try:
        return cls(**values)
    except InputError as exc:
        raise _error(where, path, str(exc)) from exc


@cache  # get_type_hints takes ~40 us a class, longer than decoding a small object
def _fields(cls) -> dict[str, tuple]:
    """Each init field of the dataclass ``cls``: name -> (type, default or MISSING)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls) if f.init}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _error(where: str, path: str, problem: str, kind: type[InputError] = InputError) -> InputError:
    return kind(f"{where}: {path}: {problem}" if path else f"{where}: {problem}")


def _show(value) -> str:
    """A JSON value for an error message: a container by its kind, a scalar as JSON cut to 40 characters."""
    if isinstance(value, (dict, list)):
        return "object" if isinstance(value, dict) else "array"
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


@dataclass(frozen=True)
class BlendStyleRef:
    path: str
    weight: float

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise InputError(f"weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True)
class BlendSpec:
    """A blend request: method, style files with weights, degenerate-angle cutoff."""

    method: str
    styles: tuple[BlendStyleRef, ...]
    eps_omega: float = DEFAULT_EPS_OMEGA

    def __post_init__(self):
        if self.method not in (LINEAR, SLI):
            raise InputError(f"method must be 'linear' or 'sli', got {self.method!r}")
        if not self.styles:
            raise InputError("styles must be a non-empty array")
        try:
            total = math.fsum(s.weight for s in self.styles)  # as the blends sum them
        except OverflowError:
            total = math.inf
        if not 0.0 < total < math.inf:
            raise InputError(f"style weights must have a positive, finite sum, got {total}")
        _check_eps_omega(self.eps_omega)


def load_blend_spec(path: str | Path) -> BlendSpec:
    """Parse and validate a blend-spec JSON file.

    Style paths are resolved relative to the blend-spec file's directory.
    """
    path = Path(path)
    spec = decode(BlendSpec, read_json(path, "blend spec"), f"blend spec {path}")
    styles = tuple(dataclasses.replace(s, path=str(path.parent / s.path)) for s in spec.styles)
    return dataclasses.replace(spec, styles=styles)


def default_prompt_catalog() -> list[str]:
    """The shipped image-prompt list."""
    return load_prompt_catalog(resources.files("latentblendkit") / "data" / "prompts.json")


def load_prompt_catalog(path: str | Path) -> list[str]:
    prompts = list(decode(tuple[str, ...], read_json(path, "prompt catalog"), f"prompt catalog {path}"))
    if not prompts:
        raise InputError(f"prompt catalog {path} is empty")
    return prompts
