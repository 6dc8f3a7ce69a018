import json
import os
import re
import stat
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from latentblendkit import (
    BadMagic,
    BlendKitError,
    DimensionMismatch,
    FeatureMap,
    InputError,
    InvalidShape,
    IoFailure,
    LatentVector,
    NpyFormatError,
    TruncatedPayload,
    UnsupportedDtype,
    UnsupportedOrder,
    UnsupportedVersion,
    default_prompt_catalog,
    load_array,
    load_blend_spec,
    read_vectors,
    write_vectors,
)
from latentblendkit import formats
from latentblendkit.cli import main
from latentblendkit.formats import load_rows, read_json, write_atomic
from test_decode import _invoke_ok


class TestRoundTrip:
    def test_vector_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(97)
        path = tmp_path / "v.npy"
        data = rng.normal(size=17)
        write_vectors(path, data)
        back = read_vectors(path)
        assert isinstance(back, LatentVector)
        assert back.data.tobytes() == data.tobytes()

    def test_map_roundtrip(self, tmp_path):
        rng = np.random.default_rng(101)
        path = tmp_path / "m.npy"
        data = rng.normal(size=(3, 4))
        write_vectors(path, data)
        back = read_vectors(path)
        assert isinstance(back, FeatureMap)
        np.testing.assert_array_equal(back.data, data)

    def test_rows_flag(self, tmp_path):
        path = tmp_path / "rows.npy"
        write_vectors(path, np.arange(6.0).reshape(2, 3))
        rows = read_vectors(path, rows=True)
        assert [r.data.tolist() for r in rows] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        single = read_vectors(tmp_path / "rows.npy")
        assert isinstance(single, FeatureMap)

    def test_f32_widened_exactly_for_dyadics(self, tmp_path):
        path = tmp_path / "f32.npy"
        np.save(path, np.array([1.5, 2.5], dtype=np.float32))
        back = read_vectors(path)
        assert back.data.dtype == np.float64
        assert back.data.tolist() == [1.5, 2.5]

    def test_numpy_reads_our_files(self, tmp_path):
        # cross-validate the writer against the reference implementation
        rng = np.random.default_rng(103)
        path = tmp_path / "ours.npy"
        data = rng.normal(size=(5, 2))
        write_vectors(path, data)
        np.testing.assert_array_equal(np.load(path), data)

    def test_we_read_numpy_files(self, tmp_path):
        rng = np.random.default_rng(107)
        path = tmp_path / "theirs.npy"
        data = rng.normal(size=9)
        np.save(path, data)
        np.testing.assert_array_equal(load_array(path), data)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 40)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        ),
        f32=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_property(self, tmp_path_factory, shape, f32, seed):
        tmp = tmp_path_factory.mktemp("npy")
        rng = np.random.default_rng(seed)
        data = rng.normal(size=shape)
        path = tmp / "x.npy"
        if f32:
            np.save(path, data.astype(np.float32))
            expected = data.astype(np.float32).astype(np.float64)
        else:
            write_vectors(path, data)
            expected = data
        got = load_array(path)
        assert got.shape == tuple(shape)
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestHeaderLayout:
    def test_preamble_is_64_byte_multiple(self, tmp_path):
        for shape in [(1,), (1000,), (7, 13)]:
            path = tmp_path / "h.npy"
            write_vectors(path, np.zeros(shape))
            raw = path.read_bytes()
            assert raw[:6] == b"\x93NUMPY"
            assert (raw[6], raw[7]) == (1, 0)
            (hlen,) = struct.unpack("<H", raw[8:10])
            assert (10 + hlen) % 64 == 0
            assert raw[10 + hlen - 1:10 + hlen] == b"\n"

    def test_header_dict_contents(self, tmp_path):
        path = tmp_path / "h.npy"
        write_vectors(path, np.zeros((2, 5)))
        header = path.read_bytes()[10:].split(b"\n", 1)[0].decode()
        assert "'descr': '<f8'" in header
        assert "'fortran_order': False" in header
        assert "'shape': (2, 5)" in header


class TestLoadRows:
    def _files(self, tmp_path):
        rng = np.random.default_rng(29)
        files = []
        for i in range(20):
            files.append(tmp_path / f"{i:02d}.npy")
            np.save(files[-1], rng.standard_normal((50, 256)).astype("<f4"))
        files.append(tmp_path / "vector.npy")
        np.save(files[-1], rng.standard_normal(256))
        return files

    def test_rows_in_order_as_float64(self, tmp_path):
        files = self._files(tmp_path)
        rows = load_rows(files)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert np.array_equal(rows, np.concatenate([np.atleast_2d(load_array(f)) for f in files]))

    def test_no_float64_copy_per_file(self, tmp_path):
        # the <f4 bytes (half the result's size) and the result itself; a
        # float64 part per file plus their concatenation would be twice it
        files = self._files(tmp_path)
        tracemalloc.start()
        try:
            rows = load_rows(files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * rows.nbytes

    def test_f8_payload_read_straight_into_the_result(self, tmp_path):
        # the result alone: no buffer of the file's bytes beside it
        np.save(tmp_path / "a.npy", np.random.default_rng(31).standard_normal((200, 256)))
        tracemalloc.start()
        try:
            rows = load_rows([tmp_path / "a.npy", tmp_path / "a.npy"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * rows.nbytes

    @pytest.mark.parametrize("change, error", [(-8, TruncatedPayload), (8, NpyFormatError)])
    def test_size_changed_after_the_header_read(self, tmp_path, monkeypatch, change, error):
        path = tmp_path / "a.npy"
        write_vectors(path, np.arange(6.0))
        payload_end = os.path.getsize(path)
        real = formats._read_header

        def then_resize(p):
            npy = real(p)
            os.truncate(p, os.path.getsize(p) + change)
            return npy

        monkeypatch.setattr(formats, "_read_header", then_resize)
        with pytest.raises(error) as exc:
            load_rows([path])
        assert type(exc.value) is error
        assert exc.value.offset == (payload_end - 8 if change < 0 else payload_end)

    @pytest.mark.parametrize("load", [load_array, lambda p: load_rows([p])], ids=["load_array", "load_rows"])
    def test_f4_signalling_nan_reads_without_a_warning(self, tmp_path, load):
        np.save(tmp_path / "snan.npy", np.frombuffer(struct.pack("<2I", 0x7F800001, 0), dtype="<f4"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load(tmp_path / "snan.npy")
        assert np.isnan(got.ravel()[0]) and got.ravel()[1] == 0.0

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_whole(self, tmp_path):
        # a pipe's bytes take a regular file's path: the same rows, or the
        # same error at the same offset
        write_vectors(tmp_path / "f8.npy", np.arange(6.0).reshape(2, 3))
        np.save(tmp_path / "f4.npy", np.arange(6.0, dtype="<f4").reshape(2, 3))
        whole = (tmp_path / "f8.npy").read_bytes()
        (tmp_path / "long.npy").write_bytes(whole + b"\x00")
        (tmp_path / "short.npy").write_bytes(whole[:-1])

        def read(path):
            try:
                return load_rows([path]).tolist()
            except (NpyFormatError, TruncatedPayload) as exc:
                return type(exc), exc.offset

        rows = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        expected = {"f8": rows, "f4": rows, "long": NpyFormatError, "short": TruncatedPayload}
        for name, want in expected.items():
            path = tmp_path / f"{name}.npy"
            r, w = os.pipe()
            try:
                os.write(w, path.read_bytes())
                os.close(w)
                got = read(f"/dev/fd/{r}")
            finally:
                os.close(r)
            assert got == read(path), name
            assert got == rows if want is rows else got[0] is want, name

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's /dev/zero")
    def test_dev_zero_is_not_npy(self):
        # read whole, /dev/zero would never end: its first ten bytes decide
        with pytest.raises(BadMagic) as exc:
            load_rows(["/dev/zero"])
        assert exc.value.offset == 0
        result = CliRunner().invoke(main, ["attend", "--self", "/dev/zero", "--ref", "/dev/zero"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and "(byte offset 0)" in result.stderr

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_endless_pipe_rejected_at_payload_end(self, tmp_path):
        # a writer that never stops is read one byte past the payload, and
        # rejected where a regular file with trailing bytes is
        write_vectors(tmp_path / "f8.npy", np.arange(6.0).reshape(2, 3))
        whole = (tmp_path / "f8.npy").read_bytes()
        r, w = os.pipe()

        def endless():
            try:
                os.write(w, whole)
                while True:
                    os.write(w, bytes(4096))
            except BrokenPipeError:  # the reader closed its end
                pass
            finally:
                os.close(w)

        writer = threading.Thread(target=endless)
        writer.start()
        try:
            with pytest.raises(NpyFormatError) as exc:
                load_rows([f"/dev/fd/{r}"])
        finally:
            os.close(r)
            writer.join()
        assert type(exc.value) is NpyFormatError
        assert exc.value.offset == len(whole)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_declaring_a_huge_payload_is_truncated(self, tmp_path):
        # read in bounded chunks, a pipe is never given a buffer of the
        # 8 PB its header declares
        header = "{'descr': '<f8', 'fortran_order': False, 'shape': (1000000000000000,), }"
        path = TestReaderErrors._with_header(tmp_path / "huge.npy", header)
        with pytest.raises(TruncatedPayload) as on_disk:
            load_rows([path])
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())
            os.close(w)
            with pytest.raises(TruncatedPayload) as piped:
                load_rows([f"/dev/fd/{r}"])
        finally:
            os.close(r)
        assert piped.value.offset == on_disk.value.offset == os.path.getsize(path)

    def test_width_mismatch_names_the_file(self, tmp_path):
        np.save(tmp_path / "a.npy", np.ones((2, 3)))
        np.save(tmp_path / "b.npy", np.ones((2, 4)))
        with pytest.raises(DimensionMismatch, match=r"b\.npy has d_z=4, expected 3"):
            load_rows([tmp_path / "a.npy", tmp_path / "b.npy"])


#: Writers of the canonical header: numpy itself, at either dtype, and ours.
_WRITERS = {
    "np.save<f8": np.save,
    "np.save<f4": lambda path, data: np.save(path, data.astype("<f4")),
    "write_vectors": write_vectors,
}


class TestHeaderFastPath:
    """The headers numpy and ``write_vectors`` write are read by one regex,
    to the same arrays as ``np.load`` reads."""

    @pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS.keys())
    @pytest.mark.parametrize("shape", [(3,), (1234,), (2, 5), (1, 1), (10, 768), (123, 4)], ids=str)
    def test_canonical_header_matches(self, tmp_path, write, shape):
        path = tmp_path / "x.npy"
        write(path, np.random.default_rng(37).standard_normal(shape))
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<H", raw[8:10])
        match = formats._CANONICAL_HEADER.fullmatch(raw, 10, 10 + header_len)
        assert match is not None
        assert tuple(int(s) for s in match.groups()[1:] if s is not None) == shape
        expected = np.load(path).astype(np.float64)
        assert load_array(path).tobytes() == expected.tobytes()
        assert load_rows([path]).tobytes() == expected.tobytes()
        assert _outcome(load_array, path) == _reference_outcome(load_array, path)

    @pytest.mark.parametrize(
        "shape",
        [
            "(04,)", "(4)", "(4, )", "(2,2)", "(0,)", "(1_0,)", "(2, 3, 4)", "()",
            "(1" + "0" * 18 + ",)", "(" + "1" * 4400 + ",)",
        ],
        ids=["04", "no_comma", "4_space", "2,2", "0", "1_0", "3-D", "0-D", "19_digits", "4400_digits"],
    )
    def test_other_shapes_take_the_parser(self, tmp_path, shape):
        # any shape text the regex does not take is read as before; past
        # 4300 digits int() fails, as the parser does, with an error at 10
        header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape}, }}"
        path = TestReaderErrors._with_header(tmp_path / "h.npy", header)
        raw = path.read_bytes()
        assert formats._CANONICAL_HEADER.fullmatch(raw, 10, len(raw) - 32) is None
        assert _outcome(load_array, path) == _reference_outcome(load_array, path)


def _outcome(load, path):
    """What ``load`` makes of ``path``: the array's shape and bytes, or the
    error's type and offset."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load(path)
    except BlendKitError as exc:
        return type(exc), getattr(exc, "offset", None)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    return got.shape, got.tobytes()


def _reference_outcome(load, path):
    """``_outcome`` with a header regex that matches nothing, so every
    header is read by ``ast.literal_eval`` and checked key by key."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CANONICAL_HEADER", re.compile(rb"(?!)"))
        return _outcome(load, path)


class TestReaderErrors:
    def _valid_bytes(self):
        import io

        buf = io.BytesIO()
        np.save(buf, np.arange(6.0))
        return bytearray(buf.getvalue())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNPY" + b"\x00" * 64)
        with pytest.raises(BadMagic) as exc:
            load_array(path)
        assert exc.value.offset == 0

    def test_unsupported_version(self, tmp_path):
        raw = self._valid_bytes()
        raw[6] = 2
        path = tmp_path / "v2.npy"
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion) as exc:
            load_array(path)
        assert exc.value.offset == 6

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "fortran.npy"
        np.save(path, np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        with pytest.raises(UnsupportedOrder):
            load_array(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "int.npy"
        np.save(path, np.arange(6))
        with pytest.raises(UnsupportedDtype):
            load_array(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        raw = self._valid_bytes()
        path = tmp_path / "short.npy"
        path.write_bytes(bytes(raw[:-8]))
        with pytest.raises(TruncatedPayload) as exc:
            load_array(path)
        assert exc.value.offset == len(raw) - 8

    def test_truncated_header(self, tmp_path):
        raw = self._valid_bytes()
        path = tmp_path / "half_header.npy"
        path.write_bytes(bytes(raw[:32]))
        with pytest.raises(TruncatedPayload):
            load_array(path)

    def test_trailing_bytes_rejected_at_payload_end(self, tmp_path):
        raw = self._valid_bytes()
        path = tmp_path / "long.npy"
        path.write_bytes(bytes(raw) + b"\x00" * 8)
        with pytest.raises(NpyFormatError) as exc:
            load_array(path)
        assert type(exc.value) is NpyFormatError
        header_end, expected = len(raw) - 6 * 8, 6 * 8
        assert exc.value.offset == header_end + expected

    def test_3d_shape_rejected(self, tmp_path):
        path = tmp_path / "cube.npy"
        np.save(path, np.zeros((2, 2, 2)))
        with pytest.raises(InputError):
            load_array(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_array(tmp_path / "ghost.npy")

    #: Header dicts outside the NPY v1.0 subset, each before a full
    #: 32-byte payload: four float64s.
    BAD_HEADERS = {
        "missing_key": "{'descr': '<f8', 'shape': (4,), }",
        "not_a_dict": "[('descr', '<f8'), ('fortran_order', False), ('shape', (4,))]",
        "fourth_key": "{'descr': '<f8', 'fortran_order': False, 'shape': (4,), 'x': 1, }",
        "list_descr": "{'descr': ['<f8'], 'fortran_order': False, 'shape': (4,), }",
        "bool_shape": "{'descr': '<f8', 'fortran_order': False, 'shape': (True, 4), }",
        "nested_sum": "1+" * 20000 + "1",  # RecursionError in the parser
        "nested_negation": "-" * 60000 + "1",  # MemoryError in the parser
    }

    @staticmethod
    def _with_header(path, header: str):
        header = header.encode("latin-1") + b"\n"
        path.write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header + bytes(32))
        return path

    @pytest.mark.parametrize("header", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_header_outside_the_subset(self, tmp_path, header):
        with pytest.raises(NpyFormatError) as exc:
            load_array(self._with_header(tmp_path / "h.npy", header))
        assert exc.value.offset == 10

    def test_header_outside_the_subset_exits_2(self, tmp_path):
        bad = str(self._with_header(tmp_path / "h.npy", self.BAD_HEADERS["list_descr"]))
        result = CliRunner().invoke(main, ["attend", "--self", bad, "--ref", bad])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and "(byte offset 10)" in result.stderr


#: Python literals that a header value can be swapped for.
_LITERALS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from(["<f4", "<f8", ">f8", "<i8", "|u1", "f8"])
    | st.text(st.characters(max_codepoint=255), max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=4,
)


@st.composite
def _npy_bytes(draw) -> bytes:
    """A valid NPY v1.0 file of <f4 or <f8, 1-D or 2-D, maybe with one
    header value swapped for another literal, its header dict written as
    ``repr`` or as numpy writes it, then maybe mutated by replacing,
    deleting and inserting bytes."""
    descr = draw(st.sampled_from(["<f4", "<f8"]))
    shape = draw(st.tuples(st.integers(1, 6)) | st.tuples(st.integers(1, 4), st.integers(1, 4)))
    header = {"descr": descr, "fortran_order": False, "shape": shape}
    size = np.dtype(descr).itemsize * int(np.prod(shape))
    payload = draw(st.binary(min_size=size, max_size=size))
    if draw(st.booleans()):
        header[draw(st.sampled_from(sorted(header)))] = draw(_LITERALS)
    if draw(st.booleans()):  # numpy's own form, which the fast path reads
        text = ("{" + "".join(f"{k!r}: {v!r}, " for k, v in header.items()) + "}").encode("latin-1")
    else:
        text = repr(header).encode("latin-1")
    text += b" " * ((64 - (10 + len(text) + 1) % 64) % 64) + b"\n"
    raw = bytearray(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + payload)
    for op in draw(st.lists(st.sampled_from("rdi"), max_size=3)):
        at = draw(st.integers(0, len(raw)) | st.integers(max(0, len(raw) - size), len(raw)))  # or in the payload
        data = draw(st.binary(min_size=1, max_size=4))
        if op == "r":
            raw[at:at + len(data)] = data
        elif op == "d":
            del raw[at:at + len(data)]
        else:
            raw[at:at] = data
    return bytes(raw)


class TestReaderFuzz:
    """Any bytes read as NPY give a float64 array or a BlendKitError, no
    warning, and the same array or the same error at the same offset as
    when every header is read by ``ast.literal_eval``."""

    @settings(max_examples=150, deadline=None)
    @given(raw=_npy_bytes())
    def test_load_array(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "x.npy"
        path.write_bytes(raw)
        assert _outcome(load_array, path) == _reference_outcome(load_array, path)

    @settings(max_examples=100, deadline=None)
    @given(files=st.lists(_npy_bytes(), min_size=1, max_size=3))
    def test_load_rows(self, tmp_path_factory, files):
        tmp = tmp_path_factory.mktemp("fuzz")
        paths = [tmp / f"{i}.npy" for i in range(len(files))]
        for path, raw in zip(paths, files):
            path.write_bytes(raw)
        got = _outcome(load_rows, paths)
        assert got == _reference_outcome(load_rows, paths)
        assert isinstance(got[0], type) or len(got[0]) == 2


class TestCliFuzz:
    """``attend`` and ``wms`` on any bytes read as NPY exit 0, 2, 3, 4 or 5,
    with ``error:`` on failure, and warn of nothing."""

    @staticmethod
    def _paths(tmp_path_factory, files):
        tmp = tmp_path_factory.mktemp("fuzz_cli")
        for i, raw in enumerate(files):
            (tmp / f"{i}.npy").write_bytes(raw)
        return [str(tmp / f"{i}.npy") for i in range(len(files))]

    @settings(max_examples=60, deadline=None)
    @given(files=st.lists(_npy_bytes(), min_size=2, max_size=3), mode=st.sampled_from(["shared", "auto", "lambda"]))
    def test_attend(self, tmp_path_factory, files, mode):
        own, *refs = self._paths(tmp_path_factory, files)
        if mode == "lambda":
            flags = ["--lambda-weights", ",".join(["0.5"] * len(refs))]
        else:
            refs = refs[:1]
            flags = ["--auto-classify"] if mode == "auto" else []
        _invoke_ok(CliRunner(), ["attend", "--self", own, *(a for r in refs for a in ("--ref", r)), *flags])

    @settings(max_examples=60, deadline=None)
    @given(files=st.lists(_npy_bytes(), min_size=1, max_size=2), grid=st.booleans())
    def test_wms(self, tmp_path_factory, files, grid):
        paths = self._paths(tmp_path_factory, files)
        gen, refs = paths[0], paths[-1]  # one file may serve as both, whose dimensions then agree
        flags = ["--grid"] if grid else ["--weights", "0.5,0.5"]
        _invoke_ok(CliRunner(), ["wms", "--generated", gen, "--refs", refs, *flags])


class TestWriterErrors:
    def test_empty_vector_rejected(self, tmp_path):
        with pytest.raises(InvalidShape):
            write_vectors(tmp_path / "e.npy", np.zeros(0))

    def test_3d_rejected(self, tmp_path):
        with pytest.raises(InvalidShape):
            write_vectors(tmp_path / "c.npy", np.zeros((2, 2, 2)))

    def test_failed_write_leaves_no_output(self, tmp_path):
        # the parent "directory" is a regular file, so opening the temp file
        # fails; nothing may be left behind
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = blocker / "x.npy"
        with pytest.raises(IoFailure):
            write_vectors(target, np.zeros(3))
        assert blocker.is_file()
        assert list(tmp_path.iterdir()) == [blocker]


class TestWriteAtomic:
    def test_failed_replace_removes_temp_file(self, tmp_path):
        # the temp file is written, then renaming it over a directory fails
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IoFailure):
            write_atomic(target, b"data")
        assert list(tmp_path.iterdir()) == [target]

    def test_missing_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            write_atomic(tmp_path / "missing" / "x.csv", b"data")
        assert list(tmp_path.iterdir()) == []

    def test_mode_follows_umask_like_open(self, tmp_path):
        write_atomic(tmp_path / "atomic", b"x")
        (tmp_path / "plain").write_bytes(b"x")
        assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_existing_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "private"
        target.write_bytes(b"old")
        target.chmod(0o600)
        write_atomic(target, b"new")
        assert target.read_bytes() == b"new"
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_symlink_survives_and_its_target_is_replaced(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "links").mkdir()
        real = tmp_path / "real" / "out.csv"
        real.write_bytes(b"old")
        link = tmp_path / "links" / "out.csv"
        link.symlink_to(real)
        write_atomic(link, b"new")
        assert link.is_symlink() and link.resolve() == real
        assert real.read_bytes() == b"new"
        assert list((tmp_path / "real").iterdir()) == [real]
        assert list((tmp_path / "links").iterdir()) == [link]

    def test_dangling_symlink_gets_its_target_created(self, tmp_path):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "made")
        write_atomic(link, b"new")
        assert link.is_symlink()
        assert (tmp_path / "made").read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "made"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_atomic(fifo, b"through ", b"the pipe")
        reader.join(timeout=10)
        assert received == [b"through the pipe"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_concurrent_writers_same_path(self, tmp_path):
        target = tmp_path / "shared.npy"
        arrays = [np.full((64, 32), float(i)) for i in range(4)]
        errors = []

        def writer(arr):
            try:
                for _ in range(100):
                    write_vectors(target, arr)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(a,)) for a in arrays]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert list(tmp_path.iterdir()) == [target]
        back = load_array(target)
        assert any(np.array_equal(back, a) for a in arrays)


class TestBlendSpec:
    def test_load_and_resolve_paths(self, tmp_path):
        write_vectors(tmp_path / "a.npy", np.array([1.0, 0.0]))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "method": "sli",
            "styles": [{"path": "a.npy", "weight": 2.0}],
            "eps_omega": 1e-6,
        }))
        spec = load_blend_spec(spec_path)
        assert spec.method == "sli"
        assert spec.eps_omega == 1e-6
        assert spec.styles[0].path == str(tmp_path / "a.npy")

    def test_validation(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"method": "cubic", "styles": [{"path": "a", "weight": 1}]}))
        with pytest.raises(InputError):
            load_blend_spec(spec_path)
        spec_path.write_text(json.dumps({"method": "sli", "styles": []}))
        with pytest.raises(InputError):
            load_blend_spec(spec_path)
        spec_path.write_text(json.dumps({"method": "sli", "styles": [{"path": "a", "weight": 0.0}]}))
        with pytest.raises(InputError):
            load_blend_spec(spec_path)


class TestReadJson:
    def test_parses_and_checks_top_level_type(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": [1, 2]}')
        assert read_json(path, "thing") == {"a": [1, 2]}
        assert read_json(path, "thing", expect=dict) == {"a": [1, 2]}
        with pytest.raises(InputError, match="thing .* must be a JSON array"):
            read_json(path, "thing", expect=list)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot read thing"):
            read_json(tmp_path / "ghost.json", "thing")

    @pytest.mark.parametrize("content", [b"{oops", b"\xff\xfe\x00"])
    def test_malformed_is_input_error(self, tmp_path, content):
        path = tmp_path / "x.json"
        path.write_bytes(content)
        with pytest.raises(InputError, match="is not valid JSON"):
            read_json(path, "thing")


def test_prompt_catalog_shipped():
    prompts = default_prompt_catalog()
    assert len(prompts) == 9
    assert prompts[0] == "A lighthouse with sea in the background"
