import json
import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentblendkit import (
    BadMagic,
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
from latentblendkit.formats import load_rows, read_json, write_atomic


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

    def test_width_mismatch_names_the_file(self, tmp_path):
        np.save(tmp_path / "a.npy", np.ones((2, 3)))
        np.save(tmp_path / "b.npy", np.ones((2, 4)))
        with pytest.raises(DimensionMismatch, match=r"b\.npy has d_z=4, expected 3"):
            load_rows([tmp_path / "a.npy", tmp_path / "b.npy"])


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
