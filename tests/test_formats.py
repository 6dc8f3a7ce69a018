import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentblendkit import (
    BadMagic,
    FeatureMap,
    InputError,
    InvalidShape,
    IoFailure,
    LatentVector,
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
from latentblendkit.formats import read_json


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
