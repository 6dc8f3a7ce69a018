import copy
import dataclasses
import math
import os
import pickle
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentblendkit import (
    ChannelStats,
    DdimScheduleConfig,
    DimensionMismatch,
    EmbeddingSet,
    FeatureMap,
    InvalidShape,
    LatentVector,
    Matrix,
    QueryCatalog,
    QueryEntry,
    ReferenceStyle,
    build_schedule,
    angle_between,
    channel_stats,
    cosine_similarity,
    dot,
    norm,
    softmax_rows,
    sli_blend,
    unit,
    WeightedStyleSet,
    read_vectors,
)
from latentblendkit import tensorcore
from latentblendkit.tensorcore import _row_norms


class TestTypes:
    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_copies_stay_read_only(self, how):
        values = [
            LatentVector([1.0, 2.0]),
            FeatureMap(np.ones((2, 3))),
            Matrix(np.ones((3, 2))),
            ChannelStats(mean=[0.0, 1.0], std=[1.0, 2.0]),
            build_schedule(DdimScheduleConfig(steps=4)),
            WeightedStyleSet.of([LatentVector([1.0, 0.0]), LatentVector([0.0, 1.0])], [1.0, 2.0]),
            EmbeddingSet(generated=np.ones((2, 2)), references=(ReferenceStyle("a", LatentVector([1.0, 0.0]), 1.0),)),
            QueryCatalog(queries=(QueryEntry("a", LatentVector([1.0, 0.0])),)),
        ]
        duplicate = {
            "pickle": lambda v: pickle.loads(pickle.dumps(v)),
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
        }[how]
        for value in values:
            twin = duplicate(value)
            for field in dataclasses.fields(value):
                original, restored = getattr(value, field.name), getattr(twin, field.name)
                if not isinstance(original, np.ndarray):
                    continue
                assert np.array_equal(restored, original) and restored.dtype == np.float64
                assert not restored.flags.writeable, (type(value).__name__, field.name)
                with pytest.raises(ValueError):
                    restored[0] = 5.0
            assert twin == value if how == "copy" else repr(twin) == repr(value)

    def test_latent_vector_is_immutable(self):
        v = LatentVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.data[0] = 5.0

    def test_rejects_nan_and_inf(self):
        for bad in ([1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(InvalidShape):
                LatentVector(bad)

    def test_rejects_empty_and_wrong_ndim(self):
        with pytest.raises(InvalidShape):
            LatentVector([])
        with pytest.raises(InvalidShape):
            LatentVector([[1.0, 2.0]])
        with pytest.raises(InvalidShape):
            FeatureMap([1.0, 2.0])
        with pytest.raises(InvalidShape):
            Matrix(np.zeros((0, 3)))

    def test_defensive_copy(self):
        src = np.array([1.0, 2.0])
        v = LatentVector(src)
        src[0] = 99.0
        assert v.data[0] == 1.0

    def test_channel_stats_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ChannelStats(mean=[0.0, 1.0], std=[1.0])


def _from_file(values, tmp_path):
    np.save(tmp_path / "v.npy", np.array(values))
    (vector,) = read_vectors(tmp_path / "v.npy", rows=True)
    return vector


#: The three ways a vector's entries are checked: a library-made array
#: wrapped in place, the public constructor, and a file read as rows.
_BUILDERS = {
    "wrap": lambda values, tmp_path: tensorcore._wrap(LatentVector, np.array(values)),
    "constructor": lambda values, tmp_path: LatentVector(values),
    "read_vectors": _from_file,
}


class TestFiniteCheck:
    """``_checked`` sums the squares in one pass and asks min and max only
    when that sum is not finite: the same entries pass and fail as with
    min and max alone, and nothing warns either way."""

    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
    @pytest.mark.parametrize("at", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, build, at, bad):
        values = [1.0, -2.0, 0.5, 3.0, 0.0, 1e-300, 4.0]
        values[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidShape, match=r"^LatentVector contains NaN or Inf entries$"):
                build(values, tmp_path)

    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
    @pytest.mark.parametrize(
        "values", [[1e200] * 4, [1.7e308, 1.7e308], [-1.7e308, 1.0]], ids=["1e200", "near_max", "near_min"]
    )
    def test_finite_entries_whose_squares_overflow_accepted(self, tmp_path, build, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vector = build(values, tmp_path)
        assert vector.data.tolist() == values
        assert not vector.data.flags.writeable

    def test_matrix_message_names_the_type(self):
        data = np.ones((3, 4))
        data[2, 3] = np.nan
        with pytest.raises(InvalidShape, match=r"^Matrix contains NaN or Inf entries$"):
            tensorcore._wrap(Matrix, data)


class TestDotNorm:
    def test_dot_unit_basis(self):
        e1, e2 = unit(0, 3), unit(1, 3)
        assert dot(e1, e1) == 1.0
        assert dot(e1, e2) == 0.0

    def test_dot_hand_value(self):
        # 1*4 + 2*5 + 3*6
        assert dot(LatentVector([1, 2, 3]), LatentVector([4, 5, 6])) == 32.0

    def test_dot_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot(LatentVector([1.0]), LatentVector([1.0, 2.0]))

    def test_norm_cases(self):
        assert norm(LatentVector(np.zeros(4))) == 0.0
        assert norm(unit(2, 8)) == 1.0
        assert norm(LatentVector([3.0, 4.0])) == 5.0

    def test_tiny_vector_has_a_norm_and_an_angle(self):
        # squared, the entries underflow: np.linalg.norm of this vector is 0.0
        tiny = LatentVector([1e-200, 2e-200])
        assert norm(tiny) == pytest.approx(math.sqrt(5.0) * 1e-200, rel=1e-15)
        assert _row_norms(np.array([[1e-200, 2e-200], [3.0, 4.0]])).tolist() == [norm(tiny), 5.0]
        assert angle_between(tiny, tiny) == 0.0
        assert angle_between(tiny, LatentVector([2.0, -1.0])) == pytest.approx(math.pi / 2, abs=1e-15)
        assert angle_between(tiny, LatentVector([1.0, 0.0])) == pytest.approx(math.acos(1 / math.sqrt(5.0)), rel=1e-15)
        blended = sli_blend(WeightedStyleSet.of([tiny, LatentVector([2e-200, -1e-200])], [1.0, 1.0]))
        assert blended.omega_trace == pytest.approx((math.pi / 2,), rel=1e-15)

    def test_huge_vector_has_a_norm(self):
        # squared, the entries overflow: np.linalg.norm of this vector is inf
        huge = LatentVector([3e200, 4e200])
        assert norm(huge) == pytest.approx(5e200, rel=1e-15)
        assert angle_between(huge, huge) == 0.0
        # finite entries whose norm is past the float64 max: inf, and no warning
        biggest = LatentVector([np.finfo(np.float64).max] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(biggest) == math.inf
            assert _row_norms(np.array([biggest.data, [3.0, 4.0]])).tolist() == [math.inf, 5.0]
            assert angle_between(biggest, biggest) == 0.0
            assert cosine_similarity(biggest, biggest) == 1.0

    def test_cauchy_schwarz_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.integers(1, 20)
            a = LatentVector(rng.normal(size=d))
            b = LatentVector(rng.normal(size=d))
            assert dot(a, b) == dot(b, a)
            assert abs(dot(a, b)) <= norm(a) * norm(b) + 1e-12


class TestChannelStats:
    def test_constant_channel_floored(self):
        st = channel_stats(FeatureMap(np.full((1, 6), 2.0)), eps_std=1e-5)
        assert st.mean[0] == 2.0
        assert st.std[0] == 1e-5

    def test_population_std(self):
        st = channel_stats(FeatureMap([[1.0, 3.0]]))
        assert st.mean[0] == 2.0
        assert st.std[0] == 1.0  # population std of {1, 3}

    def test_per_channel(self):
        st = channel_stats(FeatureMap([[0.0, 0.0], [1.0, -1.0]]))
        np.testing.assert_allclose(st.mean, [0.0, 0.0])
        np.testing.assert_allclose(st.std, [1e-5, 1.0])

    def test_shift_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = rng.normal(size=(4, 9))
            c = rng.normal()
            st = channel_stats(FeatureMap(f))
            st_shifted = channel_stats(FeatureMap(f + c))
            np.testing.assert_allclose(st_shifted.mean, st.mean + c, atol=1e-12)
            np.testing.assert_allclose(st_shifted.std, st.std, atol=1e-12)


    @pytest.mark.parametrize("shape", [(1, 2), (3, 7), (2, 5, 8), (4, 9, 129), (2, 3, 1000)])
    def test_kernel_is_numpy_mean_and_std_bit_for_bit(self, shape):
        # one mean per row rather than two, and the centred array kept
        x = np.random.default_rng(sum(shape)).normal(loc=3.0, scale=2.5, size=shape)
        x[..., 0, :] = 1.5  # a constant row: its std is floored
        mean, std, centred = tensorcore._centred_stats(x, 1e-5)
        assert np.array_equal(mean[..., 0], x.mean(axis=-1))
        assert np.array_equal(std[..., 0], np.maximum(x.std(axis=-1), 1e-5))
        assert np.array_equal(centred, x - x.mean(axis=-1, keepdims=True))


class TestSoftmaxRows:
    def test_kernel_overwrites_and_returns_its_argument(self):
        logits = np.random.default_rng(2).normal(scale=5.0, size=(3, 4, 6))
        want = np.exp(logits - logits.max(axis=-1, keepdims=True))
        want /= want.sum(axis=-1, keepdims=True)
        assert tensorcore._softmax_rows_array(logits) is logits
        assert np.array_equal(logits, want)

    def test_public_softmax_leaves_its_matrix(self):
        m = Matrix([[1.0, 2.0], [0.5, -3.0]])
        before = m.data.copy()
        softmax_rows(m)
        assert np.array_equal(m.data, before)

    def test_non_finite_row_max_makes_a_nan_row(self):
        logits = np.array([[np.inf, 1.0, 0.0], [-np.inf, -np.inf, -np.inf], [np.nan, 1.0, 2.0], [1e308, -1e308, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            out = tensorcore._softmax_rows_array(logits)
        assert np.isnan(out[:3]).all()
        assert out[3].tolist() == [1.0, 0.0, 0.0]

    def test_symmetric_row(self):
        out = softmax_rows(Matrix([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_large_logits_no_overflow(self):
        out = softmax_rows(Matrix([[1000.0, 1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3])
        assert np.isfinite(out.data).all()

    def test_log3_row(self):
        out = softmax_rows(Matrix([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = Matrix(rng.normal(scale=50.0, size=(rng.integers(1, 6), rng.integers(1, 8))))
            out = softmax_rows(m).data
            assert out.shape == m.data.shape
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert ((out >= 0) & (out <= 1)).all()


class TestMirroredRowMatmul:
    @pytest.mark.parametrize(
        "rows, dims, n_ref",
        [(128, 2, 5), (128, 8, 128), (129, 3, 64), (191, 16, 40), (192, 8, 1), (300, 4, 300), (256, 64, 256)],
    )
    def test_tiles_equal_the_full_einsum(self, rows, dims, n_ref):
        rng = np.random.default_rng(rows * dims)
        keys = np.empty((2, n_ref + rows, dims))
        keys[:, :n_ref] = rng.normal(size=(n_ref, dims))
        keys[:, n_ref:] = rng.normal(scale=3.0, size=(2, rows, dims))
        q = keys[:, n_ref:]
        assert rows >= tensorcore._MIRROR_MIN_ROWS
        tiled = tensorcore._row_matmul(q, keys, n_ref)
        for i in range(2):
            # fresh C-order operands: the bits depend neither on the views nor on their alignment
            full = np.einsum("id,jd->ij", q[i].copy(), keys[i].copy())
            assert np.array_equal(tiled[i], full)
            assert np.array_equal(tensorcore._row_matmul(q[i], keys[i], n_ref), full)
            gram = full[:, n_ref:]
            assert np.array_equal(gram, gram.T)

    def test_below_the_gate_is_one_full_einsum(self):
        keys = np.random.default_rng(0).normal(size=(254, 8))
        assert np.array_equal(tensorcore._row_matmul(keys[127:], keys, 127), np.einsum("id,jd->ij", keys[127:], keys))


class TestWeightedSumLayouts:
    """``_weighted_channels`` is ``_weighted_rows`` in the maps' own layout, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        maps=st.sampled_from([None, 1, 2, 5]),  # one matrix, or a stack of them
        c=st.integers(1, 16),
        n=st.integers(1, 70),
        keys=st.integers(1, 140),
        scale=st.floats(0.1, 30.0),
    )
    def test_channels_first_is_the_rows_transposed(self, seed, maps, c, n, keys, scale):
        rng = np.random.default_rng(seed)
        lead = () if maps is None else (maps,)
        weights = tensorcore._softmax_rows_array(rng.normal(scale=scale, size=(*lead, n, keys)))
        values = rng.normal(scale=3.0, size=(*lead, keys, c))
        out = tensorcore._weighted_channels(weights, values)
        assert out.shape == (*lead, c, n) and out.flags.c_contiguous
        assert out.swapaxes(-1, -2).tobytes() == tensorcore._weighted_rows(weights, values).tobytes()


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_an_interrupt_of_the_caller_calls_stop_before_the_pool_waits(monkeypatch):
    # both workers wait for stop(); the caller, waiting on them, is
    # interrupted. Without the stop() call the pool would wait out their 5 s
    # and the event would still be clear.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stopped = threading.Event()
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(_Alarm):
            tensorcore._map_threads(lambda _: stopped.wait(5.0), range(2), stop=stopped.set)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert stopped.is_set()
