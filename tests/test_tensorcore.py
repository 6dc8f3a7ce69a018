import math

import numpy as np
import pytest

from latentblendkit import (
    ChannelStats,
    DimensionMismatch,
    FeatureMap,
    InvalidShape,
    LatentVector,
    Matrix,
    angle_between,
    channel_stats,
    dot,
    norm,
    softmax_rows,
    sli_blend,
    unit,
    WeightedStyleSet,
)
from latentblendkit.tensorcore import _row_norms


class TestTypes:
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_vector_has_a_norm(self):
        # squared, the entries overflow: np.linalg.norm of this vector is inf
        huge = LatentVector([3e200, 4e200])
        assert norm(huge) == pytest.approx(5e200, rel=1e-15)
        assert angle_between(huge, huge) == 0.0

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


class TestSoftmaxRows:
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
