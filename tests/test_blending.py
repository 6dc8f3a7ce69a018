import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentblendkit import (
    AllZeroWeights,
    AntipodalVectors,
    DimensionMismatch,
    InputError,
    InvalidShape,
    LatentVector,
    WeightedStyleSet,
    ZeroVector,
    blending,
    chord_and_arc,
    linear_blend,
    norm,
    normalize_weights,
    slerp_pair,
    sli_blend,
    unit,
)
from latentblendkit.blending import _sli_fold

import loop_reference


def random_unit(rng, d=6):
    v = rng.normal(size=d)
    return LatentVector(v / np.linalg.norm(v))


class TestNormalizeWeights:
    def test_basic(self):
        s = normalize_weights(WeightedStyleSet.of([unit(0, 2), unit(1, 2)], [2.0, 2.0]))
        assert s.weights == (0.5, 0.5)

    def test_single(self):
        s = normalize_weights(WeightedStyleSet.of([unit(0, 2)], [1.0]))
        assert s.weights == (1.0,)

    def test_one_three(self):
        s = normalize_weights(WeightedStyleSet.of([unit(0, 2), unit(1, 2)], [1.0, 3.0]))
        assert s.weights == (0.25, 0.75)

    def test_all_zero(self):
        s = WeightedStyleSet.of([unit(0, 2), unit(1, 2)], [0.0, 0.0])
        with pytest.raises(AllZeroWeights):
            normalize_weights(s)

    @pytest.mark.parametrize("blend", [normalize_weights, linear_blend, sli_blend])
    def test_weights_overflowing_their_sum(self, blend):
        s = WeightedStyleSet.of([unit(0, 2), unit(1, 2)], [1e308, 1e308])
        with pytest.raises(InputError, match="style weights must have a finite sum, got inf"):
            blend(s)

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            WeightedStyleSet.of([unit(0, 2)], [-0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            WeightedStyleSet.of([unit(0, 2), unit(0, 3)], [1.0, 1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = rng.integers(1, 6)
            s = WeightedStyleSet.of([random_unit(rng) for _ in range(k)], rng.uniform(0.01, 5, k))
            assert abs(sum(normalize_weights(s).weights) - 1.0) < 1e-12


class TestLinearBlend:
    def test_single_style_identity(self):
        r = linear_blend(WeightedStyleSet.of([unit(0, 3)], [1.0]))
        np.testing.assert_array_equal(r.vector.data, unit(0, 3).data)
        assert r.method == "linear"
        assert r.omega_trace == ()

    def test_orthogonal_units_shrink(self):
        r = linear_blend(WeightedStyleSet.of([unit(0, 3), unit(1, 3)], [0.5, 0.5]))
        np.testing.assert_allclose(r.vector.data, [0.5, 0.5, 0.0])
        assert abs(norm(r.vector) - math.sqrt(0.5)) < 1e-12  # 0.70711 < 1

    def test_identical_styles(self):
        v = LatentVector([0.3, -0.7, 0.1])
        r = linear_blend(WeightedStyleSet.of([v, v], [0.3, 0.7]))
        np.testing.assert_allclose(r.vector.data, v.data, atol=1e-15)

    def test_norm_shrinkage_random(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a, b = random_unit(rng), random_unit(rng)
            if np.array_equal(a.data, b.data):
                continue
            r = linear_blend(WeightedStyleSet.of([a, b], [0.5, 0.5]))
            assert norm(r.vector) < 1.0


class TestSlerpPair:
    def test_endpoints_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = random_unit(rng), random_unit(rng)
            v0, _ = slerp_pair(a, b, 0.0)
            v1, _ = slerp_pair(a, b, 1.0)
            assert v0.data.tobytes() == a.data.tobytes()
            assert v1.data.tobytes() == b.data.tobytes()

    def test_orthogonal_midpoint(self):
        v, omega = slerp_pair(unit(0, 4), unit(1, 4), 0.5)
        assert omega == pytest.approx(math.pi / 2, abs=1e-15)
        np.testing.assert_allclose(v.data, [math.sqrt(2) / 2, math.sqrt(2) / 2, 0, 0], atol=1e-15)

    def test_orthogonal_three_quarters(self):
        v, _ = slerp_pair(unit(0, 2), unit(1, 2), 0.75)
        np.testing.assert_allclose(
            v.data, [math.sin(math.pi / 8), math.sin(3 * math.pi / 8)], atol=1e-15
        )

    def test_unit_norm_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a, b = random_unit(rng), random_unit(rng)
            for t in np.linspace(0, 1, 11):
                v, _ = slerp_pair(a, b, float(t))
                assert abs(norm(v) - 1.0) < 1e-9

    def test_degenerate_angle_falls_back_to_lerp(self):
        a = LatentVector([1.0, 0.0])
        v, omega = slerp_pair(a, a, 0.4)
        assert omega == 0.0
        np.testing.assert_allclose(v.data, a.data, atol=1e-15)
        # nearly parallel with different magnitude: lerp of the raw vectors
        b = LatentVector([2.0, 0.0])
        v, _ = slerp_pair(a, b, 0.25, eps_omega=1e-7)
        np.testing.assert_allclose(v.data, [1.25, 0.0], atol=1e-12)

    def test_antipodal_error(self):
        a = LatentVector([1.0, 0.0])
        b = LatentVector([-1.0, 0.0])
        with pytest.raises(AntipodalVectors):
            slerp_pair(a, b, 0.5)
        with pytest.raises(AntipodalVectors):
            slerp_pair(a, b, 0.0)  # errors take precedence over endpoints

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, 10.0, math.nextafter(math.pi / 2, 4.0)])
    def test_eps_omega_outside_zero_to_half_pi_is_rejected(self, eps):
        # at 0, below it or NaN the antipodal guard never fires, and this
        # pair would blend to the zero vector; past pi/2 the parallel and
        # antipodal cutoffs overlap
        a, b = LatentVector([1.0, 0.0]), LatentVector([-1.0, 0.0])
        with pytest.raises(InputError, match="eps_omega must be > 0 and at most pi/2"):
            slerp_pair(a, b, 0.5, eps_omega=eps)
        with pytest.raises(InputError, match="eps_omega must be > 0 and at most pi/2"):
            sli_blend(WeightedStyleSet.of([a, b], [1.0, 1.0]), eps)

    def test_eps_omega_of_half_pi_still_slerps_at_a_right_angle(self):
        v, omega = slerp_pair(unit(0, 2), unit(1, 2), 0.5, eps_omega=math.pi / 2)
        assert omega == math.pi / 2
        np.testing.assert_allclose(v.data, [math.sqrt(0.5)] * 2, atol=1e-15)

    def test_zero_vector_error(self):
        with pytest.raises(ZeroVector):
            slerp_pair(LatentVector([0.0, 0.0]), unit(0, 2), 0.5)

    def test_t_out_of_range(self):
        with pytest.raises(InputError):
            slerp_pair(unit(0, 2), unit(1, 2), 1.5)

    def test_magnitudes_interpolate_on_raw_vectors(self):
        # omega comes from directions; coefficients hit the raw vectors
        a = LatentVector([2.0, 0.0])
        b = LatentVector([0.0, 3.0])
        v, omega = slerp_pair(a, b, 0.5)
        assert omega == pytest.approx(math.pi / 2)
        c = math.sin(math.pi / 4) / math.sin(math.pi / 2)
        np.testing.assert_allclose(v.data, [2.0 * c, 3.0 * c], atol=1e-12)

    def test_an_overflowing_slerp_raises_without_a_warning(self):
        # finite, nearly antipodal inputs: both sine coefficients are about 100
        a, b = LatentVector([1e307, 0.0]), LatentVector([-1e307, 1e305])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidShape, match=r"^LatentVector contains NaN or Inf entries$"):
                slerp_pair(a, b, 0.5)
            with pytest.raises(InvalidShape, match=r"^LatentVector contains NaN or Inf entries$"):
                sli_blend(WeightedStyleSet.of([a, b], [1.0, 1.0]))

    @pytest.mark.parametrize("t", [0.3, 0.5])
    @pytest.mark.parametrize("scale", [1.0, 1e307])
    def test_huge_vectors_keep_their_bits(self, t, scale):
        # past the bound the sum runs under an errstate, with the same arithmetic
        rng = np.random.default_rng(17)
        near, far = rng.uniform(0.5, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
        for z1, z2, c1, c2 in [
            (near, near * (1.0 + 1e-12), 1.0 - t, t),  # the straight-line limit
            (near, far, None, None),
        ]:
            z1, z2 = scale * z1, scale * z2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v, omega = slerp_pair(LatentVector(z1), LatentVector(z2), t)
            if c1 is None:
                assert omega > 1e-7
                c1 = math.sin((1.0 - t) * omega) / math.sin(omega)
                c2 = math.sin(t * omega) / math.sin(omega)
            assert v.data.tobytes() == (c1 * z1 + c2 * z2).tobytes()


class TestSliBlend:
    def test_single_style(self):
        r = sli_blend(WeightedStyleSet.of([unit(2, 4)], [1.0]))
        np.testing.assert_array_equal(r.vector.data, unit(2, 4).data)
        assert r.order_used == (0,)
        assert r.omega_trace == ()

    def test_identical_styles_fall_back(self):
        v = unit(1, 3)
        r = sli_blend(WeightedStyleSet.of([v, v, v], [0.5, 0.3, 0.2]))
        np.testing.assert_allclose(r.vector.data, v.data, atol=1e-12)
        assert all(om < 1e-7 for om in r.omega_trace)

    def test_two_styles_sorted_then_interpolated(self):
        # weights (0.25, 0.75) sort to (e2, e1); t = 0.25
        r = sli_blend(WeightedStyleSet.of([unit(0, 2), unit(1, 2)], [0.25, 0.75]))
        assert r.order_used == (1, 0)
        np.testing.assert_allclose(
            r.vector.data, [math.sin(math.pi / 8), math.sin(3 * math.pi / 8)], atol=1e-15
        )

    def test_k2_equals_slerp_pair(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            w = rng.uniform(0.05, 1.0, size=2)
            r = sli_blend(WeightedStyleSet.of([a, b], list(w)))
            # descending-weight order, ties to the lower index
            hi, lo, w_lo = (a, b, w[1]) if w[0] >= w[1] else (b, a, w[0])
            expected, _ = slerp_pair(hi, lo, w_lo / (w[0] + w[1]))
            np.testing.assert_allclose(r.vector.data, expected.data, rtol=1e-12, atol=1e-15)

    def test_deterministic_across_input_permutations(self):
        # the sort canonicalizes (weight, source_index), so presenting the
        # same styles in any order gives bit-identical output, and the
        # permuted set's order_used names the same styles
        rng = np.random.default_rng(37)
        vectors = [random_unit(rng) for _ in range(4)]
        weights = [0.4, 0.3, 0.2, 0.1]
        base = sli_blend(WeightedStyleSet.of(vectors, weights))
        for order in [(3, 1, 0, 2), (2, 3, 1, 0)]:
            permuted = WeightedStyleSet.of([vectors[i] for i in order], [weights[i] for i in order])
            r = sli_blend(permuted)
            assert r.vector.data.tobytes() == base.vector.data.tobytes()
            assert tuple(order[j] for j in r.order_used) == base.order_used

    def test_tie_break_by_source_index(self):
        rng = np.random.default_rng(41)
        vectors = [random_unit(rng) for _ in range(3)]
        r = sli_blend(WeightedStyleSet.of(vectors, [0.25, 0.5, 0.25]))
        assert r.order_used == (1, 0, 2)

    def test_fold_order_matters(self):
        # regression: the recursion is not associative, so disabling the
        # descending-weight sort must change the result for suitable inputs
        rng = np.random.default_rng(43)
        vectors = [random_unit(rng) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        sorted_set = normalize_weights(WeightedStyleSet.of(vectors, weights))
        sorted_vec, _ = _sli_fold(sorted_set.vectors, sorted_set.weights, (0, 1, 2), 1e-7)
        reversed_vec, _ = _sli_fold(sorted_set.vectors, sorted_set.weights, (2, 1, 0), 1e-7)
        assert not np.allclose(sorted_vec, reversed_vec, atol=1e-12)

    def test_unit_norm_preserved_k3(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            vectors = [random_unit(rng) for _ in range(3)]
            w = rng.uniform(0.05, 1.0, size=3)
            r = sli_blend(WeightedStyleSet.of(vectors, list(w)))
            assert abs(norm(r.vector) - 1.0) < 1e-9


class TestWeightedStyleSet:
    def test_rows_are_source_indices(self):
        a, b = LatentVector([1.0, 2.0]), LatentVector([3.0, 4.0])
        s = WeightedStyleSet.of([a, b], [1, 2.5])
        np.testing.assert_array_equal(s.vectors, [[1.0, 2.0], [3.0, 4.0]])
        assert s.vectors.dtype == np.float64 and not s.vectors.flags.writeable
        assert s.weights == (1.0, 2.5) and s.d_z == 2

    def test_array_is_copied(self):
        arr = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = WeightedStyleSet(arr, (1.0, 1.0))
        assert not np.shares_memory(s.vectors, arr)
        arr[0, 0] = 5.0
        assert s.vectors[0, 0] == 1.0

    def test_validation_messages(self):
        with pytest.raises(InputError, match="^2 vectors but 1 weights$"):
            WeightedStyleSet.of([unit(0, 2), unit(1, 2)], [1.0])
        with pytest.raises(InputError, match="needs at least one style"):
            WeightedStyleSet.of([], [])
        with pytest.raises(DimensionMismatch, match=r"^style 1 has d_z=3, expected 2$"):
            WeightedStyleSet.of([unit(0, 2), unit(0, 3)], [1.0, 1.0])
        with pytest.raises(InputError, match="^style 1 has invalid weight nan$"):
            WeightedStyleSet.of([unit(0, 2), unit(1, 2)], [1.0, math.nan])

    def test_sli_blend_of_64_styles_builds_one_latent_vector(self, monkeypatch):
        rng = np.random.default_rng(59)
        s = WeightedStyleSet.of([random_unit(rng, d=8) for _ in range(64)], rng.uniform(0.1, 1.0, 64))
        built = []
        real = LatentVector.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        real_wrap = blending._wrap

        def counting_wrap(cls, *args, **kwargs):
            value = real_wrap(cls, *args, **kwargs)
            built.append(value)
            return value

        # the result is built by blending._wrap, around the array the fold computed
        monkeypatch.setattr(LatentVector, "__post_init__", counting)
        monkeypatch.setattr(blending, "_wrap", counting_wrap)
        r = sli_blend(s)
        assert len(r.omega_trace) == 63
        assert built == [r.vector]


def _reference_blend(vectors, weights, method, eps_omega):
    """The blend as a plain per-pair loop over 1-D arrays: the
    ``loop_reference`` cosine, math.acos and left-to-right accumulation. Returns
    (vector, order_used, omega_trace), or the error type the fold meets."""
    total = math.fsum(weights)
    if total == 0.0:
        return AllZeroWeights
    w = [x / total for x in weights]
    if method == "linear":
        out = np.zeros(len(vectors[0]))
        for wi, v in zip(w, vectors):
            out += wi * v
        return out, tuple(range(len(w))), ()
    order = sorted(range(len(w)), key=lambda i: (-w[i], i))
    cumulative, running, trace = vectors[order[0]], w[order[0]], []
    for i in order[1:]:
        running += w[i]
        t = w[i] / running
        v = vectors[i]
        if loop_reference.norm(cumulative) == 0.0 or loop_reference.norm(v) == 0.0:
            return ZeroVector
        omega = math.acos(loop_reference.cosine(cumulative, v))
        if math.pi - omega < eps_omega:
            return AntipodalVectors
        if t == 1.0:
            cumulative = v
        elif omega < eps_omega and t != 0.0:
            cumulative = (1.0 - t) * cumulative + t * v
        elif t != 0.0:
            sin_omega = math.sin(omega)
            c1 = math.sin((1.0 - t) * omega) / sin_omega
            c2 = math.sin(t * omega) / sin_omega
            cumulative = c1 * cumulative + c2 * v
        trace.append(omega)
    return cumulative, tuple(order), tuple(trace)


# small integers make parallel, antipodal and zero styles and equal weights likely
_ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]), st.floats(-8.0, 8.0, allow_subnormal=False))
_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 4.0, allow_subnormal=False))


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 5)),
    method=st.sampled_from(["sli", "linear"]),
    eps_omega=st.sampled_from([1e-7, 0.3]),
    data=st.data(),
)
def test_blends_equal_a_plain_per_pair_fold(shape, method, eps_omega, data):
    k, d = shape
    matrix = data.draw(hnp.arrays(np.float64, (k, d), elements=_ENTRIES))
    weights = data.draw(st.lists(_WEIGHTS, min_size=k, max_size=k))
    rows = [np.array(r) for r in matrix]
    s = WeightedStyleSet.of([LatentVector(r) for r in rows], weights)
    expected = _reference_blend(rows, weights, method, eps_omega)
    blend = (lambda: sli_blend(s, eps_omega)) if method == "sli" else (lambda: linear_blend(s))
    if isinstance(expected, type):
        with pytest.raises(expected):
            blend()
        return
    r = blend()
    assert r.vector.data.tobytes() == expected[0].tobytes()
    assert r.order_used == expected[1]
    assert r.omega_trace == expected[2]


class TestChordAndArc:
    def test_identical(self):
        v = unit(0, 3)
        assert chord_and_arc(v, v) == (0.0, 0.0)

    def test_orthogonal(self):
        d_lin, d_geo = chord_and_arc(unit(0, 2), unit(1, 2))
        assert d_lin == pytest.approx(math.sqrt(2), abs=1e-15)
        assert d_geo == pytest.approx(math.pi / 2, abs=1e-15)
        assert d_lin < d_geo

    def test_sixty_degrees(self):
        a = unit(0, 2)
        b = LatentVector([math.cos(math.pi / 3), math.sin(math.pi / 3)])
        d_lin, d_geo = chord_and_arc(a, b)
        assert d_lin == pytest.approx(1.0, abs=1e-12)  # 2 sin(pi/6)
        assert d_geo == pytest.approx(math.pi / 3, abs=1e-12)

    def test_scale_invariant(self):
        a = LatentVector([1.0, 1.0])
        b = LatentVector([5.0, 0.0])
        base = chord_and_arc(a, b)
        scaled = chord_and_arc(LatentVector(3.0 * a.data), b)
        assert base == pytest.approx(scaled, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            chord_and_arc(LatentVector([0.0]), LatentVector([1.0]))

    def test_chord_never_exceeds_arc(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            a, b = random_unit(rng), random_unit(rng)
            d_lin, d_geo = chord_and_arc(a, b)
            assert d_lin <= d_geo + 1e-12
