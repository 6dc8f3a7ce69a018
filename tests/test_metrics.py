import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentblendkit import (
    DimensionMismatch,
    EmptySet,
    EmbeddingSet,
    InputError,
    InvalidShape,
    LatentVector,
    ReferenceStyle,
    ZeroVector,
    cosine_similarity,
    mean_similarity,
    score_drop_bound,
    unit,
    weighted_score,
    wms_score,
)
from latentblendkit import metrics, tensorcore
from latentblendkit.tensorcore import _checked, _Record

import loop_reference
from cpu_note import cpu_note


def embedding_set_with_ms(ms_values, weights, names=None):
    """One generated unit vector whose cosine to basis reference i is exactly
    ms_values[i] (the leftover mass goes to an extra dimension)."""
    k = len(ms_values)
    names = names or [f"s{i}" for i in range(k)]
    residual = 1.0 - sum(m * m for m in ms_values)
    assert residual >= 0.0
    gen = LatentVector(list(ms_values) + [math.sqrt(residual)])
    refs = tuple(
        ReferenceStyle(name=names[i], embedding=unit(i, k + 1), weight=weights[i])
        for i in range(k)
    )
    return EmbeddingSet(generated=(gen,), references=refs)


class TestCosineSimilarity:
    def test_identical(self):
        v = LatentVector([0.2, -0.4, 1.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine_similarity(unit(0, 3), unit(1, 3)) == 0.0

    def test_scale_invariance(self):
        v = LatentVector([1.0, 2.0, 3.0])
        assert cosine_similarity(v, LatentVector(2.0 * v.data)) == pytest.approx(1.0, abs=1e-15)

    def test_scale_invariance_random(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            a = LatentVector(rng.normal(size=5))
            b = LatentVector(rng.normal(size=5))
            alpha, beta = rng.uniform(0.1, 10, size=2)
            base = cosine_similarity(a, b)
            scaled = cosine_similarity(LatentVector(alpha * a.data), LatentVector(beta * b.data))
            assert abs(base - scaled) < 1e-12

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            a = LatentVector(rng.normal(size=3))
            b = LatentVector(rng.normal(size=3))
            assert -1.0 <= cosine_similarity(a, b) <= 1.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_similarity(LatentVector([0.0, 0.0]), unit(0, 2))


class TestMeanSimilarity:
    def test_self_only(self):
        v = unit(0, 3)
        assert mean_similarity([v], v) == 1.0

    def test_half(self):
        assert mean_similarity([unit(0, 2), unit(1, 2)], unit(0, 2)) == 0.5

    def test_known_angles(self):
        # generated vectors at cosines 0.2 / 0.4 / 0.6 to e1
        gen = [
            LatentVector([c, math.sqrt(1 - c * c)]) for c in (0.2, 0.4, 0.6)
        ]
        assert mean_similarity(gen, unit(0, 2)) == pytest.approx(0.4, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptySet):
            mean_similarity([], unit(0, 2))

    def test_equals_left_to_right_cosine_mean(self):
        rng = np.random.default_rng(5)
        gen = [LatentVector(rng.standard_normal(7)) for _ in range(9)]
        ref = LatentVector(rng.standard_normal(7))
        total = 0.0
        for g in gen:
            total += cosine_similarity(g, ref)
        assert mean_similarity(gen, ref) == total / len(gen)

    def test_zero_reference(self):
        with pytest.raises(ZeroVector):
            mean_similarity([unit(0, 2)], LatentVector([0.0, 0.0]))


class TestWeightedScore:
    def test_plain_sum(self):
        assert weighted_score([0.2, 0.8], [0.5, 0.5]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_score([0.1], [0.5, 0.5])

    def test_linear_in_weights(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            ms = rng.uniform(-1, 1, size=4)
            w1 = rng.uniform(0, 2, size=4)
            w2 = rng.uniform(0, 2, size=4)
            lhs = weighted_score(ms, w1) + weighted_score(ms, w2)
            rhs = weighted_score(ms, w1 + w2)
            assert abs(lhs - rhs) < 1e-12


class TestWmsScore:
    def test_degenerate_single_weight(self):
        es = embedding_set_with_ms([0.6, 0.47552], [0.0, 1.0])
        report = wms_score(es)
        assert report.wms == pytest.approx(0.47552, abs=1e-12)

    def test_even_mix(self):
        es = embedding_set_with_ms([0.36150, 0.42156], [0.5, 0.5])
        report = wms_score(es)
        assert report.wms == pytest.approx(0.39153, abs=5e-5)

    def test_skewed_mix(self):
        es = embedding_set_with_ms([0.32595, 0.47072], [0.15, 0.85])
        report = wms_score(es)
        assert report.wms == pytest.approx(0.44900, abs=5e-5)

    def test_weights_normalized_internally(self):
        es1 = embedding_set_with_ms([0.3, 0.5], [1.0, 3.0])
        es2 = embedding_set_with_ms([0.3, 0.5], [0.25, 0.75])
        assert wms_score(es1).wms == pytest.approx(wms_score(es2).wms, abs=1e-12)

    def test_ms_gap_matches_bruteforce_pairwise(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            k = rng.integers(2, 6)
            ms = rng.uniform(-0.4, 0.4, size=k)  # keeps sum(ms^2) < 1
            es = embedding_set_with_ms(list(ms), list(rng.uniform(0.1, 1.0, size=k)))
            report = wms_score(es)
            brute = max(abs(a - b) for a in report.per_style_ms.values() for b in report.per_style_ms.values())
            assert report.ms_gap == pytest.approx(brute, abs=1e-12)

    def test_validation(self):
        with pytest.raises(EmptySet):
            EmbeddingSet(generated=(), references=(ReferenceStyle("a", unit(0, 2), 1.0),))
        with pytest.raises(InputError):
            EmbeddingSet(
                generated=(unit(0, 2),),
                references=(ReferenceStyle("a", LatentVector([0.0, 0.0]), 1.0),),
            )
        with pytest.raises(InputError):
            EmbeddingSet(
                generated=(unit(0, 2),),
                references=(
                    ReferenceStyle("a", unit(0, 2), 1.0),
                    ReferenceStyle("a", unit(1, 2), 1.0),
                ),
            )

    def test_weights_overflowing_their_sum(self):
        refs = (ReferenceStyle("a", unit(0, 2), 1e308), ReferenceStyle("b", unit(1, 2), 1e308))
        with pytest.raises(InputError, match="reference weights must have a finite sum, got inf"):
            EmbeddingSet(generated=(unit(0, 2),), references=refs)


class TestGeneratedMatrix:
    def _refs(self, d=3):
        return (ReferenceStyle("a", unit(0, d), 1.0), ReferenceStyle("b", unit(1, d), 2.0))

    def test_array_and_vectors_give_the_same_set(self):
        rng = np.random.default_rng(83)
        arr = rng.standard_normal((6, 3))
        from_array = EmbeddingSet(generated=arr, references=self._refs())
        from_vectors = EmbeddingSet(generated=[LatentVector(r) for r in arr], references=self._refs())
        for es in (from_array, from_vectors):
            assert es.generated.shape == (6, 3)
            assert es.generated.dtype == np.float64
            assert not es.generated.flags.writeable
            assert np.array_equal(es.generated, arr)
        assert wms_score(from_array) == wms_score(from_vectors)

    def test_array_is_copied(self):
        arr = np.eye(3)
        es = EmbeddingSet(generated=arr, references=self._refs())
        arr[0, 0] = 5.0
        assert es.generated[0, 0] == 1.0

    def test_validation_messages(self):
        refs = self._refs()
        with pytest.raises(EmptySet, match="no generated embeddings"):
            EmbeddingSet(generated=np.zeros((0, 3)), references=refs)
        with pytest.raises(InputError, match=r"generated\[2\] is a zero vector"):
            EmbeddingSet(generated=np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0], [0, 0, 0]]), references=refs)
        with pytest.raises(DimensionMismatch, match=r"generated\[1\] has d_z=2, expected 3"):
            EmbeddingSet(generated=[unit(0, 3), unit(0, 2)], references=refs)
        with pytest.raises(DimensionMismatch, match="reference 'a' has d_z=3, expected 2"):
            EmbeddingSet(generated=np.eye(2), references=refs)
        with pytest.raises(InvalidShape):
            EmbeddingSet(generated=np.ones(3), references=refs)
        with pytest.raises(InvalidShape):
            EmbeddingSet(generated=np.array([[1.0, np.nan, 0.0]]), references=refs)

    def test_mean_similarity_takes_an_array(self):
        arr = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mean_similarity(arr, unit(0, 2)) == 0.5
        with pytest.raises(EmptySet):
            mean_similarity(np.zeros((0, 2)), unit(0, 2))
        with pytest.raises(DimensionMismatch):
            mean_similarity(arr, unit(0, 3))
        with pytest.raises(ZeroVector):
            mean_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]), unit(0, 2))

    def test_owned_matrix_is_frozen_in_place(self):
        # a record over a matrix the caller checked, as lbk wms builds one
        owned = np.eye(3)[:2] + 0.5
        es = EmbeddingSet(generated=_Record(_checked(owned, 2, "generated")), references=self._refs())
        assert es.generated is owned and es._rec.matrix is owned
        assert not owned.flags.writeable
        caller = np.eye(3)[:2] + 0.5
        es = EmbeddingSet(generated=caller, references=self._refs())
        assert not np.shares_memory(es.generated, caller)
        assert caller.flags.writeable

    def test_owned_matrix_is_validated(self):
        with pytest.raises(InvalidShape, match="^generated contains NaN or Inf entries$"):
            _Record(_checked(np.array([[1.0, np.nan, 0.0]]), 2, "generated"))
        with pytest.raises(InputError, match=r"generated\[1\] is a zero vector"):
            EmbeddingSet(generated=_Record(_checked(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 2, "generated")),
                         references=self._refs())

    def test_an_array_gets_a_record_over_its_own_matrix(self):
        es = EmbeddingSet(generated=np.eye(3)[:2] + 0.5, references=self._refs())
        assert es._rec.matrix is es.generated
        assert es._rec.rows == ()  # only read_vectors(rows=True) makes row views
        assert wms_score(es) == wms_score(EmbeddingSet(generated=es._rec, references=self._refs()))

    def test_row_norms_are_computed_once_per_set(self, monkeypatch):
        calls = []
        real = tensorcore._row_norms

        def counting(gen):
            if gen.ndim == 2:  # a reference's norm is a 1-D call
                calls.append(gen.shape)
            return real(gen)

        monkeypatch.setattr(tensorcore, "_row_norms", counting)
        es = EmbeddingSet(generated=np.eye(3)[:2] + 0.5, references=self._refs())
        wms_score(es)
        score_drop_bound(es)
        assert calls == [(2, 3)]

    def test_reference_norms_are_computed_once_per_set(self, monkeypatch):
        calls = []
        real = metrics.norm

        def counting(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(metrics, "norm", counting)
        refs = tuple(ReferenceStyle(f"r{i}", LatentVector(np.eye(3)[i] + 0.25), 1.0 + i) for i in range(3))
        es = EmbeddingSet(generated=np.eye(3)[:2] + 0.5, references=refs)
        report = wms_score(es)
        assert [id(v) for v in calls] == [id(r.embedding) for r in refs]
        assert report.per_style_ms == {r.name: mean_similarity(es.generated, r.embedding) for r in refs}


def _loop_cosine(g: np.ndarray, r: np.ndarray) -> float:
    return loop_reference.cosine(g, r)


def _loop_mean(gen: np.ndarray, r: np.ndarray) -> float:
    total = 0.0
    for g in gen:
        total += _loop_cosine(g, r)
    return total / len(gen)


_ELEMENTS = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 70), st.integers(1, 3)),
    data=st.data(),
)
def test_scores_equal_a_plain_per_row_loop(shape, data):
    """Every score is == the one-vector-at-a-time arithmetic: np.dot, np.linalg.norm
    (on rescaled vectors where those under- or overflow), clamp, left-to-right sum."""
    n, d, k = shape
    gen = data.draw(hnp.arrays(np.float64, (n, d), elements=_ELEMENTS))
    refs = data.draw(hnp.arrays(np.float64, (k, d), elements=_ELEMENTS))
    weights = data.draw(st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k))
    assume(all(v.any() for v in (*gen, *refs)))
    vectors = [LatentVector(g) for g in gen]
    for r in refs:
        assert mean_similarity(vectors, LatentVector(r)) == _loop_mean(gen, r)
        for g in gen[:3]:
            assert cosine_similarity(LatentVector(g), LatentVector(r)) == _loop_cosine(g, r)
    es = EmbeddingSet(
        generated=gen,
        references=tuple(ReferenceStyle(f"s{i}", LatentVector(r), w) for i, (r, w) in enumerate(zip(refs, weights))),
    )
    report = wms_score(es)
    ms = [_loop_mean(gen, r) for r in refs]
    total_w = math.fsum(weights)
    wms = 0.0
    for m, w in zip(ms, weights):
        wms += w / total_w * m
    assert list(report.per_style_ms.values()) == ms
    assert report.wms == wms
    assert report.ms_gap == max(ms) - min(ms)


def test_overflowing_vectors_clamp_as_the_loop_does():
    # the plain dots and norm products overflow, which made each cosine
    # inf/inf, clamped to -1; such rows are now rescaled by a power of two,
    # so a vector of 1e200s has cosine 1 with itself, and numpy's warnings
    # for the unscaled pass are not raised
    big = np.array([[1e200, 1e200], [1e200, -1e200], [3.0, 4.0]])
    ref = np.array([1e200, 1e200])
    assert cosine_similarity(LatentVector(big[0]), LatentVector(ref)) == _loop_cosine(big[0], ref) == 1.0
    assert cosine_similarity(LatentVector(big[1]), LatentVector(ref)) == pytest.approx(0.0, abs=1e-15)
    assert mean_similarity(big, LatentVector(ref)) == _loop_mean(big, ref)
    assert mean_similarity(big, LatentVector(ref)) == pytest.approx((1.0 + 0.0 + 7.0 / (5.0 * math.sqrt(2.0))) / 3)


def test_underflowing_vectors_have_a_cosine():
    # squared norms of 1e-320 are subnormal and the dot of these two is 0
    tiny = np.array([[1e-160, 0.0], [0.0, 1e-160], [3e-200, 4e-200]])
    ref = np.array([1e-160, 1e-160])
    cosines = [cosine_similarity(LatentVector(g), LatentVector(ref)) for g in tiny]
    assert cosines == [_loop_cosine(g, ref) for g in tiny], cpu_note()
    assert cosine_similarity(LatentVector(tiny[0]), LatentVector(tiny[1])) == 0.0, cpu_note()
    assert cosine_similarity(LatentVector(tiny[2]), LatentVector(tiny[2])) == 1.0, cpu_note()
    assert mean_similarity(tiny, LatentVector(ref)) == pytest.approx((2 * math.sqrt(0.5) + 7.0 / (5.0 * math.sqrt(2.0))) / 3)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 15, 16, 17, 31, 64, 100, 257, 768, 1024])
def test_mean_similarity_equals_loop_across_dimensions(d):
    rng = np.random.default_rng(d)
    gen = rng.standard_normal((40, d)) * rng.uniform(1e-3, 1e3, size=(40, 1))
    ref = rng.standard_normal(d)
    assert mean_similarity(gen, LatentVector(ref)) == _loop_mean(gen, ref)


class TestScoreDropBound:
    def test_single_style_equality(self):
        es = embedding_set_with_ms([0.7], [1.0])
        bound = score_drop_bound(es)
        assert bound.wms == pytest.approx(bound.max_ms, abs=1e-12)
        assert bound.holds

    def test_even_mix(self):
        es = embedding_set_with_ms([0.2, 0.8], [0.5, 0.5])
        bound = score_drop_bound(es)
        assert bound.wms == pytest.approx(0.5, abs=1e-12)
        assert bound.max_ms == pytest.approx(0.8, abs=1e-12)
        assert bound.holds

    def test_random_sets(self):
        rng = np.random.default_rng(79)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            n_gen = int(rng.integers(1, 5))
            d = int(rng.integers(2, 8))
            es = EmbeddingSet(
                generated=tuple(LatentVector(rng.normal(size=d)) for _ in range(n_gen)),
                references=tuple(
                    ReferenceStyle(f"s{i}", LatentVector(rng.normal(size=d)), float(rng.uniform(0.01, 1)))
                    for i in range(k)
                ),
            )
            assert score_drop_bound(es).holds
