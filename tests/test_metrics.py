import math

import numpy as np
import pytest

from latentblendkit import (
    DimensionMismatch,
    EmptySet,
    EmbeddingSet,
    InputError,
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
