import math
import warnings

import numpy as np
import pytest

from latentblendkit import (
    AllZeroWeights,
    AttentionInputs,
    DimensionMismatch,
    EmptySet,
    FeatureMap,
    InputError,
    Matrix,
    NumericDomainError,
    RescaleParams,
    StyleBlock,
    StyleClass,
    StyleClassifierConfig,
    adain,
    adain_rows,
    attention,
    classify_style,
    lambda_rescaled_attention,
    rescale_params_for,
    row_entropy,
    shared_attention,
)


def stats_preserving_pair(rng, rows, d, positive=False):
    """A (ref, self) matrix pair where self is a row permutation of ref, so
    per-column statistics agree exactly and AdaIN is a near no-op."""
    base = rng.uniform(0.5, 1.5, size=(rows, d)) if positive else rng.normal(size=(rows, d))
    return Matrix(base), Matrix(base[rng.permutation(rows)])


class TestAttention:
    def test_single_key_broadcasts_value(self):
        out, weights = attention(
            AttentionInputs(q=Matrix(np.random.default_rng(0).normal(size=(3, 2))),
                            k=Matrix([[1.0, 0.0]]), v=Matrix([[5.0, 6.0, 7.0]]))
        )
        np.testing.assert_allclose(weights.data, np.ones((3, 1)))
        np.testing.assert_allclose(out.data, np.tile([5.0, 6.0, 7.0], (3, 1)))

    def test_zero_queries_average_values(self):
        out, weights = attention(
            AttentionInputs(q=Matrix(np.zeros((2, 3))),
                            k=Matrix(np.random.default_rng(1).normal(size=(2, 3))),
                            v=Matrix([[2.0], [4.0]]))
        )
        np.testing.assert_allclose(weights.data, np.full((2, 2), 0.5), atol=1e-15)
        np.testing.assert_allclose(out.data, np.full((2, 1), 3.0), atol=1e-15)

    def test_d1_log9_weights(self):
        _, weights = attention(
            AttentionInputs(q=Matrix([[1.0]]), k=Matrix([[0.0], [math.log(9.0)]]),
                            v=Matrix([[0.0], [1.0]]))
        )
        np.testing.assert_allclose(weights.data, [[0.1, 0.9]], atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            AttentionInputs(q=Matrix(np.zeros((1, 2))), k=Matrix(np.zeros((1, 3))), v=Matrix(np.zeros((1, 1))))
        with pytest.raises(DimensionMismatch):
            AttentionInputs(q=Matrix(np.zeros((1, 2))), k=Matrix(np.zeros((2, 2))), v=Matrix(np.zeros((3, 1))))

    def test_uniform_logit_shift_invariance(self):
        # adding one constant to every logit cancels in the softmax, which is
        # why the mu shift is only applied to the reference block
        from latentblendkit.tensorcore import _softmax_rows_array

        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.normal(scale=3.0, size=(4, 7))
            shift = rng.normal(scale=10.0)
            np.testing.assert_allclose(
                _softmax_rows_array(logits + shift), _softmax_rows_array(logits), atol=1e-9
            )


class TestClassifyStyle:
    def test_zero_keys_normal(self):
        assert classify_style(Matrix(np.zeros((3, 4)))) is StyleClass.NORMAL

    def test_unit_rows_famous(self):
        assert classify_style(Matrix(np.eye(4))) is StyleClass.FAMOUS

    def test_boundary_mean(self):
        # row norms 0.4 and 0.5 -> mean 0.45 <= 0.5 -> normal
        ref = Matrix([[0.4, 0.0], [0.5, 0.0]])
        assert classify_style(ref) is StyleClass.NORMAL

    def test_params_lookup(self):
        cfg = StyleClassifierConfig()
        normal = rescale_params_for(StyleClass.NORMAL, cfg)
        famous = rescale_params_for(StyleClass.FAMOUS, cfg)
        assert normal.mu == pytest.approx(math.log(2.0))
        assert normal.sigma == 1.0
        assert famous.mu == 0.0
        assert famous.sigma == 0.5

    @pytest.mark.parametrize(
        "mu, sigma, name",
        [(math.nan, 1.0, "mu"), (math.inf, 1.0, "mu"), (-math.inf, 1.0, "mu"),
         (0.0, math.nan, "sigma"), (0.0, math.inf, "sigma")],
    )
    def test_non_finite_params_name_the_field(self, mu, sigma, name):
        with pytest.raises(InputError, match=f"^{name} must be finite"):
            RescaleParams(mu=mu, sigma=sigma)

    def test_sigma_must_be_positive(self):
        with pytest.raises(InputError):
            RescaleParams(mu=0.0, sigma=0.0)


class TestSharedAttention:
    def test_identity_rescale_matches_plain_concat(self):
        rng = np.random.default_rng(5)
        ref_q, self_q = stats_preserving_pair(rng, 6, 4)
        ref_k, self_k = stats_preserving_pair(rng, 6, 4)
        ref_v = Matrix(rng.normal(size=(6, 3)))
        self_v = Matrix(rng.normal(size=(6, 3)))
        out = shared_attention(self_q, self_k, self_v, ref_q, ref_k, ref_v,
                               rescale=RescaleParams(0.0, 1.0))
        plain, plain_w = attention(
            AttentionInputs(
                q=self_q,
                k=Matrix(np.vstack([ref_k.data, self_k.data])),
                v=Matrix(np.vstack([ref_v.data, self_v.data])),
            )
        )
        np.testing.assert_allclose(out.updated.data, plain.data, atol=1e-9)
        np.testing.assert_allclose(out.weights.data, plain_w.data, atol=1e-9)

    def test_weights_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_self, n_ref, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 5)
            out = shared_attention(
                Matrix(rng.normal(size=(n_self, d))), Matrix(rng.normal(size=(n_self, d))),
                Matrix(rng.normal(size=(n_self, 2))), Matrix(rng.normal(size=(n_ref, d))),
                Matrix(rng.normal(size=(n_ref, d))), Matrix(rng.normal(size=(n_ref, 2))),
            )
            np.testing.assert_allclose(out.weights.data.sum(axis=1), 1.0, atol=1e-9)
            assert 0.0 <= out.ref_mass <= 1.0
            assert out.weights.data.shape == (n_self, n_ref + n_self)

    def test_famous_damping_reduces_ref_mass(self):
        rng = np.random.default_rng(9)
        ref_q, self_q = stats_preserving_pair(rng, 5, 4, positive=True)
        ref_k, self_k = stats_preserving_pair(rng, 5, 4, positive=True)
        ref_v = Matrix(rng.normal(size=(5, 2)))
        self_v = Matrix(rng.normal(size=(5, 2)))
        full = shared_attention(self_q, self_k, self_v, ref_q, ref_k, ref_v,
                                rescale=RescaleParams(0.0, 1.0))
        damped = shared_attention(self_q, self_k, self_v, ref_q, ref_k, ref_v,
                                  rescale=RescaleParams(0.0, 0.5))
        assert damped.ref_mass < full.ref_mass

    def test_normal_boost_two_thirds(self):
        # single ref and self token; zero-logit construction gives the
        # closed form exp(mu) / (exp(mu) + 1) = 2/3 for mu = log 2
        out = shared_attention(
            Matrix([[5.0]]), Matrix([[-1.0]]), Matrix([[100.0]]),
            Matrix([[1.0]]), Matrix([[0.0]]), Matrix([[0.0]]),
            rescale=RescaleParams(mu=math.log(2.0), sigma=1.0),
        )
        assert out.ref_mass == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_sigma_monotonicity_on_positive_logits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ref_q, self_q = stats_preserving_pair(rng, 4, 3, positive=True)
            ref_k, self_k = stats_preserving_pair(rng, 4, 3, positive=True)
            ref_v = Matrix(rng.normal(size=(4, 2)))
            self_v = Matrix(rng.normal(size=(4, 2)))
            masses = [
                shared_attention(self_q, self_k, self_v, ref_q, ref_k, ref_v,
                                 rescale=RescaleParams(0.0, s)).ref_mass
                for s in (0.5, 1.0, 2.0)
            ]
            assert masses[0] < masses[1] < masses[2]

    def test_mu_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ref_q, self_q = stats_preserving_pair(rng, 4, 3)
            ref_k, self_k = stats_preserving_pair(rng, 4, 3)
            ref_v = Matrix(rng.normal(size=(4, 2)))
            self_v = Matrix(rng.normal(size=(4, 2)))
            masses = [
                shared_attention(self_q, self_k, self_v, ref_q, ref_k, ref_v,
                                 rescale=RescaleParams(m, 1.0)).ref_mass
                for m in (-1.0, 0.0, 1.0)
            ]
            assert masses[0] < masses[1] < masses[2]

    def test_stack_equals_one_matrix_at_a_time(self):
        # the sandbox's stacked path: blocks that share one reference half,
        # with the self keys as queries and with queries of their own
        from latentblendkit.attention import _attend_blocks, _mass

        rng = np.random.default_rng(11)
        ref_k, ref_v = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
        keys, values = np.empty((4, 16, 5)), np.empty((4, 16, 5))
        keys[:, :9], keys[:, 9:] = ref_k, rng.normal(size=(4, 7, 5))
        values[:, :9], values[:, 9:] = ref_v, rng.normal(size=(4, 7, 5))
        blocks = ((9, 0.5, 0.69),)
        for q in (None, rng.normal(size=(4, 7, 5))):
            out, weights = _attend_blocks(keys, values, blocks, q)
            mass = _mass(weights, 0, 9)
            assert out.flags.c_contiguous and weights.shape == (4, 7, 16) and mass.shape == (4,)
            for i in range(4):
                one, one_weights = _attend_blocks(keys[i], values[i], blocks, None if q is None else q[i])
                assert np.array_equal(out[i], one)
                assert np.array_equal(weights[i], one_weights)
                assert mass[i] == _mass(one_weights, 0, 9)

    @pytest.mark.parametrize("rows", [7, 150])
    def test_queries_that_are_the_keys_match_separate_keys(self, rows):
        # the same Matrix as queries and keys shares one AdaIN, and from 128
        # rows the kernel computes the self logits from mirrored tiles
        rng = np.random.default_rng(rows)
        m, ref, v = Matrix(rng.normal(size=(rows, 12))), Matrix(rng.normal(size=(90, 12))), Matrix(rng.normal(size=(90, 5)))
        own_v = Matrix(rng.normal(size=(rows, 5)))
        rescale = RescaleParams(0.3, 0.9)
        same = shared_attention(m, m, own_v, ref, ref, v, rescale)
        apart = shared_attention(m, Matrix(m.data), own_v, ref, Matrix(ref.data), v, rescale)
        assert np.array_equal(same.updated.data, apart.updated.data)
        assert np.array_equal(same.weights.data, apart.weights.data)
        assert same.ref_mass == apart.ref_mass

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            shared_attention(
                Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 2))),
                Matrix(np.zeros((2, 4))), Matrix(np.zeros((2, 4))), Matrix(np.zeros((2, 2))),
            )
        with pytest.raises(DimensionMismatch):
            shared_attention(
                Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 2))),
                Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 1))),
            )


class TestLambdaRescaledAttention:
    def test_single_block_is_plain_attention(self):
        rng = np.random.default_rng(17)
        q = Matrix(rng.normal(size=(3, 4)))
        k = Matrix(rng.normal(size=(5, 4)))
        v = Matrix(rng.normal(size=(5, 2)))
        out = lambda_rescaled_attention(q, [StyleBlock(k=k, v=v, weight=3.0)])
        plain, plain_w = attention(AttentionInputs(q=q, k=k, v=v))
        np.testing.assert_allclose(out.updated.data, plain.data, atol=1e-12)
        np.testing.assert_allclose(out.weights.data, plain_w.data, atol=1e-12)
        assert out.block_mass == (1.0,)

    def test_identical_blocks_equal_weights(self):
        rng = np.random.default_rng(19)
        q = Matrix(rng.normal(size=(4, 3)))
        k = Matrix(rng.normal(size=(4, 3)))
        v = Matrix(rng.normal(size=(4, 2)))
        out = lambda_rescaled_attention(
            q, [StyleBlock(k=k, v=v, weight=0.5), StyleBlock(k=k, v=v, weight=0.5)]
        )
        assert out.block_mass[0] == pytest.approx(0.5, abs=1e-12)
        assert out.block_mass[1] == pytest.approx(0.5, abs=1e-12)

    def test_one_three_weights_closed_form(self):
        # identical d=1 blocks with pre-lambda logit 1: masses are the
        # softmax of (0.25, 0.75)
        q = Matrix([[1.0]])
        k = Matrix([[1.0]])
        v = Matrix([[1.0]])
        out = lambda_rescaled_attention(
            q, [StyleBlock(k=k, v=v, weight=1.0), StyleBlock(k=k, v=v, weight=3.0)]
        )
        assert out.block_mass[0] == pytest.approx(0.37754, abs=1e-5)
        assert out.block_mass[1] == pytest.approx(0.62246, abs=1e-5)

    def test_lambdas_are_the_applied_fsum_ratios(self):
        # fsum(0.1, 0.2, 0.3) is 0.6, where the plain sum is 0.6000000000000001
        q = Matrix([[1.0]])
        blocks = [StyleBlock(k=q, v=q, weight=w) for w in (0.1, 0.2, 0.3)]
        out = lambda_rescaled_attention(q, blocks)
        assert out.lambdas == (0.16666666666666669, 0.33333333333333337, 0.5)

    def test_mass_ordering_matches_weight_ordering(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = Matrix(rng.uniform(0.2, 1.0, size=(3, 2)))
            v = Matrix(rng.normal(size=(3, 2)))
            q = Matrix(rng.uniform(0.2, 1.0, size=(4, 2)))
            weights = rng.uniform(0.1, 2.0, size=3)
            out = lambda_rescaled_attention(
                q, [StyleBlock(k=k, v=v, weight=float(w)) for w in weights]
            )
            assert np.argsort(out.block_mass).tolist() == np.argsort(weights).tolist()

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(29)
        q = Matrix(rng.normal(size=(5, 3)))
        blocks = []
        for w in (1.0, 2.0, 0.5):
            tokens = int(rng.integers(1, 4))
            blocks.append(
                StyleBlock(
                    k=Matrix(rng.normal(size=(tokens, 3))),
                    v=Matrix(rng.normal(size=(tokens, 2))),
                    weight=w,
                )
            )
        out = lambda_rescaled_attention(q, blocks)
        assert sum(out.block_mass) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(out.weights.data.sum(axis=1), 1.0, atol=1e-9)

    def test_errors(self):
        q = Matrix([[1.0]])
        with pytest.raises(EmptySet):
            lambda_rescaled_attention(q, [])
        with pytest.raises(AllZeroWeights):
            lambda_rescaled_attention(q, [StyleBlock(k=q, v=q, weight=0.0)])
        with pytest.raises(DimensionMismatch):
            lambda_rescaled_attention(q, [StyleBlock(k=Matrix([[1.0, 2.0]]), v=q, weight=1.0)])

    def test_weights_overflowing_their_sum(self):
        q = Matrix([[1.0]])
        with pytest.raises(InputError, match="style-block weights must have a finite sum, got inf"):
            lambda_rescaled_attention(q, [StyleBlock(k=q, v=q, weight=1e308)] * 2)

    def test_equals_the_per_block_arithmetic(self):
        # each block's logits on their own, lambda * einsum(q, k_i) / sqrt(d),
        # joined for one max-shifted softmax, then the einsum weighted sum and
        # each block's mean mass: joining the blocks first changes no bit
        rng = np.random.default_rng(31)
        for d in (1, 2, 3, 8, 17, 64):
            for _ in range(4):
                q = rng.normal(size=(int(rng.integers(1, 300)), d))
                ks = [rng.normal(size=(int(rng.integers(1, 200)), d)) for _ in range(int(rng.integers(1, 4)))]
                vs = [rng.normal(size=(len(k), 3)) for k in ks]
                w = rng.choice([0.0, 0.3, 1.0, 2.5], size=len(ks))
                w[rng.integers(len(ks))] = 1.0
                out = lambda_rescaled_attention(
                    Matrix(q), [StyleBlock(k=Matrix(k), v=Matrix(v), weight=float(wi)) for k, v, wi in zip(ks, vs, w)]
                )

                lambdas = [float(wi) / math.fsum(w) for wi in w]
                logits = np.concatenate(
                    [lam * (np.einsum("id,jd->ij", q, k) / math.sqrt(d)) for lam, k in zip(lambdas, ks)], axis=1
                )
                shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
                weights = shifted / shifted.sum(axis=1, keepdims=True)
                stops = np.cumsum([len(k) for k in ks]).tolist()
                masses = [float(weights[:, stop - len(k) : stop].sum(axis=1).mean()) for k, stop in zip(ks, stops)]
                assert out.lambdas == tuple(lambdas)
                assert np.array_equal(out.weights.data, weights)
                assert np.array_equal(out.updated.data, np.einsum("ij,jv->iv", weights, np.concatenate(vs)))
                assert out.block_mass == tuple(masses)


class TestOverflow:
    """Finite inputs whose logits overflow float64 raise NumericDomainError
    (exit 3), with no numpy warning on the way."""

    BIG = Matrix(np.full((5, 4), 1e200))
    OK = Matrix(np.random.default_rng(0).normal(size=(5, 4)))

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_attention(self):
        with pytest.raises(NumericDomainError, match="^attention logits overflowed float64"):
            attention(AttentionInputs(q=self.BIG, k=self.BIG, v=self.OK))

    @pytest.mark.parametrize("own", ["BIG", "OK"])
    def test_shared_attention(self, own):
        m = getattr(self, own)
        with pytest.raises(NumericDomainError, match="^attention logits overflowed float64"):
            shared_attention(m, m, m, self.BIG, self.BIG, self.BIG)

    def test_lambda_rescaled_attention(self):
        with pytest.raises(NumericDomainError, match="^attention logits overflowed float64"):
            lambda_rescaled_attention(self.BIG, [StyleBlock(k=self.BIG, v=self.BIG, weight=1.0)])

    @pytest.mark.parametrize(
        "call",
        [
            lambda spread, ok: shared_attention(spread, spread, spread, ok, ok, ok),
            lambda spread, ok: shared_attention(ok, ok, ok, spread, spread, spread),
            lambda spread, ok: adain_rows(spread, ok),
            lambda spread, ok: adain_rows(ok, spread),
            lambda spread, ok: adain(FeatureMap(spread.data), FeatureMap(ok.data)),
            lambda spread, ok: adain(FeatureMap(ok.data), FeatureMap(spread.data)),
        ],
        ids=["shared-self", "shared-ref", "adain_rows-x", "adain_rows-ref", "adain-g", "adain-s"],
    )
    def test_adain_statistics_that_overflow(self, call):
        # the squares of these entries overflow, so a std is inf, which made
        # the self tokens collapse onto the reference mean
        spread = Matrix(1e200 * np.random.default_rng(3).normal(size=(5, 4)))
        with pytest.raises(NumericDomainError, match="^AdaIN statistics overflowed float64"):
            call(spread, self.OK)

    def test_shift_to_minus_inf_is_harmless(self):
        # sigma 1e308 spreads the reference logits past float64's range; the
        # max-shift overflows only to -inf, whose weight is exactly 0
        rng = np.random.default_rng(9)
        own, ref = Matrix(rng.normal(scale=0.5, size=(4, 3))), Matrix(rng.normal(scale=0.5, size=(4, 3)))
        out = shared_attention(own, own, own, ref, ref, ref, rescale=RescaleParams(0.0, 1e308))
        assert out.ref_mass == 1.0
        assert set(out.weights.data.ravel().tolist()) == {0.0, 1.0}


def test_row_entropy():
    w = Matrix([[1.0, 0.0], [0.5, 0.5]])
    ent = row_entropy(w)
    assert ent[0] == 0.0
    assert ent[1] == pytest.approx(math.log(2.0))
