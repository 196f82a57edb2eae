"""Forward pass and loss: frozen values, stability, layer-norm behaviour.

Frozen constants were computed with mpmath at 50 digits:
    ln 2            = 0.69314718055994530942
    3*softplus(-2)  = 0.38078403312891748933
"""

import math

import numpy as np
import pytest

from fedvec.features import ScalerParams
from fedvec.router import (
    _PARAM_ORDER,
    HIDDEN1,
    HIDDEN2,
    LN_EPS,
    RouterModel,
    RouterParams,
    _dropout_mask,
    bce_with_logits,
    forward,
    forward_cache,
    init_params,
    predict_batch,
    _sigmoid,
)
from fedvec.rng import substream

LN2 = 0.6931471805599453


def zero_params(input_dim: int) -> RouterParams:
    """All weights and gains zero: the network is constant."""
    return RouterParams(
        w1=np.zeros((input_dim, HIDDEN1)),
        b1=np.zeros(HIDDEN1),
        ln_g1=np.zeros(HIDDEN1),
        ln_b1=np.zeros(HIDDEN1),
        w2=np.zeros((HIDDEN1, HIDDEN2)),
        b2=np.zeros(HIDDEN2),
        ln_g2=np.zeros(HIDDEN2),
        ln_b2=np.zeros(HIDDEN2),
        w3=np.zeros((HIDDEN2, 1)),
        b3=np.zeros(1),
    )


class TestForward:
    def test_zero_network_gives_logit_zero(self):
        x = np.random.default_rng(42).standard_normal((4, 7))
        logits = forward(zero_params(7), x)
        np.testing.assert_array_equal(logits, np.zeros(4))
        np.testing.assert_array_equal(_sigmoid(logits), np.full(4, 0.5))

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(42)
        params = init_params(11, rng)
        x = rng.standard_normal((8, 11))
        np.testing.assert_array_equal(forward(params, x), forward(params, x))

    def test_dropout_deterministic_under_seed(self):
        rng = np.random.default_rng(42)
        params = init_params(9, rng)
        x = rng.standard_normal((5, 9))

        def logits(seed):
            stream = substream(seed, "dropout")
            masks = tuple(_dropout_mask((5, h), 0.5, stream) for h in (HIDDEN1, HIDDEN2))
            return forward_cache(params, x, masks).logits

        a, b, c = (logits(s) for s in (3, 3, 4))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_blocked_eval_equals_one_block_forward(self):
        """Eval mode runs rows in blocks; whatever the row count, its logits
        have the bits of one forward_cache over all the rows."""
        rng = np.random.default_rng(5)
        params = init_params(67, rng)
        for name in _PARAM_ORDER:  # off the init's zero biases and unit gains
            arr = getattr(params, name)
            arr += 0.1 * rng.standard_normal(arr.shape)
        for n in (1, 7, 127, 255, 256, 257, 2000, 2001):
            x = rng.standard_normal((n, 67))
            assert forward(params, x).tobytes() == forward_cache(params, x).logits.tobytes(), n

    def test_stacked_sets_have_their_own_bits(self):
        """predict_batch on a (q, n, f) stack gives each set the bits of its
        own (n, f) call: no GEMM mixes two sets, and every other step is
        row-wise. n covers empty sets, one row, small sets grouped several
        to a piece, and sets of one and of two GEMM blocks."""
        rng = np.random.default_rng(9)
        params = init_params(23, rng)
        for name in _PARAM_ORDER:
            arr = getattr(params, name)
            arr += 0.1 * rng.standard_normal(arr.shape)
        model = RouterModel(params, ScalerParams(rng.standard_normal(23), 0.5 + rng.random(23)),
                            threshold=0.5, seed=0)
        for n in (0, 1, 10, 40, 255, 256, 300):
            stack = 2.0 * rng.standard_normal((7, n, 23))
            probs = predict_batch(model, stack)
            assert probs.shape == (7, n)
            for s in range(7):
                assert probs[s].tobytes() == predict_batch(model, stack[s]).tobytes(), (n, s)

    def test_layer_norm_normalizes_pre_affine(self):
        """xhat rows must have mean ~0 and population variance exactly ~1.

        The eps floor leaves the normalizer untouched whenever the row
        variance clears 1e-5, so nothing skews the result here.
        """
        rng = np.random.default_rng(42)
        params = init_params(13, rng)
        cache = forward_cache(params, rng.standard_normal((16, 13)))
        for a, xh in ((cache.a1, cache.xh1), (cache.a2, cache.xh2)):
            assert a.var(axis=1).min() > LN_EPS  # floor inactive on this data
            np.testing.assert_allclose(xh.mean(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(xh.var(axis=1), 1.0, atol=1e-12)

    def test_layer_norm_floor_keeps_constant_rows_finite(self):
        """A constant pre-activation row has variance 0 < eps; the floored
        normalizer maps it to all zeros instead of dividing by ~0."""
        params = zero_params(4)
        cache = forward_cache(params, np.ones((3, 4)))
        assert np.all(np.isfinite(cache.xh1))
        np.testing.assert_array_equal(cache.xh1, np.zeros_like(cache.xh1))
        np.testing.assert_allclose(cache.inv1, 1.0 / np.sqrt(LN_EPS))

    def test_shape_validation(self):
        params = init_params(5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="input"):
            forward(params, np.zeros((2, 6)))

    def test_rejects_non_finite_input(self):
        params = init_params(5, np.random.default_rng(0))
        x = np.zeros((2, 5))
        x[1, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, x)

    def test_init_is_seed_deterministic_and_bounded(self):
        a = init_params(7, substream(5, "init"))
        b = init_params(7, substream(5, "init"))
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w3, b.w3)
        bound = np.sqrt(6.0 / (7 + HIDDEN1))
        assert np.abs(a.w1).max() <= bound
        np.testing.assert_array_equal(a.ln_g1, np.ones(HIDDEN1))
        np.testing.assert_array_equal(a.b1, np.zeros(HIDDEN1))

    def test_logit_matches_hand_rolled_recomputation(self):
        """Step-by-step scalar recomputation of the whole eval forward pass.

        Plain Python floats and explicit loops, no numpy in the oracle, so
        a vectorization bug cannot hide in both sides. Summation order
        differs from BLAS, hence the 1e-10 (not 1e-15) tolerance.
        """

        def affine(vec, w, b):
            return [
                sum(vec[i] * w[i][j] for i in range(len(vec))) + b[j]
                for j in range(len(b))
            ]

        def norm_relu(vec, gain, bias):
            h = len(vec)
            mu = sum(vec) / h
            var = sum((v - mu) ** 2 for v in vec) / h
            inv = 1.0 / math.sqrt(max(var, LN_EPS))
            out = []
            for j in range(h):
                n = gain[j] * ((vec[j] - mu) * inv) + bias[j]
                out.append(n if n > 0.0 else 0.0)
            return out

        rng = np.random.default_rng(11)
        params = init_params(2, rng)
        x = rng.standard_normal((3, 2))
        logits = forward(params, x)
        p = {f: getattr(params, f).tolist() for f in (
            "w1", "b1", "ln_g1", "ln_b1", "w2", "b2", "ln_g2", "ln_b2", "w3", "b3")}
        for r in range(3):
            h1 = norm_relu(affine(x[r].tolist(), p["w1"], p["b1"]),
                           p["ln_g1"], p["ln_b1"])
            h2 = norm_relu(affine(h1, p["w2"], p["b2"]), p["ln_g2"], p["ln_b2"])
            want = sum(h2[j] * p["w3"][j][0] for j in range(len(h2))) + p["b3"][0]
            assert abs(logits[r] - want) < 1e-10


class TestLoss:
    def test_logit_zero_label_one(self):
        assert bce_with_logits(np.array([0.0]), np.array([1.0])) == pytest.approx(
            LN2, abs=1e-15
        )

    def test_pos_weight_worked_example(self):
        """logit 2, label 1, pos_weight 3 -> 3*softplus(-2)."""
        loss = bce_with_logits(np.array([2.0]), np.array([1.0]), pos_weight=3.0)
        assert loss == pytest.approx(0.3807840331289175, abs=1e-15)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([500.0, -500.0, 500.0, -500.0])
        labels = np.array([1.0, 0.0, 0.0, 1.0])
        loss = bce_with_logits(logits, labels, pos_weight=2.0)
        assert np.isfinite(loss)
        # the two confidently-correct terms contribute ~0; wrong ones ~500
        assert loss == pytest.approx((0.0 + 0.0 + 500.0 + 2.0 * 500.0) / 4, rel=1e-12)

    def test_mean_over_batch(self):
        logits = np.array([0.0, 0.0])
        labels = np.array([1.0, 0.0])
        assert bce_with_logits(logits, labels) == pytest.approx(LN2, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_with_logits(np.zeros(2), np.zeros(3))

    def test_sigmoid_matches_two_branch_reference(self):
        """_sigmoid against the masked two-branch form it replaced, bit for
        bit, at signed zeros, tiny, saturating and extreme logits."""

        def reference(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        edges = [0.0, 1e-300, 36.0, 745.0, 1e308, np.inf, np.nan]
        z = np.array(edges + [-v for v in edges])
        mild = np.random.default_rng(3).normal(0.0, 20.0, size=300)
        for logits in (z, mild, mild.astype(np.float32)):
            got = _sigmoid(logits)
            assert got.dtype == logits.dtype
            assert got.tobytes() == reference(logits).tobytes()

    def test_matches_naive_formula_where_stable(self):
        """Against the textbook -y*log(p) - (1-y)*log(1-p) on mild logits."""
        rng = np.random.default_rng(42)
        logits = rng.normal(0.0, 3.0, size=200)
        labels = (rng.random(200) < 0.4).astype(float)
        p = 1.0 / (1.0 + np.exp(-logits))
        naive = np.mean(-2.5 * labels * np.log(p) - (1 - labels) * np.log(1 - p))
        assert bce_with_logits(logits, labels, 2.5) == pytest.approx(naive, rel=1e-12)
