"""Analytic gradients vs central finite differences, plus frozen loss grads.

Frozen constants (mpmath, 50 digits):
    sigmoid(2)   = 0.88079707797788231
    sigmoid(0)   = 0.5
"""

import numpy as np
import pytest

from fedvec.router import (
    LN_EPS,
    _PARAM_ORDER,
    _dropout_mask,
    _layer_norm_backward,
    _loss_grad_logits,
    _normalizer,
    backward,
    bce_with_logits,
    forward_cache,
    init_params,
)

FD_STEP = 1e-4


def loss_at(params, x, y, pos_weight, masks):
    cache = forward_cache(params, x, masks)
    return bce_with_logits(cache.logits, y, pos_weight)


def numeric_grad(params, x, y, pos_weight, masks, name, flat_idx, h=FD_STEP):
    """Central difference through the full loss for one parameter entry."""
    out = []
    for sign in (+1.0, -1.0):
        p = params.copy()
        arr = getattr(p, name)
        arr.flat[flat_idx] += sign * h
        out.append(loss_at(p, x, y, pos_weight, masks))
    return (out[0] - out[1]) / (2.0 * h)


def rel_err(a, b):
    denom = max(abs(a), abs(b))
    if denom < 1e-12:  # both effectively zero, nothing to compare
        return 0.0
    return abs(a - b) / denom


def max_rel_err(params, x, y, pos_weight, masks, probes_per_array, seed, h=FD_STEP):
    cache = forward_cache(params, x, masks)
    grads = backward(params, cache, y, pos_weight)
    pick = np.random.default_rng(seed)
    worst = 0.0
    for name in _PARAM_ORDER:
        analytic = getattr(grads, name)
        idxs = pick.choice(analytic.size, size=min(probes_per_array, analytic.size),
                           replace=False)
        for flat_idx in idxs:
            fd = numeric_grad(params, x, y, pos_weight, masks, name, flat_idx, h)
            worst = max(worst, rel_err(fd, analytic.flat[flat_idx]))
    return worst


class TestFiniteDifferences:
    def test_eval_mode_all_arrays(self):
        rng = np.random.default_rng(3)
        params = init_params(6, rng)
        x = rng.standard_normal((8, 6))
        y = (rng.random(8) < 0.4).astype(np.float64)
        assert max_rel_err(params, x, y, 1.0, None, probes_per_array=6, seed=0) < 1e-6

    def test_pinned_dropout_masks(self):
        rng = np.random.default_rng(9)
        params = init_params(5, rng)
        x = rng.standard_normal((6, 5))
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        masks = (
            _dropout_mask((6, 256), 0.4, rng),
            _dropout_mask((6, 128), 0.4, rng),
        )
        assert max_rel_err(params, x, y, 1.0, masks, probes_per_array=5, seed=1) < 1e-6

    def test_pos_weight_flows_through(self):
        rng = np.random.default_rng(17)
        params = init_params(4, rng)
        x = rng.standard_normal((7, 4))
        y = (rng.random(7) < 0.5).astype(np.float64)
        assert max_rel_err(params, x, y, 3.7, None, probes_per_array=4, seed=2) < 1e-6

    def test_variance_floored_rows(self):
        """First-layer rows get variance strictly inside (0, eps): the floor
        is active while xhat is nonzero, which is exactly where a missing
        clamp gate in the backward pass would show up (the variance term
        must NOT flow, since inv is a constant there).

        Scaling w1 down to 1e-4 keeps every row variance ~x^2 * 1e-8, the
        ReLU inputs sit at 0.3 +- 0.25 (layer 1) and above 0.2 (layer 2), so
        no probe can cross a kink. The floored normalizer amplifies probes by
        1/sqrt(eps) ~ 316, so the step is shrunk to 1e-5 to keep finite
        difference truncation below the 1e-5 bar; a wrongly live variance
        term would sit around 4e-3.
        """
        rng = np.random.default_rng(23)
        params = init_params(3, rng)
        params.w1[:] = 1e-4 * rng.standard_normal(params.w1.shape)
        params.b1[:] = 0.25
        params.ln_b1[:] = 0.3
        params.ln_g2[:] = 0.05  # squash xh2 so n2 = 0.05*xh2 + 1.0 stays > 0.2
        params.ln_b2[:] = 1.0
        x = rng.standard_normal((5, 3))
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        cache = forward_cache(params, x)
        row_var = cache.a1.var(axis=1)
        assert np.all((row_var > 0.0) & (row_var < LN_EPS))
        assert np.all(cache.inv1 == 1.0 / np.sqrt(LN_EPS))
        assert np.all(np.abs(cache.xh1) > 0.0)  # floor active with xhat != 0
        assert np.all(cache.inv2 < 1.0 / np.sqrt(LN_EPS))  # layer 2 unclamped
        assert cache.n1.min() > 0.05 and cache.n2.min() > 0.2
        worst = max_rel_err(params, x, y, 1.0, None, probes_per_array=4, seed=3,
                            h=1e-5)
        assert worst < 1e-5


class TestLayerNormFloor:
    def test_floor_test_is_exact_in_float32(self):
        """In float32 a floored row's normalizer is 316.22778, and a row
        whose variance is one float32 step above eps gets 316.22775, which is
        also 1/sqrt(eps) rounded to float32: the floor test must compare with
        the former. Rows: constant (var 0), inside the floor (var eps/4), and
        one step above eps; only the last is live."""
        eps = np.float32(LN_EPS)
        var = np.array([[0.0], [eps / 4], [np.nextafter(eps, np.float32(1.0))]], np.float32)
        inv = _normalizer(var.copy())
        assert inv[1, 0] == inv[0, 0] != inv[2, 0]
        rng = np.random.default_rng(4)
        xh = rng.standard_normal((3, 8)).astype(np.float32)
        xh[0] = 0.0
        dxh = rng.standard_normal((3, 8)).astype(np.float32)
        got = dxh.copy()
        _layer_norm_backward(got, xh, inv)

        x64, d64, i64 = (a.astype(np.float64) for a in (xh, dxh, inv))
        want = (d64 - d64.mean(axis=1, keepdims=True)) * i64
        term = x64 * (d64 * x64).mean(axis=1, keepdims=True) * i64
        # The variance term dwarfs the tolerance on rows 1 and 2, so the
        # comparison sees which rows take it: rows 0-1 are floored, row 2 live.
        assert np.abs(term[1:]).max(axis=1).min() > 1.0
        want[2] -= term[2]
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-3)


class TestLossGradient:
    def test_frozen_worked_example(self):
        """logits [0, 2], labels [1, 0], pos_weight 3, batch 2:
        dz = [-3*sigmoid(0)/2, sigmoid(2)/2]."""
        dz = _loss_grad_logits(np.array([0.0, 2.0]), np.array([1.0, 0.0]), 3.0)
        np.testing.assert_allclose(
            dz, [-0.75, 0.44039853898894116], rtol=0.0, atol=1e-15
        )

    def test_matches_fd_on_logits(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal(12) * 2.0
        y = (rng.random(12) < 0.5).astype(np.float64)
        dz = _loss_grad_logits(z, y, 2.2)
        for i in range(12):
            zp, zm = z.copy(), z.copy()
            zp[i] += FD_STEP
            zm[i] -= FD_STEP
            fd = (bce_with_logits(zp, y, 2.2) - bce_with_logits(zm, y, 2.2)) / (
                2.0 * FD_STEP
            )
            assert rel_err(fd, dz[i]) < 1e-7
