"""Training loop, cyclic schedule, checkpointing, and the model container."""

import math
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from fedvec.datasets import SplitSpec, split_by_query
from fedvec.features import ScalerParams, fit_scaler, transform
from fedvec.rng import substream
from fedvec.router import (
    _MODEL_HEADER,
    _PARAM_ORDER,
    BATCH_SIZE,
    DROPOUT_RATE,
    HIDDEN1,
    HIDDEN2,
    LN_EPS,
    LR_MAX,
    LR_MIN,
    MOMENTUM,
    EpochStats,
    RouterParams,
    TrainConfig,
    _dropout_mask,
    _sigmoid,
    backward,
    bce_with_logits,
    cyclic_lr,
    forward_cache,
    init_params,
    load_model,
    predict_batch,
    serialize_model,
    train,
)

SPLIT = SplitSpec(train_frac=0.5, val_frac=0.25, test_frac=0.25)
SEED = 5


def split_rows(features, labels, query_ids, split, seed):
    """train()'s inputs from one table of rows: the rows and labels of the
    split's train queries, then of its validation queries, each in table
    order, as `fedvec train` builds them."""
    features, labels = np.asarray(features), np.asarray(labels)
    rows = []
    for keep in split_by_query(query_ids, split, seed)[:2]:
        rows += [features[keep], labels[keep]]
    return rows


def toy_examples(n_queries=60, seed=7):
    """(features, labels, query_ids) with two rows per query, separable on
    feature 0 with a 2.0-wide margin.

    label = 1 iff the raw draw exceeded 0.8 (about a fifth of rows), then
    feature 0 is pushed a full unit away from that boundary so a linear
    cut exists for the network to find.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((2 * n_queries, 5))
    labels = (features[:, 0] > 0.8).astype(np.int64)
    features[:, 0] += np.where(labels == 1, 1.0, -1.0)
    return features, labels, np.arange(2 * n_queries) // 2


@pytest.fixture(scope="module")
def toy_result():
    config = TrainConfig(epochs=8)
    return train(*split_rows(*toy_examples(), SPLIT, SEED), config, SEED)


class TestCyclicLr:
    def test_frozen_triangle(self):
        """half_cycle 4, band [1, 3]: up 1..3 over 4 steps, back down, repeat."""
        want = {0: 1.0, 1: 1.5, 2: 2.0, 4: 3.0, 6: 2.0, 8: 1.0, 12: 3.0, 16: 1.0}
        for step, lr in want.items():
            assert cyclic_lr(step, 1.0, 3.0, 4) == pytest.approx(lr, abs=1e-12)

    def test_band_is_respected(self):
        lrs = [cyclic_lr(t, 1e-3, 5e-3, 7) for t in range(100)]
        assert min(lrs) == pytest.approx(1e-3, abs=1e-15)
        assert max(lrs) == pytest.approx(5e-3, abs=1e-15)


class TestTraining:
    def test_learns_separable_toy(self, toy_result):
        assert toy_result.history[-1].train_loss < toy_result.history[0].train_loss
        assert max(h.val_accuracy for h in toy_result.history) >= 0.9

    def test_best_checkpoint_is_earliest_max(self, toy_result):
        accs = [h.val_accuracy for h in toy_result.history]
        best = max(accs)
        assert toy_result.best_epoch == accs.index(best) + 1  # epochs are 1-based
        assert all(a < best for a in accs[: toy_result.best_epoch - 1])

    def test_history_lrs_stay_in_band(self, toy_result):
        for h in toy_result.history:
            assert 1e-3 <= h.lr_start <= 5e-3
            assert 1e-3 <= h.lr_end <= 5e-3

    def test_checkpointed_model_predicts_labels(self, toy_result):
        features, labels, qids = toy_examples()
        _, _, in_test = split_by_query(qids, SPLIT, SEED)
        probs = predict_batch(toy_result.model, features[in_test])
        assert np.mean((probs >= 0.5) == (labels[in_test] == 1)) >= 0.9

    def test_bitwise_deterministic(self, toy_result):
        again = train(
            *split_rows(*toy_examples(), SPLIT, SEED),
            TrainConfig(epochs=8),
            SEED,
        )
        assert again.history == toy_result.history
        assert serialize_model(again.model) == serialize_model(toy_result.model)

    def test_input_validation(self):
        cfg = TrainConfig(epochs=2)
        rows = split_rows(*toy_examples(), SPLIT, SEED)
        x_tr, y_tr, x_val, y_val = rows
        with pytest.raises(ValueError, match="feature rows"):
            train([], [], [], [], cfg, SEED)
        with pytest.raises(ValueError, match="feature rows"):
            train(x_tr, y_tr, x_val[:, 1:], y_val, cfg, SEED)
        with pytest.raises(ValueError, match="feature rows"):
            train(x_tr, y_tr[1:], x_val, y_val, cfg, SEED)
        for labels in ((2 * y_tr, y_val), (y_tr, y_val - 1)):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                train(x_tr, labels[0], x_val, labels[1], cfg, SEED)
        with pytest.raises(ValueError, match="positive"):
            train(*rows, TrainConfig(epochs=0), SEED)
        with pytest.raises(ValueError, match="training split is empty"):
            train(*split_rows(*toy_examples(), SplitSpec(0.0, 0.5, 0.5), SEED), cfg, SEED)
        with pytest.raises(ValueError, match="validation split is empty"):
            train(*split_rows(*toy_examples(), SplitSpec(0.9, 0.0, 0.1), SEED), cfg, SEED)
        single = np.repeat(np.arange(12.0)[:, None], 4, axis=1)
        with pytest.raises(ValueError, match="single class"):
            train(*split_rows(single, np.ones(12), np.arange(12), SplitSpec(0.5, 0.25, 0.25), 0),
                  cfg, 0)


def floor_examples(n_queries=300, seed=11):
    """(features, labels, query_ids) with three rows per query: v, -v and 0
    for small-integer v. Every sum is exact, so any split's column means are
    exactly 0 and the zero rows standardize to exactly 0; their first-layer
    pre-activation is then b1, whose variance starts under the layer-norm
    floor, so backward sees rows with the variance term switched off."""
    rng = np.random.default_rng(seed)
    v = rng.integers(-3, 4, size=(n_queries, 6)).astype(np.float64)
    features = np.stack([v, -v, np.zeros_like(v)], axis=1).reshape(-1, 6)
    labels = (features[:, 0] + features[:, 1] > 1).astype(np.int64)
    labels[2::3] = rng.integers(0, 2, size=n_queries)
    return features, labels, np.arange(3 * n_queries) // 3


def reference_train(features, labels, query_ids, split, config, seed):
    """train() as a plain loop in float32: the standardized splits and the
    initial parameters cast once, masks drawn as float32, fresh arrays every
    step, momentum array by array, validation through one forward_cache over
    all validation rows. Returns (best params as float32, history, best
    epoch, floored training rows seen)."""
    raw_tr, y_tr, raw_val, y_val = split_rows(features, labels.astype(np.float64), query_ids,
                                              split, seed)
    scaler = fit_scaler(raw_tr)
    x_tr = transform(scaler, raw_tr).astype(np.float32)
    x_val = transform(scaler, raw_val).astype(np.float32)
    n_pos = y_tr.sum()
    pos_weight = (len(y_tr) - n_pos) / n_pos

    init = init_params(x_tr.shape[1], substream(seed, "init"))
    params = RouterParams(**{name: getattr(init, name).astype(np.float32) for name in _PARAM_ORDER})
    floor = np.float32(1) / np.sqrt(np.float32(LN_EPS))
    shuffle_rng = substream(seed, "shuffle")
    dropout_rng = substream(seed, "dropout")
    velocity = {name: np.zeros_like(getattr(params, name)) for name in _PARAM_ORDER}
    half_cycle = 2 * math.ceil(len(x_tr) / BATCH_SIZE)
    history, best_acc, best_epoch, best_params = [], -1.0, 0, params.copy()
    floored, step = 0, 0
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_rng.permutation(len(x_tr))
        lr_start = cyclic_lr(step, LR_MIN, LR_MAX, half_cycle)
        loss_sum = 0.0
        for lo in range(0, len(x_tr), BATCH_SIZE):
            batch = perm[lo : lo + BATCH_SIZE]
            lr = cyclic_lr(step, LR_MIN, LR_MAX, half_cycle)
            masks = tuple(
                _dropout_mask((len(batch), h), DROPOUT_RATE, dropout_rng, np.float32)
                for h in (HIDDEN1, HIDDEN2)
            )
            cache = forward_cache(params, x_tr[batch], masks)
            assert cache.m1.dtype == np.float32
            floored += int(np.sum(cache.inv1 == floor))
            loss_sum += bce_with_logits(cache.logits, y_tr[batch], pos_weight) * len(batch)
            grads = backward(params, cache, y_tr[batch], pos_weight)
            for name in _PARAM_ORDER:
                v = velocity[name]
                v *= MOMENTUM
                v += getattr(grads, name)
                getattr(params, name)[...] -= lr * v
            step += 1
        lr_end = cyclic_lr(step - 1, LR_MIN, LR_MAX, half_cycle)
        val_logits = forward_cache(params, x_val).logits
        val_acc = float(np.mean((val_logits >= 0.0) == (y_val == 1.0)))
        history.append(EpochStats(epoch, loss_sum / len(x_tr), val_acc, lr_start, lr_end))
        if val_acc > best_acc:
            best_acc, best_epoch, best_params = val_acc, epoch, params.copy()
    return best_params, history, best_epoch, floored


class TestPrecisionSplit:
    def test_model_is_float64_upcast_with_float64_inference(self, toy_result):
        """Training runs in float32, but the model it returns holds float64
        arrays that are exact float32 values, and predict_batch on them runs
        the float64 forward: the bits of a hand-rolled float64 pass."""
        params = toy_result.model.params
        for name in _PARAM_ORDER:
            arr = getattr(params, name)
            assert arr.dtype == np.float64, name
            assert np.array_equal(arr.astype(np.float32).astype(np.float64), arr), name

        def norm_relu(a, gain, bias):
            xh = (a - a.mean(axis=1, keepdims=True)) * (
                1.0 / np.sqrt(np.maximum(a.var(axis=1, keepdims=True), LN_EPS))
            )
            return np.maximum(xh * gain + bias, 0.0)

        features, _, _ = toy_examples()
        scaler = toy_result.model.scaler
        x = (features - scaler.mean) / scaler.std
        h1 = norm_relu(x @ params.w1 + params.b1, params.ln_g1, params.ln_b1)
        h2 = norm_relu(h1 @ params.w2 + params.b2, params.ln_g2, params.ln_b2)
        logits = (h2 @ params.w3)[:, 0] + params.b3
        probs = predict_batch(toy_result.model, features)
        assert probs.dtype == np.float64
        assert probs.tobytes() == _sigmoid(logits).tobytes()


class TestReusedBuffers:
    def test_train_equals_plain_reference_loop(self):
        """Reused step buffers, flat momentum and blocked validation change no
        bit. The toy has dropout, a short last batch (360 training rows make
        batches of 128, 128 and 104), variance-floored rows and two
        validation blocks."""
        data = floor_examples()
        split = SplitSpec(0.4, 0.4, 0.2)
        config = TrainConfig(epochs=5)
        params, history, best_epoch, floored = reference_train(*data, split, config, 3)
        assert floored > 0

        result = train(*split_rows(*data, split, 3), config, 3)
        assert result.history == history
        assert result.best_epoch == best_epoch
        for name in _PARAM_ORDER:
            got = getattr(result.model.params, name)
            assert got.astype(np.float32).tobytes() == getattr(params, name).tobytes(), name

    def test_traced_peak_is_bounded_by_the_feature_matrix(self):
        """train() holds float32 standardized copies of the two splits (half
        their bytes) and a few batch- or block-sized buffers, never
        activations for every validation row.

        The shapes are the default pipeline's: 2000 questions x 10 shards x
        67 features, of which the train and validation splits hold 6000 and
        2000 rows (4.1 MiB together). Measured traced peaks with float32
        training: 3.90x the two split matrices when validation runs one
        block over all its rows (2000 x 256 floats per hidden array), 1.33x
        with the blocked inference. A bound of 2x sits between them with
        about 0.7x (2.7 MiB) of headroom below it.
        """
        rng = np.random.default_rng(0)
        features = rng.standard_normal((20000, 67))
        labels = (features[:, 0] > 0.8).astype(np.int64)
        rows = split_rows(features, labels, np.arange(20000) // 10, SplitSpec(), 1)
        assert len(rows[2]) >= 2000
        splits = rows[0].nbytes + rows[2].nbytes
        tracemalloc.start()
        try:
            train(*rows, TrainConfig(epochs=1), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * splits, f"{peak / splits:.2f}x the two split matrices"


class TestModelFile:
    def test_round_trip(self, toy_result, tmp_path):
        path = tmp_path / "router.rrm"
        path.write_bytes(serialize_model(toy_result.model))
        back = load_model(path)
        m = toy_result.model
        assert _MODEL_HEADER.unpack_from(path.read_bytes())[6] == 0.2  # the dropout slot
        assert back.threshold == m.threshold
        assert back.seed == m.seed
        np.testing.assert_array_equal(back.scaler.mean, m.scaler.mean)
        np.testing.assert_array_equal(back.scaler.std, m.scaler.std)
        for name in ("w1", "b1", "ln_g1", "ln_b1", "w2", "b2", "ln_g2",
                     "ln_b2", "w3", "b3"):
            np.testing.assert_array_equal(getattr(back.params, name),
                                          getattr(m.params, name))

    def test_resave_is_byte_identical(self, toy_result, tmp_path):
        path = tmp_path / "router.rrm"
        path.write_bytes(serialize_model(toy_result.model))
        assert serialize_model(load_model(path)) == path.read_bytes()

    def test_bad_magic(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[:4] = b"NOPE"
        path = tmp_path / "bad.rrm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="bad magic"):
            load_model(path)

    def test_unsupported_version(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[4:8] = struct.pack("<I", 2)
        path = tmp_path / "v2.rrm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_stored_d_must_match_input_dim(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[12:16] = struct.pack("<I", 99)  # d; input_dim stays 5
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
        path = tmp_path / "d.rrm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="stored d 99"):
            load_model(path)

    def test_flipped_payload_byte_fails_checksum(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[len(raw) // 2] ^= 0xFF
        path = tmp_path / "flip.rrm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_model(path)

    def test_truncation(self, toy_result, tmp_path):
        raw = serialize_model(toy_result.model)
        for cut in (10, len(raw) // 2, len(raw) - 1):
            path = tmp_path / f"cut{cut}.rrm"
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                load_model(path)

    def test_non_finite_values_rejected(self, toy_result, tmp_path):
        """A checksummed file whose arrays or threshold hold inf or NaN is no
        model: route would turn NaN probabilities into argmax fallbacks."""
        model = toy_result.model
        cases = {"w1": (0, 0, np.inf), "b3": (0, np.nan), "mean": (1, -np.inf)}
        for name, (*index, value) in cases.items():
            params = model.params.copy()
            scaler = ScalerParams(model.scaler.mean.copy(), model.scaler.std.copy())
            arr = scaler.mean if name == "mean" else getattr(params, name)
            arr[tuple(index)] = value
            path = tmp_path / f"{name}.rrm"
            path.write_bytes(serialize_model(replace(model, params=params, scaler=scaler)))
            with pytest.raises(ValueError, match="non-finite"):
                load_model(path)
        path = tmp_path / "threshold.rrm"
        path.write_bytes(serialize_model(replace(model, threshold=float("nan"))))
        with pytest.raises(ValueError, match="non-finite"):
            load_model(path)
