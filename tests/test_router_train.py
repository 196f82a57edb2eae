"""Training loop, cyclic schedule, checkpointing, and the model container."""

import struct
import zlib
from collections import Counter

import numpy as np
import pytest

from fedvec.datasets import SplitSpec, split_by_query
from fedvec.router import (
    ModelFormatError,
    TrainConfig,
    cyclic_lr,
    load_model,
    predict_batch,
    save_model,
    serialize_model,
    train,
)

SPLIT = SplitSpec(train_frac=0.5, val_frac=0.25, test_frac=0.25, seed=3)


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
    config = TrainConfig(epochs=8, batch_size=16, dropout_rate=0.1, seed=5)
    return train(*toy_examples(), SPLIT, config)


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
        _, _, test_q = split_by_query(qids, SPLIT)
        in_test = np.isin(qids, sorted(test_q))
        probs = predict_batch(toy_result.model, features[in_test])
        assert np.mean((probs >= 0.5) == (labels[in_test] == 1)) >= 0.9

    def test_bitwise_deterministic(self, toy_result):
        again = train(
            *toy_examples(), SPLIT, TrainConfig(epochs=8, batch_size=16,
                                               dropout_rate=0.1, seed=5)
        )
        assert again.history == toy_result.history
        assert serialize_model(again.model) == serialize_model(toy_result.model)

    def test_default_pos_weight_equals_neg_over_pos(self, toy_result):
        """pos_weight=None must train identically to passing the train-split
        negative/positive ratio explicitly, recounted here by hand."""
        features, labels, qids = toy_examples()
        train_q, _, _ = split_by_query(qids, SPLIT)
        counts = Counter(labels[np.isin(qids, sorted(train_q))].tolist())
        explicit = train(
            features,
            labels,
            qids,
            SPLIT,
            TrainConfig(epochs=8, batch_size=16, dropout_rate=0.1, seed=5,
                        pos_weight=counts[0] / counts[1]),
        )
        assert serialize_model(explicit.model) == serialize_model(toy_result.model)

    def test_input_validation(self):
        cfg = TrainConfig(epochs=2, batch_size=8)
        with pytest.raises(ValueError, match="no training examples"):
            train([], [], [], SPLIT, cfg)
        with pytest.raises(ValueError, match="positive"):
            train(*toy_examples(), SPLIT, TrainConfig(epochs=0))
        with pytest.raises(ValueError, match="dropout"):
            train(*toy_examples(), SPLIT, TrainConfig(dropout_rate=1.0))
        with pytest.raises(ValueError, match="lr_min"):
            train(*toy_examples(), SPLIT, TrainConfig(lr_min=0.0))
        with pytest.raises(ValueError, match="validation split is empty"):
            train(*toy_examples(), SplitSpec(0.9, 0.0, 0.1, seed=3), cfg)
        single = np.repeat(np.arange(12.0)[:, None], 4, axis=1)
        with pytest.raises(ValueError, match="single class"):
            train(single, np.ones(12), np.arange(12), SplitSpec(0.5, 0.25, 0.25, seed=0), cfg)


class TestModelFile:
    def test_round_trip(self, toy_result, tmp_path):
        path = tmp_path / "router.rrm"
        save_model(toy_result.model, path)
        back = load_model(path)
        m = toy_result.model
        assert back.dropout_rate == m.dropout_rate
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
        save_model(toy_result.model, path)
        assert serialize_model(load_model(path)) == path.read_bytes()

    def test_bad_magic(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[:4] = b"NOPE"
        path = tmp_path / "bad.rrm"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_model(path)

    def test_unsupported_version(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[4:8] = struct.pack("<I", 2)
        path = tmp_path / "v2.rrm"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_stored_d_must_match_input_dim(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[12:16] = struct.pack("<I", 99)  # d; input_dim stays 5
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
        path = tmp_path / "d.rrm"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="stored d 99"):
            load_model(path)

    def test_flipped_payload_byte_fails_checksum(self, toy_result, tmp_path):
        raw = bytearray(serialize_model(toy_result.model))
        raw[len(raw) // 2] ^= 0xFF
        path = tmp_path / "flip.rrm"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="checksum mismatch"):
            load_model(path)

    def test_truncation(self, toy_result, tmp_path):
        raw = serialize_model(toy_result.model)
        for cut in (10, len(raw) // 2, len(raw) - 1):
            path = tmp_path / f"cut{cut}.rrm"
            path.write_bytes(raw[:cut])
            with pytest.raises(ModelFormatError):
                load_model(path)
