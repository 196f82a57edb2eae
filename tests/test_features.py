"""Feature assembly layout and scaler behaviour."""

import numpy as np
import pytest

from fedvec.features import (
    STD_FLOOR,
    ScalerParams,
    ShardTable,
    assemble_features,
    feature_dim,
    feature_rows,
    fit_scaler,
    transform,
)
from fedvec.router import RouterModel, init_params, load_model, serialize_model
from fedvec.store import ShardStats, shard_stats


class TestAssembleFeatures:
    def test_layout_worked_example(self):
        """d=2: [query | centroid | dist | count | density], length 7."""
        stats = ShardStats(centroid=np.array([3.0, 4.0]), count=2, density=0.2)
        row = assemble_features(np.array([0.0, 0.0]), stats)
        np.testing.assert_array_equal(row, [0.0, 0.0, 3.0, 4.0, 25.0, 2.0, 0.2])
        assert row.shape == (feature_dim(2),)

    def test_random_dim32_slots(self):
        """Each slot recomputed independently of assemble_features."""
        rng = np.random.default_rng(42)
        members = rng.standard_normal((40, 32))
        stats = shard_stats(members)
        query = rng.standard_normal(32)
        row = assemble_features(query, stats)

        assert row.shape == (67,)
        np.testing.assert_array_equal(row[:32], query)
        np.testing.assert_array_equal(row[32:64], stats.centroid)
        diff = query - stats.centroid
        assert row[64] == pytest.approx(float(diff @ diff), rel=1e-15)
        assert row[65] == 40.0
        assert row[66] == stats.density

    def test_rejects_matrix_query(self):
        stats = ShardStats(centroid=np.zeros(2), count=1, density=1.0)
        with pytest.raises(ValueError):
            assemble_features(np.zeros((2, 2)), stats)

    def test_rows_need_shards_of_one_dim(self):
        """No shards, or centroids of different lengths, is a ValueError."""
        stats = [ShardStats(np.zeros(2), 1, 1.0), ShardStats(np.zeros(3), 1, 1.0)]
        for shards in ([], stats):
            with pytest.raises(ValueError):
                feature_rows(np.zeros((1, 2)), shards)


class TestScaler:
    def test_two_row_example(self):
        """Rows [0],[2]: mean 1, population std 1 (not the sample 1.414)."""
        params = fit_scaler(np.array([[0.0], [2.0]]))
        assert params.mean[0] == 1.0
        assert params.std[0] == 1.0

    def test_constant_column_floored(self):
        rows = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        params = fit_scaler(rows)
        assert params.std[0] == STD_FLOOR
        out = transform(params, rows)
        np.testing.assert_array_equal(out[:, 0], np.zeros(5))

    def test_standardized_moments(self):
        rng = np.random.default_rng(42)
        rows = rng.normal(5.0, 3.0, size=(400, 7))
        out = transform(fit_scaler(rows), rows)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_single_row_transform_shape(self):
        rows = np.random.default_rng(1).standard_normal((10, 4))
        params = fit_scaler(rows)
        assert transform(params, rows[0]).shape == (4,)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_scaler(np.ones((1, 3)))

    def test_width_mismatch(self):
        params = ScalerParams(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(ValueError):
            transform(params, np.zeros(4))


def random_stats(n_shards, dim, rng):
    """Shards of 3..9 members around spread-out centers."""
    return [shard_stats(rng.normal(5.0 * rng.standard_normal(dim), 1.0, (rng.integers(3, 10), dim)))
            for _ in range(n_shards)]


class TestShardTable:
    @pytest.mark.parametrize("n_shards", [5, 260])
    def test_rows_are_transform_of_feature_rows(self, n_shards):
        """The table's rows have the bits of standardizing feature_rows, for
        one query and for stacks of 7 and 25, over a few shards and over 260,
        which forward splits into two blocks per set."""
        rng = np.random.default_rng(n_shards)
        stats = random_stats(n_shards, 6, rng)
        scaler = fit_scaler(feature_rows(rng.normal(0.0, 5.0, (9, 6)), stats).reshape(-1, 15))
        table = ShardTable(scaler, stats)
        for n_q in (1, 7, 25):
            queries = rng.normal(0.0, 5.0, (n_q, 6))
            got = table.rows(queries)
            assert got.shape == (n_q, n_shards, 15)
            assert got.tobytes() == transform(scaler, feature_rows(queries, stats)).tobytes(), n_q

    def test_rows_reject_non_finite_queries_and_distances(self):
        stats = random_stats(3, 2, np.random.default_rng(2))
        table = ShardTable(ScalerParams(np.zeros(7), np.ones(7)), stats)
        for bad in ([np.nan, 0.0], [1e200, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="non-finite"):
                table.rows(np.array([[0.0, 1.0], bad]))
        with pytest.raises(ValueError, match="do not match"):
            table.rows(np.zeros((1, 3)))

    def test_table_inputs_are_read_only(self, tmp_path):
        """The arrays a table is built from cannot change under it: fedvec
        makes a shard's centroid and a fit or loaded scaler read-only."""
        rng = np.random.default_rng(4)
        stats = shard_stats(rng.standard_normal((5, 2)))
        scaler = fit_scaler(rng.standard_normal((6, 7)))
        model = RouterModel(init_params(7, rng), scaler, threshold=0.5, seed=0)
        (tmp_path / "m.rrm").write_bytes(serialize_model(model))
        loaded = load_model(tmp_path / "m.rrm").scaler
        for array in (stats.centroid, scaler.mean, scaler.std, loaded.mean, loaded.std):
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
