"""Flat-index behaviour: stats, exact search, tie-breaking, validation."""

import math

import numpy as np
import pytest

from fedvec.store import (
    ScoredHit,
    build_index,
    search_top_k,
    shard_distance,
    shard_stats,
    squared_distances,
)


class TestShardStats:
    def test_centroid_of_two_points(self):
        """(0,0) and (2,0) -> centroid (1,0); mean distance 1 -> density 1/2."""
        stats = shard_stats(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(stats.centroid, [1.0, 0.0])
        assert stats.count == 2
        assert stats.density == pytest.approx(0.5, abs=1e-15)

    def test_singleton(self):
        """One member sits on its own centroid: mean distance 0, density 1."""
        stats = shard_stats(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(stats.centroid, [3.0, 4.0])
        assert stats.count == 1
        assert stats.density == 1.0

    def test_density_monotone_in_spread(self):
        rng = np.random.default_rng(42)
        base = rng.standard_normal((50, 8))
        tight = shard_stats(0.1 * base)
        loose = shard_stats(10.0 * base)
        assert 0.0 < loose.density < tight.density <= 1.0


class TestBuildIndex:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            build_index(0, np.array([], dtype=np.int64), np.zeros((0, 3)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index(0, np.array([1, 1]), np.zeros((2, 3)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            build_index(0, np.array([1, 2, 3]), np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        vecs = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            build_index(0, np.array([1, 2]), vecs)

    def test_vectors_are_frozen(self):
        idx = build_index(0, np.array([1, 2]), np.eye(2))
        with pytest.raises(ValueError):
            idx.vectors[0, 0] = 9.0


class TestSearchTopK:
    def test_matches_brute_force_oracle(self):
        """Independent oracle: fsum distances, full python sort by (d, id)."""
        rng = np.random.default_rng(42)
        vecs = rng.standard_normal((300, 16))
        ids = rng.permutation(300).astype(np.int64) + 1000
        idx = build_index(7, ids, vecs)
        for k in (1, 5, 17, 300):
            query = rng.standard_normal(16)
            oracle = sorted(
                (
                    (math.fsum((v - q) * (v - q) for v, q in zip(row, query)), int(i))
                    for row, i in zip(vecs, ids)
                ),
            )[:k]
            got = search_top_k(idx, query, k)
            assert [h.vector_id for h in got] == [i for _, i in oracle]
            np.testing.assert_allclose(
                [h.distance for h in got], [d for d, _ in oracle], rtol=1e-12
            )

    def test_duplicate_points_tie_break_by_id(self):
        """Equal distances must surface ascending vector ids."""
        vecs = np.array([[1.0, 0.0]] * 4 + [[5.0, 0.0]])
        ids = np.array([40, 10, 30, 20, 5])
        idx = build_index(3, ids, vecs)
        hits = search_top_k(idx, np.zeros(2), 3)
        assert [h.vector_id for h in hits] == [10, 20, 30]
        assert all(h.distance == 1.0 for h in hits)

    def test_k_larger_than_shard(self):
        idx = build_index(0, np.array([1, 2, 3]), np.eye(3))
        hits = search_top_k(idx, np.zeros(3), 10)
        assert len(hits) == 3

    def test_exact_distance_values(self):
        idx = build_index(0, np.array([9]), np.array([[3.0, 4.0]]))
        (hit,) = search_top_k(idx, np.zeros(2), 1)
        assert hit == ScoredHit(shard_id=0, vector_id=9, distance=25.0)

    def test_rejects_bad_query_dim(self):
        idx = build_index(0, np.array([1]), np.ones((1, 4)))
        with pytest.raises(ValueError, match="dim"):
            search_top_k(idx, np.zeros(3), 1)

    def test_rejects_nonpositive_k(self):
        idx = build_index(0, np.array([1]), np.ones((1, 2)))
        with pytest.raises(ValueError, match="positive"):
            search_top_k(idx, np.zeros(2), 0)

    def test_hits_sorted_ascending(self):
        rng = np.random.default_rng(7)
        idx = build_index(0, np.arange(100), rng.standard_normal((100, 4)))
        hits = search_top_k(idx, rng.standard_normal(4), 20)
        dists = [h.distance for h in hits]
        assert dists == sorted(dists)


class TestShardDistance:
    def test_squared_euclidean(self):
        """Query (0,0) to centroid (3,4) is 25, not 5: squared metric."""
        stats = shard_stats(np.array([[3.0, 4.0]]))
        assert shard_distance(np.zeros(2), stats) == 25.0

    def test_zero_at_centroid(self):
        stats = shard_stats(np.array([[1.0, 2.0], [3.0, 2.0]]))
        assert shard_distance(np.array([2.0, 2.0]), stats) == 0.0

    def test_dimension_mismatch(self):
        stats = shard_stats(np.ones((2, 3)))
        with pytest.raises(ValueError):
            shard_distance(np.zeros(2), stats)

    def test_agrees_with_squared_distances(self):
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((20, 6))
        stats = shard_stats(vecs)
        q = rng.standard_normal(6)
        expected = squared_distances(stats.centroid[None, :], q)[0]
        assert shard_distance(q, stats) == expected
