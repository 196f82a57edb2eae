"""Flat-index behaviour: stats, exact search, tie-breaking, validation."""

import math

import numpy as np
import pytest

from fedvec.features import assemble_features
from fedvec.store import (
    SCREEN_BUDGET,
    ScoredHit,
    build_index,
    search_batch,
    search_top_k,
    shard_stats,
    squared_distances,
)


def shard_distance(query, stats):
    """The query-centroid distance slot of the (query, shard) feature row."""
    return assemble_features(query, stats)[2 * stats.centroid.shape[0]]


def brute_force(index, queries, k):
    """Full `squared_distances` scan per query, sorted by (distance, id)."""
    out = []
    for q in queries:
        dists = squared_distances(index.vectors, q)
        top = np.lexsort((index.ids, dists))[:k]
        out.append((index.ids[top].tolist(), dists[top].tolist()))
    return out


def assert_both_kernels_exact(index, queries, k):
    """`search_batch` on the block and `search_top_k` on each query give the
    brute-force ids and distance bits."""
    want = brute_force(index, queries, k)
    rows, dists = search_batch(index, queries, k)
    assert [(index.ids[r].tolist(), x.tolist()) for r, x in zip(rows, dists)] == want
    for q, (want_ids, want_d) in zip(queries, want):
        hits = search_top_k(index, q, k)
        assert [(h.vector_id, h.distance) for h in hits] == list(zip(want_ids, want_d))
    return want


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


class TestSearchBatch:
    def test_near_duplicates_at_large_norm(self):
        """Points 1e-7 apart around 1e6, plus exact duplicates: the GEMM
        screen cannot order them, so exactness rests on the error bound."""
        rng = np.random.default_rng(3)
        d = 4
        vectors = 1e6 + 1e-7 * rng.integers(0, 50, size=(600, d))
        vectors[500:] = vectors[:100]  # exact duplicates under other ids
        ids = rng.permutation(1000)[:600]
        index = build_index(2, ids, vectors)
        queries = 1e6 + 1e-7 * rng.integers(0, 50, size=(30, d)).astype(float)
        queries[:5] = vectors[:5]
        screen = index.sq_norms - 2.0 * queries @ vectors.T
        for k in (1, 7, 25):
            want = assert_both_kernels_exact(index, queries, k)
            # the screen's own top-k is wrong for some query, so the kept
            # margin is what makes the results exact
            screened = [set(ids[np.argsort(row, kind="stable")[:k]].tolist()) for row in screen]
            assert any(got != set(w) for got, (w, _) in zip(screened, want))

    def test_k_at_least_n_and_singleton(self):
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((9, 3))
        for n, k in ((1, 1), (1, 4), (6, 6), (6, 50)):
            index = build_index(0, np.arange(n)[::-1], rng.standard_normal((n, 3)))
            rows, dists = search_batch(index, queries, k)
            assert rows.shape == dists.shape == (9, n)
            assert_both_kernels_exact(index, queries, k)

    def test_matches_brute_force_on_random_blocks(self):
        rng = np.random.default_rng(8)
        index = build_index(1, rng.permutation(500), 3.0 + rng.standard_normal((500, 16)))
        queries = 3.0 + rng.standard_normal((40, 16))
        for k in (1, 10, 499):
            assert_both_kernels_exact(index, queries, k)

    def test_queries_span_several_blocks(self):
        """More queries than one screen block holds, so the screen buffer is
        reused and the last block is partial."""
        rng = np.random.default_rng(9)
        n = 5000
        index = build_index(4, rng.permutation(n), rng.standard_normal((n, 8)))
        queries = rng.standard_normal((2 * (SCREEN_BUDGET // n) + 7, 8))
        for k in (10, n):
            assert_both_kernels_exact(index, queries, k)

    def test_rejects_non_finite_query(self):
        """A NaN coordinate, or one whose square overflows the norm."""
        index = build_index(0, np.array([1, 2]), np.eye(2))
        for query in (np.array([0.0, np.nan]), np.array([1e200, 0.0])):
            with pytest.raises(ValueError, match="non-finite"):
                search_batch(index, query[None, :], 1)
            with pytest.raises(ValueError, match="non-finite"):
                search_top_k(index, query, 1)


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
