"""Synthetic corpus generation, k-means sharding, query splits, shard import."""

import numpy as np
import pytest

from fedvec.datasets import (
    SplitSpec,
    SyntheticSpec,
    _kmeans_pp_init,
    generate_synthetic,
    import_shards,
    kmeans,
    kmeans_shard,
    split_by_query,
)
from fedvec.rng import substream
from fedvec.vecio import manifest_bytes, vector_file_bytes


def four_blobs(per_blob=25, seed=19):
    """Four tight clouds at distance 20 from the origin, 20*sqrt(2) apart."""
    rng = np.random.default_rng(seed)
    centers = np.array([[20.0, 0.0], [-20.0, 0.0], [0.0, 20.0], [0.0, -20.0]])
    vectors = np.concatenate(
        [c + rng.standard_normal((per_blob, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(4), per_blob)
    return vectors, labels, centers


def kmeans_mask_loop(vectors, k, seed, max_iter=100, rel_tol=1e-6):
    """Lloyd's loop written plainly: a fresh distance matrix per round and
    one boolean mask per cluster."""
    n = vectors.shape[0]
    centroids = _kmeans_pp_init(vectors, k, substream(seed, "kmeans"))
    sq_norms = np.einsum("ij,ij->i", vectors, vectors)
    history = []
    for _ in range(max_iter):
        d2 = (
            sq_norms[:, None]
            - 2.0 * vectors @ centroids.T
            + np.einsum("ij,ij->i", centroids, centroids)[None, :]
        )
        assign = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), assign].sum())
        history.append(inertia)
        small_change = len(history) > 1 and (
            history[-2] <= 0.0 or abs(history[-2] - inertia) / history[-2] < rel_tol
        )
        if np.bincount(assign, minlength=k).min() > 0 and (inertia == 0.0 or small_change):
            break
        point_dist = d2[np.arange(n), assign]
        for c in range(k):
            members = assign == c
            if members.any():
                centroids[c] = vectors[members].mean(axis=0)
            else:
                far = int(point_dist.argmax())
                centroids[c] = vectors[far]
                point_dist[far] = -1.0
    return centroids, assign, history


class TestKMeans:
    def test_matches_mask_loop_reference(self):
        """The reused distance buffer and the sorted member groups give the
        plain loop's centroids, assignment and inertia history bit for bit,
        on a synthetic corpus and on points that leave clusters empty."""
        corpus = generate_synthetic(SyntheticSpec(n_clusters=6, dim=8, points_per_cluster=(40, 90),
                                                  n_train_queries=10), 4).corpus
        cases = [(corpus, 6, 4), (np.array([[0.0]] * 8 + [[10.0]] * 8), 3, 2),
                 (np.repeat(np.eye(3) * 5.0, [5, 1, 30], axis=0), 5, 1)]
        for vectors, k, seed in cases:
            want = kmeans_mask_loop(vectors, k, seed, max_iter=30)
            got = kmeans(vectors, k, seed, max_iter=30)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tolist() == want[1].tolist()
            assert got[2] == want[2]

    def test_recovers_separated_blobs(self):
        vectors, labels, centers = four_blobs()
        centroids, assign, _ = kmeans(vectors, 4, seed=1)
        mapped = set()
        for c in range(4):
            member_labels = np.unique(labels[assign == c])
            assert member_labels.shape == (1,)  # no blob is split or mixed
            mapped.add(int(member_labels[0]))
        assert mapped == {0, 1, 2, 3}
        # each centroid lands on some blob center, well inside the 20-gap
        for centroid in centroids:
            assert np.min(np.linalg.norm(centers - centroid, axis=1)) < 1.0

    def test_inertia_never_increases(self):
        vectors = np.random.default_rng(3).standard_normal((200, 5))
        _, _, history = kmeans(vectors, 5, seed=3)
        assert len(history) >= 1
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9 * history[0])

    def test_deterministic_under_seed(self):
        vectors = np.random.default_rng(4).standard_normal((60, 3))
        a = kmeans(vectors, 4, seed=9)
        b = kmeans(vectors, 4, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_k_equals_n_reaches_zero_inertia(self):
        vectors = np.random.default_rng(5).standard_normal((12, 3))
        _, assign, history = kmeans(vectors, 12, seed=0)
        # the expanded |x|^2 - 2xc + |c|^2 form leaves ~1e-16 of cancellation
        # residue per point even when every point is its own centroid
        assert history[-1] <= 1e-12
        assert len(set(assign.tolist())) == 12  # every point is its own cluster

    def test_more_clusters_than_distinct_points_terminates(self):
        """Two distinct locations, three clusters: one cluster can never hold
        members, the reseed loop must give up at max_iter, and every point
        still sits exactly on its assigned center."""
        vectors = np.array([[0.0]] * 8 + [[10.0]] * 8)
        _, assign, history = kmeans(vectors, 3, seed=2, max_iter=30)
        assert history[-1] == 0.0
        assert len(set(assign.tolist())) == 2

    def test_rejects_more_clusters_than_points(self):
        with pytest.raises(ValueError, match="cannot fill"):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_kmeans_shard_partitions_positions(self):
        vectors, _, _ = four_blobs(per_blob=10, seed=23)
        shards = kmeans_shard(vectors, 4, seed=6)
        assert [s.shard_id for s in shards] == [0, 1, 2, 3]
        seen = np.concatenate([s.ids for s in shards])
        np.testing.assert_array_equal(np.sort(seen), np.arange(40))
        for shard in shards:
            np.testing.assert_array_equal(shard.vectors, vectors[shard.ids])
            assert shard.stats.count == shard.ids.shape[0]


class TestSynthetic:
    SPEC = SyntheticSpec(
        n_clusters=4,
        dim=6,
        points_per_cluster=(30, 90),
        n_train_queries=50,
        n_eval_queries=20,
    )
    SEED = 12

    def test_shapes_and_size_bounds(self):
        data = generate_synthetic(self.SPEC, self.SEED)
        counts = np.bincount(data.corpus_cluster, minlength=4)
        assert data.corpus.shape == (counts.sum(), 6)
        assert counts.min() >= 30 and counts.max() <= 90
        assert data.train_queries.shape == (50, 6)
        assert data.eval_queries.shape == (20, 6)
        assert data.train_query_cluster.shape == (50,)

    def test_deterministic_and_seed_sensitive(self):
        a = generate_synthetic(self.SPEC, self.SEED)
        b = generate_synthetic(self.SPEC, self.SEED)
        np.testing.assert_array_equal(a.corpus, b.corpus)
        np.testing.assert_array_equal(a.train_queries, b.train_queries)
        c = generate_synthetic(self.SPEC, self.SEED + 1)
        assert not np.array_equal(a.corpus, c.corpus)

    def test_zero_noise_queries_are_corpus_points(self):
        spec = SyntheticSpec(
            n_clusters=3, dim=4, points_per_cluster=(20, 40), query_noise=0.0,
            n_train_queries=25, n_eval_queries=5,
        )
        data = generate_synthetic(spec, 3)
        for query, cluster in zip(data.train_queries, data.train_query_cluster):
            d2 = np.einsum("ij,ij->i", data.corpus - query, data.corpus - query)
            nearest = int(np.argmin(d2))
            assert d2[nearest] == 0.0
            assert data.corpus_cluster[nearest] == cluster

    def test_centers_sit_on_the_radius_sphere(self):
        data = generate_synthetic(
            SyntheticSpec(
                n_clusters=5, dim=8, points_per_cluster=(200, 200),
                cluster_spread=0.0, center_radius=7.5,
                n_train_queries=10, n_eval_queries=1,
            ),
            4,
        )
        # zero spread collapses each cluster onto its center
        norms = np.linalg.norm(data.corpus, axis=1)
        np.testing.assert_allclose(norms, 7.5, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            generate_synthetic(SyntheticSpec(n_clusters=0), 0)
        with pytest.raises(ValueError, match="inverted"):
            generate_synthetic(SyntheticSpec(points_per_cluster=(9, 3)), 0)
        with pytest.raises(ValueError, match="nonnegative"):
            generate_synthetic(SyntheticSpec(query_noise=-1.0), 0)


class TestSplit:
    def test_exact_partition_of_100(self):
        qids = np.repeat(np.arange(100), 3)  # several rows per query
        masks = np.array(split_by_query(qids, SplitSpec(), 0))
        assert masks.shape == (3, 300) and masks.dtype == bool
        assert (masks.sum(axis=0) == 1).all()  # each row in exactly one split
        assert [len(set(qids[m])) for m in masks] == [30, 10, 60]
        # Every row of one query falls in the same split.
        assert (masks.reshape(3, 100, 3) == masks[:, ::3, None]).all()

    def test_split_follows_the_id_not_its_position(self):
        qids = np.repeat(np.arange(100), 3)
        order = np.random.default_rng(1).permutation(len(qids))
        masks = split_by_query(qids, SplitSpec(), 0)
        for mask, permuted in zip(masks, split_by_query(qids[order], SplitSpec(), 0)):
            np.testing.assert_array_equal(permuted, mask[order])

    def test_deterministic(self):
        qids = np.arange(40)
        same = zip(split_by_query(qids, SplitSpec(), 5), split_by_query(qids, SplitSpec(), 5))
        assert all(np.array_equal(a, b) for a, b in same)
        other = zip(split_by_query(qids, SplitSpec(), 5), split_by_query(qids, SplitSpec(), 6))
        assert not all(np.array_equal(a, b) for a, b in other)

    def test_too_few_queries(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_by_query(np.arange(9), SplitSpec(), 0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split_by_query(np.arange(20), SplitSpec(0.5, 0.2, 0.2), 0)


class TestImport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        written = {}
        for sid in (0, 1):
            ids = np.arange(5) + 10 * sid
            vectors = rng.standard_normal((5, 3))
            (tmp_path / f"s{sid}.fvr").write_bytes(vector_file_bytes(ids, vectors))
            written[sid] = (ids, vectors)
        (tmp_path / "manifest.json").write_bytes(manifest_bytes(3, {0: "s0.fvr", 1: "s1.fvr"}))
        shards = import_shards(tmp_path / "manifest.json")
        assert [s.shard_id for s in shards] == [0, 1]
        for shard in shards:
            ids, vectors = written[shard.shard_id]
            np.testing.assert_array_equal(shard.ids, ids)
            # stored as float32 on the wire, so compare at that precision
            np.testing.assert_array_equal(
                shard.vectors, vectors.astype(np.float32).astype(np.float64)
            )

    def test_dimension_mismatch(self, tmp_path):
        (tmp_path / "s0.fvr").write_bytes(vector_file_bytes(np.arange(4), np.zeros((4, 2))))
        (tmp_path / "manifest.json").write_bytes(manifest_bytes(3, {0: "s0.fvr"}))
        with pytest.raises(ValueError, match="dimension 2 != manifest 3"):
            import_shards(tmp_path / "manifest.json")
