"""Routing decisions, scatter-gather merge, byte accounting, label generation."""

import math

import numpy as np
import pytest

from fedvec.datasets import SplitSpec
from fedvec.federation import (
    FederatedResult,
    RoutingDecision,
    federated_search,
    generate_labels,
    merge_hits,
    naive_hit_counts,
    naive_search,
    oracle_decision,
    relevant_shards,
    result_from_hit_lists,
    route,
    select_shards,
)
from fedvec.features import assemble_features, feature_rows, fit_scaler
from fedvec.router import RouterModel, TrainConfig, init_params, predict_batch, train
from fedvec.store import SCREEN_BUDGET, ScoredHit, ShardStats, build_index
from test_router_train import split_rows


def make_shards(n_shards=3, per_shard=5, dim=3, seed=11, id_base=100):
    """Small shards with non-positional ids so id/position mixups surface."""
    rng = np.random.default_rng(seed)
    shards = []
    for s in range(n_shards):
        vectors = rng.standard_normal((per_shard, dim))
        ids = id_base * (s + 1) + np.arange(per_shard)
        shards.append(build_index(shard_id=s, ids=ids, vectors=vectors))
    return shards


def brute_force_top_k(shards, query, k):
    """Pure-python oracle: fsum distances, full sort by the merge key."""
    rows = []
    for shard in shards:
        for vid, vec in zip(shard.ids, shard.vectors):
            d = math.fsum((float(c) - float(q)) ** 2 for c, q in zip(vec, query))
            rows.append((d, shard.shard_id, int(vid)))
    rows.sort()
    return rows[:k]


def decision(query_id, probabilities, threshold=0.5):
    """A RoutingDecision made by the routing rule, as `route` makes it."""
    selected, fallback = select_shards(probabilities[None], threshold)
    return RoutingDecision(query_id, probabilities, selected[0], bool(fallback[0]))


class TestDecisions:
    def test_thresholding(self):
        selected, fallback = select_shards(np.array([[0.2, 0.9, 0.5]]), 0.5)
        np.testing.assert_array_equal(selected, [[False, True, True]])
        np.testing.assert_array_equal(fallback, [False])

    def test_fallback_takes_single_argmax(self):
        selected, fallback = select_shards(np.array([[0.3, 0.49, 0.1]]), 0.5)
        np.testing.assert_array_equal(selected, [[False, True, False]])
        np.testing.assert_array_equal(fallback, [True])

    def test_fallback_tie_goes_to_lowest_index(self):
        selected, fallback = select_shards(np.array([[0.2, 0.2, 0.2]]), 0.5)
        np.testing.assert_array_equal(selected, [[True, False, False]])
        np.testing.assert_array_equal(fallback, [True])

    def test_rows_select_independently(self):
        """Fallback and thresholded rows in one matrix: each row gets the
        selection it gets alone. Row 2 ties at its top behind a lower
        value; row 3 sits exactly at the threshold, which selects."""
        probs = np.array([
            [0.1, 0.6, 0.7, 0.2],
            [0.1, 0.3, 0.2, 0.05],
            [0.2, 0.4, 0.1, 0.4],
            [0.5, 0.4999, 0.5, 0.0],
            [0.9, 0.8, 0.95, 0.7],
        ])
        selected, fallback = select_shards(probs, 0.5)
        np.testing.assert_array_equal(selected, [
            [False, True, True, False],
            [False, True, False, False],
            [False, True, False, False],
            [True, False, True, False],
            [True, True, True, True],
        ])
        np.testing.assert_array_equal(fallback, [False, True, True, False, False])
        for row, want in zip(probs, selected):
            np.testing.assert_array_equal(select_shards(row[None], 0.5)[0][0], want)

    def test_oracle_decision_mirrors_labels(self):
        d = oracle_decision(4, np.array([0, 1, 1]), 3)
        np.testing.assert_array_equal(d.selected, [False, True, True])
        assert not d.fallback_used

    def test_oracle_decision_rejects_empty_or_misshapen(self):
        with pytest.raises(ValueError, match="no relevant shard"):
            oracle_decision(4, np.zeros(3), 3)
        with pytest.raises(ValueError, match="shard count"):
            oracle_decision(4, np.array([1, 0]), 3)

    def test_route_probabilities_are_predict_batch_bits(self):
        """Serving's one-query route gives the bits of predict_batch on the
        query's feature rows, built alone or in eval's block of queries, and
        selects what select_shards selects at the model's threshold."""
        shards = make_shards(n_shards=6, per_shard=20, dim=4, seed=29)
        rng = np.random.default_rng(31)
        queries = rng.standard_normal((40, 4))
        table, _ = generate_labels(shards, np.arange(len(queries)), queries, k=5)
        rows = split_rows(table["features"], table["label"], table["query_id"],
                          SplitSpec(0.5, 0.25, 0.25), 1)
        model = train(*rows, TrainConfig(epochs=2), 1).model
        stats = [s.stats for s in shards]
        block = feature_rows(queries, stats)
        for qid, q in enumerate(queries):
            d = route(model, qid, q, stats)
            got = d.probabilities.tobytes()
            assert got == predict_batch(model, feature_rows(q[None], stats)[0]).tobytes()
            assert got == predict_batch(model, block[qid]).tobytes()
            selected, fallback = select_shards(d.probabilities[None], model.threshold)
            np.testing.assert_array_equal(d.selected, selected[0])
            assert d.fallback_used is bool(fallback[0])


    def test_route_follows_the_model_and_every_shard_stats(self):
        """route reuses its shard table only for the same model and the same
        ShardStats objects: routing with model A, B, then A again, then over
        a list (a new one, or the same one changed in place) with one shard
        swapped, each call gives predict_batch's bits for what it was given."""
        rng = np.random.default_rng(37)
        stats = [s.stats for s in make_shards(n_shards=6, per_shard=20, dim=4, seed=37)]
        queries = rng.standard_normal((5, 4))

        def model(seed, scale):
            rows = feature_rows(scale * rng.standard_normal((8, 4)), stats).reshape(-1, 11)
            return RouterModel(init_params(11, np.random.default_rng(seed)), fit_scaler(rows),
                               threshold=0.5, seed=seed)

        def check(m, shard_stats):
            for qid, q in enumerate(queries):
                want = predict_batch(m, feature_rows(q[None], shard_stats)[0])
                assert route(m, qid, q, shard_stats).probabilities.tobytes() == want.tobytes()

        a, b = model(1, 1.0), model(2, 3.0)
        for m in (a, b, a):
            check(m, stats)
        swapped = list(stats)
        swapped[2] = ShardStats(stats[2].centroid + 4.0, stats[2].count + 1, stats[2].density / 2)
        check(a, swapped)
        stats[2] = swapped[2]
        check(a, stats)

    def test_route_rejects_non_finite_then_routes_the_next_query(self):
        """A NaN coordinate, or one whose distance overflows, is a ValueError,
        and the next query routes as if neither had been seen."""
        shards = make_shards(n_shards=4, per_shard=10, dim=3, seed=41)
        stats = [s.stats for s in shards]
        rows = feature_rows(np.random.default_rng(41).standard_normal((6, 3)), stats)
        model = RouterModel(init_params(9, np.random.default_rng(43)),
                            fit_scaler(rows.reshape(-1, 9)), threshold=0.5, seed=0)
        good = np.array([0.3, -0.2, 0.1])
        for bad in ([np.nan, 0.0, 0.0], [1e200, 0.0, 0.0]):
            with pytest.raises(ValueError, match="non-finite"):
                route(model, 0, np.array(bad), stats)
            got = route(model, 1, good, stats).probabilities
            assert got.tobytes() == predict_batch(model, feature_rows(good[None], stats)[0]).tobytes()


class TestMerge:
    def test_two_lists_interleave(self):
        a = [ScoredHit(0, 1, 2.0), ScoredHit(0, 2, 3.0)]
        b = [ScoredHit(1, 9, 2.5)]
        got = merge_hits([a, b], k=2)
        assert [(h.distance, h.shard_id, h.vector_id) for h in got] == [
            (2.0, 0, 1),
            (2.5, 1, 9),
        ]

    def test_distance_tie_breaks_by_shard_then_vector_id(self):
        hits = [
            [ScoredHit(2, 5, 1.0)],
            [ScoredHit(0, 7, 1.0), ScoredHit(0, 3, 1.0)],
        ]
        got = merge_hits(hits, k=3)
        assert [(h.shard_id, h.vector_id) for h in got] == [(0, 3), (0, 7), (2, 5)]

    def test_k_larger_than_total_returns_everything(self):
        got = merge_hits([[ScoredHit(0, 1, 2.0)]], k=10)
        assert len(got) == 1


class TestFederatedSearch:
    def test_naive_matches_pure_python_oracle(self):
        shards = make_shards()
        query = np.random.default_rng(5).standard_normal(3)
        result = naive_search(0, shards, query, k=4)
        want = brute_force_top_k(shards, query, 4)
        assert [(h.shard_id, h.vector_id) for h in result.hits] == [
            (s, v) for _, s, v in want
        ]
        for hit, (d, _, _) in zip(result.hits, want):
            assert hit.distance == pytest.approx(d, rel=1e-12)

    def test_subset_selection_and_byte_accounting(self):
        shards = make_shards(per_shard=4, dim=3)
        query = np.zeros(3)
        result = federated_search(decision(3, np.array([0.9, 0.1, 0.9])), shards, query, k=10)
        assert result.shards_queried == 2
        assert {h.shard_id for h in result.hits} == {0, 2}
        # k exceeds both shard sizes, so every member comes back
        assert result.embeddings_returned == 8
        per_unit = 8 + 4 * 3
        assert result.bytes_moved == 2 * per_unit + 8 * per_unit

    def test_misaligned_decision_rejected(self):
        shards = make_shards(n_shards=3)
        with pytest.raises(ValueError, match="align"):
            federated_search(decision(0, np.array([0.9, 0.9])), shards, np.zeros(3), k=2)

    def test_oracle_routing_reproduces_naive_exactly(self):
        """Selecting exactly the shards that contributed to the global top-k
        must return the identical hit list, bit for bit."""
        shards = make_shards(n_shards=4, per_shard=6, seed=29)
        rng = np.random.default_rng(31)
        for qid in range(20):
            query = rng.standard_normal(3)
            naive = naive_search(qid, shards, query, k=3)
            labels = relevant_shards(naive.hits, shards)
            routed = federated_search(
                oracle_decision(qid, labels, 4), shards, query, k=3
            )
            assert routed.hits == naive.hits
            assert routed.shards_queried <= naive.shards_queried
            assert routed.bytes_moved <= naive.bytes_moved


class TestLabels:
    def test_relevant_shards_aligns_by_id_not_position(self):
        shards = make_shards()
        # shard ids 0,1,2 but present them reordered: labels must follow the
        # sequence order handed in, keyed by each hit's shard_id
        reordered = [shards[2], shards[0], shards[1]]
        hits = [ScoredHit(shard_id=0, vector_id=100, distance=0.5)]
        np.testing.assert_array_equal(
            relevant_shards(hits, reordered), [0, 1, 0]
        )

    def test_generate_labels_shape_and_recomputation(self):
        shards = make_shards(n_shards=3, per_shard=5, seed=13)
        rng = np.random.default_rng(17)
        queries = rng.standard_normal((12, 3))
        table, counts = generate_labels(shards, np.arange(12), queries, k=4)
        assert table.shape == (12 * 3,)
        assert counts.shape == (12, 3) and counts.dtype == np.int64
        assert table.dtype.names == ("query_id", "shard_id", "label", "features")
        by_query = {}
        for qid, query in enumerate(queries):
            hits = naive_search(qid, shards, query, 4).hits
            by_query[qid] = {h.shard_id for h in hits}
        for row in table:
            assert row["label"] == int(row["shard_id"] in by_query[row["query_id"]])
        # features must be the assembled (query, shard stats) row, verbatim
        np.testing.assert_array_equal(
            table[0]["features"], assemble_features(queries[0], shards[0].stats)
        )

    def test_every_query_contributes_rows_for_every_shard(self):
        shards = make_shards()
        table, _ = generate_labels(shards, np.array([5, 6]), np.array([np.zeros(3), np.ones(3)]), k=2)
        assert list(zip(table["query_id"].tolist(), table["shard_id"].tolist())) == [
            (5, 0), (5, 1), (5, 2), (6, 0), (6, 1), (6, 2),
        ]


    def test_blocks_and_cross_shard_ties_match_per_query_search(self):
        """A query count that is not a multiple of the union scan's block of
        SCREEN_BUDGET // 36 queries, and points shared by several shards so
        the k-th place is a tie that shard_id breaks: every row must equal
        the per-query naive_search reference."""
        rng = np.random.default_rng(23)
        grid = rng.integers(0, 3, size=(12, 2)).astype(float)
        shards = [
            build_index(sid, 1000 * sid + np.arange(12), grid[rng.permutation(12)])
            for sid in (4, 1, 7)
        ]
        queries = np.array([rng.integers(0, 3, size=2) + 0.5 * rng.integers(0, 2, size=2)
                            for _ in range(SCREEN_BUDGET // 36 + 37)])
        qids = 100 + np.arange(len(queries))
        for k in (1, 5):
            table, counts = generate_labels(shards, qids, queries, k)
            np.testing.assert_array_equal(counts, naive_hit_counts(shards, queries, k))
            for i, (qid, query) in enumerate(zip(qids.tolist(), queries)):
                hits = naive_search(qid, shards, query, k).hits
                labels = relevant_shards(hits, shards)
                rows = table[i * 3 : (i + 1) * 3]
                assert rows["query_id"].tolist() == [qid] * 3
                assert rows["shard_id"].tolist() == [4, 1, 7]
                assert rows["label"].tolist() == labels.tolist()
                for row, shard in zip(rows, shards):
                    np.testing.assert_array_equal(row["features"], assemble_features(query, shard.stats))
                    assert counts[i, shards.index(shard)] == sum(h.shard_id == shard.shard_id for h in hits)

    def test_union_scan_counts_at_block_edges_and_deep_k(self):
        """Four shards of 700, 300, 2000 and 1096 grid points (4096 rows, so
        the union scan's blocks hold SCREEN_BUDGET // 4096 queries), listed
        out of shard_id order and sharing vector ids and points: the counts
        equal the per-query naive_search merge at query counts around the
        block edges, and at k up to and beyond the smallest shard and all
        rows."""
        rng = np.random.default_rng(37)
        sizes, sids = (700, 300, 2000, 1096), (9, 2, 5, 0)
        shards = [
            build_index(sid, rng.permutation(n), rng.integers(0, 5, size=(n, 3)).astype(float))
            for sid, n in zip(sids, sizes)
        ]
        block = SCREEN_BUDGET // sum(sizes)
        assert block > 1
        for n_q in (block - 1, block, block + 1, 2 * block + 1):
            queries = rng.integers(0, 5, size=(n_q, 3)) + 0.5 * rng.integers(0, 2, size=(n_q, 3))
            for k in (1, 10, 300, 301, 5000):
                counts = naive_hit_counts(shards, queries, k)
                assert counts.shape == (n_q, 4) and counts.dtype == np.int64
                for i, query in enumerate(queries):
                    hits = naive_search(i, shards, query, k).hits
                    want = [sum(h.shard_id == sid for h in hits) for sid in sids]
                    assert counts[i].tolist() == want, (n_q, k, i)


class TestByteMonotonicity:
    def test_oracle_routed_naive_ordering(self):
        """Adding shards to a selection can only grow queries and bytes."""
        shards = make_shards(n_shards=4, per_shard=6, seed=41)
        query = np.random.default_rng(43).standard_normal(3)
        naive = naive_search(0, shards, query, k=3)
        labels = relevant_shards(naive.hits, shards)
        oracle = federated_search(oracle_decision(0, labels, 4), shards, query, 3)
        padded = labels.astype(bool).copy()
        padded[int(np.flatnonzero(~padded)[0])] = True  # one extra shard
        routed = federated_search(
            oracle_decision(0, padded.astype(int), 4), shards, query, 3
        )
        assert oracle.shards_queried <= routed.shards_queried <= naive.shards_queried
        assert oracle.bytes_moved <= routed.bytes_moved <= naive.bytes_moved
        assert isinstance(routed, FederatedResult)
