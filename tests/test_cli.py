"""End-to-end pipeline through main(), byte idempotence, and failure paths."""

import argparse
import copy
import errno
import inspect
import json
import os
import shutil
import warnings

import numpy as np
import pytest

import fedvec.cli
import fedvec.federation
import fedvec.router
import fedvec.store
from fedvec.cli import main
from fedvec.datasets import SplitSpec, import_shards, split_by_query
from fedvec.features import ScalerParams, feature_dim, feature_rows
from fedvec.federation import federated_search, naive_search, route
from fedvec.metrics import retrieval_recall
from fedvec.router import RouterModel, init_params, load_model, serialize_model
from fedvec.vecio import read_vectors, vector_file_bytes

CONFIG = {
    "seed": 21,
    "k": 3,
    "out": "run",
    "synthetic": {
        "n_clusters": 3,
        "dim": 4,
        "points_per_cluster": [40, 80],
        "n_train_queries": 80,
        "n_eval_queries": 10,
    },
    "train": {"epochs": 4},
}


def run(tmp, *argv):
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


NOT_TRAINED_HERE = (
    "error: run/router.rrm: not trained on this run's train split "
    "(seed, split, queries or shards differ); rerun label and train\n"
)

REPORT_FILES = ["report.json", "summary.csv", "recall_by_shard.csv", "queries_by_strategy.csv"]


def hit_counts(hits):
    """hits.npy's shard fields as a (Q, n_shards) matrix, in field order."""
    return np.column_stack([hits[name] for name in hits.dtype.names[1:]])


def zero_latency(traces_text):
    rows = [json.loads(line) for line in traces_text.splitlines()]
    for row in rows:
        row["latency_ns"] = 0
    return rows


def trained_run_with_queries(tmp, ids):
    """A trained run whose queries_train file is then replaced by `ids`."""
    (tmp / "cfg.json").write_text(json.dumps(CONFIG))
    for command in ("synth", "label", "train"):
        assert run(tmp, "--config", "cfg.json", command) == 0
    (tmp / "run" / "queries_train.fvr").write_bytes(vector_file_bytes(ids, np.zeros((len(ids), 4))))


def file_snapshot(root):
    """Every file under `root`: its bytes and modification time."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    (tmp / "cfg.json").write_text(json.dumps(CONFIG))
    for command in ("synth", "label", "train", "eval"):
        assert run(tmp, "--config", "cfg.json", command) == 0
    return tmp


class TestPipeline:
    def test_synth_artifacts(self, pipeline):
        out = pipeline / "run"
        assert (out / "manifest.json").exists()
        assert sorted(p.name for p in (out / "shards").iterdir()) == [
            "shard_000.fvr", "shard_001.fvr", "shard_002.fvr",
        ]
        assert (out / "queries_train.fvr").exists()
        assert (out / "queries_eval.fvr").exists()

    def test_label_table_shape(self, pipeline):
        out = pipeline / "run"
        table = np.load(out / "labels.npy")
        assert table.shape == (80 * 3,)
        assert set(table.dtype.names) == {"query_id", "shard_id", "label", "features"}
        # feature layout is [query | centroid | distance | count | density]
        assert table["features"].shape == (240, 2 * 4 + 3)
        assert set(np.unique(table["label"])) <= {0, 1}
        # The rows are feature_rows of queries_train over the manifest's
        # shards, bit for bit, so a reader may build them instead.
        _, qvecs = read_vectors(out / "queries_train.fvr")
        stats = [s.stats for s in import_shards(out / "manifest.json")]
        rows = feature_rows(qvecs, stats).reshape(240, -1)
        assert table["features"].tobytes() == rows.astype("<f8").tobytes()

    def test_label_writes_hit_counts(self, pipeline):
        """hits.npy: one record per queries_train query in file order, a field
        per shard named by its id in manifest order, each query's naive top-k
        split over them, and positive exactly where labels.npy labels 1."""
        out = pipeline / "run"
        hits = np.load(out / "hits.npy")
        assert hits.dtype == np.dtype(
            [("query_id", "<i8"), ("shard_0", "<i8"), ("shard_1", "<i8"), ("shard_2", "<i8")]
        )
        qids, _ = read_vectors(out / "queries_train.fvr")
        assert hits["query_id"].tolist() == qids.tolist()
        counts = hit_counts(hits)
        assert (counts >= 0).all() and (counts.sum(axis=1) == CONFIG["k"]).all()
        table = np.load(out / "labels.npy")
        np.testing.assert_array_equal(table["label"].reshape(80, 3), counts > 0)

    def test_training_log(self, pipeline):
        lines = (pipeline / "run" / "training_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_accuracy,lr_start,lr_end"
        assert len(lines) == 1 + 4  # header + one row per epoch

    def test_eval_artifacts(self, pipeline):
        out = pipeline / "run"
        for name in ("traces.jsonl", "report.json", "summary.csv",
                     "recall_by_shard.csv", "queries_by_strategy.csv",
                     "latency.json"):
            assert (out / name).exists(), name
        # default split keeps 60% of the 80 training queries for test
        traces = (out / "traces.jsonl").read_text().splitlines()
        assert len(traces) == 3 * 48
        report = json.loads((out / "report.json").read_text())
        assert report["aggregate"]["n_queries"] == 48
        assert set(report["quality"]) == {
            "mean_auc", "mean_recall", "routed_query_fraction",
        }
        assert "latency" not in report
        assert set(json.loads((out / "latency.json").read_text())) == {"p50_ns", "p95_ns"}

    def test_eval_is_byte_idempotent_outside_latency(self, pipeline):
        out = pipeline / "run"
        deterministic = [
            "report.json", "summary.csv", "recall_by_shard.csv",
            "queries_by_strategy.csv",
        ]
        before = {name: (out / name).read_bytes() for name in deterministic}
        traces_before = zero_latency((out / "traces.jsonl").read_text())
        assert run(pipeline, "--config", "cfg.json", "eval") == 0
        for name in deterministic:
            assert (out / name).read_bytes() == before[name], name
        assert zero_latency((out / "traces.jsonl").read_text()) == traces_before

    def test_eval_reads_no_labels(self, pipeline, tmp_path):
        """train and eval take their hit counts and shard order from hits.npy
        alone: with labels.npy gone, train writes the same model and log and
        eval the same report files and traces."""
        out = tmp_path / "run"
        shutil.copytree(pipeline / "run", out)
        (out / "labels.npy").unlink()
        rebuilt = REPORT_FILES + ["router.rrm", "training_log.csv"]
        for name in rebuilt + ["traces.jsonl"]:
            (out / name).unlink()
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("train", "eval"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0, command
        for name in rebuilt:
            assert (out / name).read_bytes() == (pipeline / "run" / name).read_bytes(), name
        traces = (pipeline / "run" / "traces.jsonl").read_text()
        assert zero_latency((out / "traces.jsonl").read_text()) == zero_latency(traces)

    def test_report_rebuilds_eval_bytes(self, pipeline):
        out = pipeline / "run"
        want = (out / "report.json").read_bytes()
        (out / "report.json").unlink()
        assert run(pipeline, "--config", "cfg.json", "report") == 0
        assert (out / "report.json").read_bytes() == want

    def test_synth_writes_the_config_manifest(self, pipeline, tmp_path, capsys):
        """synth writes the manifest where the config's `manifest` points,
        its shards beside it, with the default layout's bytes; every later
        command then runs on that corpus, and nothing lands at
        run/manifest.json."""
        (tmp_path / "cfg.json").write_text(json.dumps({**CONFIG, "manifest": "corpus/manifest.json"}))
        for command in ("synth", "import", "label", "train", "eval", "report"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0, command
        out = capsys.readouterr().out
        assert "eval queries -> corpus\n" in out
        assert "from corpus/manifest.json" in out
        corpus = tmp_path / "corpus"
        want = {p.relative_to(pipeline / "run"): p.read_bytes()
                for p in [pipeline / "run" / "manifest.json", *(pipeline / "run" / "shards").iterdir()]}
        assert {p.relative_to(corpus): p.read_bytes() for p in corpus.rglob("*") if p.is_file()} == want
        assert not (tmp_path / "run" / "manifest.json").exists()
        assert not (tmp_path / "run" / "shards").exists()

    def test_import_summarizes_shards(self, pipeline, capsys):
        assert run(pipeline, "--config", "cfg.json", "import") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("import: 3 shards")
        assert sum("density" in line for line in lines) == 3

    def test_train_stores_config_threshold(self, tmp_path):
        """route() selects with the model's stored threshold, eval with the
        config's: train must store the config's so that both agree. Serving
        that selection then costs what eval's trace row records, and its
        recall against a naive search is the row's recall."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label", "train", "eval"):
            assert run(tmp_path, "--config", "cfg.json", "--threshold", "0.3", command) == 0
        out = tmp_path / "run"
        model = load_model(out / "router.rrm")
        assert model.threshold == 0.3
        shards = import_shards(out / "manifest.json")
        stats = [s.stats for s in shards]
        qids, qvecs = read_vectors(out / "queries_train.fvr")
        queries = dict(zip(qids.tolist(), qvecs))
        predicted = [
            row for row in map(json.loads, (out / "traces.jsonl").read_text().splitlines())
            if row["strategy"] == "predicted"
        ]
        assert predicted
        k = CONFIG["k"]
        for row in predicted:
            assert row["threshold"] == 0.3
            qid, q = row["query_id"], queries[row["query_id"]]
            decision = route(model, qid, q, stats)
            assert [int(v) for v in decision.selected] == row["selected"], qid
            served = federated_search(decision, shards, q, k)
            cost = (served.shards_queried, served.embeddings_returned, served.bytes_moved)
            assert cost == (row["m"], row["embeddings_returned"], row["bytes_moved"]), qid
            assert retrieval_recall(served, naive_search(qid, shards, q, k)) == row["recall"], qid

    def test_seed_flag_changes_synth_output(self, pipeline):
        base = (pipeline / "run" / "queries_train.fvr").read_bytes()
        assert run(pipeline, "--config", "cfg.json", "--seed", "99",
                   "--out", "other", "synth") == 0
        assert (pipeline / "other" / "queries_train.fvr").read_bytes() != base


class TestFailures:
    def test_bad_k(self, tmp_path, capsys):
        assert run(tmp_path, "--k", "0", "synth") == 2
        assert "error: bad config: k must be >= 1" in capsys.readouterr().err

    def test_bad_threshold(self, tmp_path, capsys):
        assert run(tmp_path, "--threshold", "1.5", "synth") == 2
        assert "threshold" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert run(tmp_path, "--config", "missing.json", "synth") == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_bytes(b'{"seed": 1}\xff')
        assert run(tmp_path, "--config", "cfg.json", "synth") == 2
        assert capsys.readouterr().err.startswith("error: cannot read config cfg.json: ")
        assert not (tmp_path / "run").exists()

    def test_synth_rejects_config_paths_naming_one_file(self, tmp_path, capsys):
        """queries_eval naming queries_train's file would leave only the eval
        queries there, for label to label: synth exits 2 and writes nothing."""
        for clash in ({"queries_eval": "run/queries_train.fvr"},
                      {"queries_train": "./run/manifest.json"},
                      {"queries_eval": "run/shards/../shards/shard_001.fvr"}):
            (tmp_path / "cfg.json").write_text(json.dumps({**CONFIG, **clash}))
            before = file_snapshot(tmp_path)
            assert run(tmp_path, "--config", "cfg.json", "synth") == 2, clash
            assert capsys.readouterr().err == (
                "error: config paths clash: manifest, queries_train, queries_eval "
                "and the shard files must name distinct files\n"
            ), clash
            assert file_snapshot(tmp_path) == before, clash

    def test_bad_config_block(self, tmp_path, capsys):
        cases = [
            ({"train": {"epochs": 2, "no_such_field": 1}}, "bad 'train' config block"),
            ({"train": 5}, "bad 'train' config block"),
            ({"split": [0.3, 0.1, 0.6]}, "bad 'split' config block"),
            ({"synthetic": "small"}, "bad 'synthetic' config block"),
            ({"synthetic": {"points_per_cluster": 5}}, "bad 'synthetic' config block"),
            ([1, 2], "is not a JSON object"),
            # A value of the wrong JSON type is rejected before any command runs.
            ({"train": {"epochs": "2"}}, "bad 'train' config block: epochs must be int"),
            ({"synthetic": {"n_train_queries": 64.5}}, "n_train_queries must be int, got 64.5"),
            ({"synthetic": {"query_noise": "0.9"}}, "query_noise must be float"),
            ({"split": {"val_frac": True}}, "val_frac must be float"),
            ({"train": {"epochs": None}}, "epochs must be int, got null"),
            # train derives these from its rows; they are not config fields.
            ({"train": {"pos_weight": 2.0}}, "unexpected keyword argument 'pos_weight'"),
            ({"train": {"cycle_length": 4}}, "unexpected keyword argument 'cycle_length'"),
            # The training recipe is fixed in the router; these are not config fields either.
            ({"train": {"lr_min": 0.001}}, "unexpected keyword argument 'lr_min'"),
            ({"train": {"lr_max": 0.005}}, "unexpected keyword argument 'lr_max'"),
            ({"train": {"batch_size": 128}}, "unexpected keyword argument 'batch_size'"),
            ({"train": {"dropout_rate": 0.2}}, "unexpected keyword argument 'dropout_rate'"),
            ({"train": {"momentum": 0.9}}, "unexpected keyword argument 'momentum'"),
            ({"manifest": None}, "bad config: manifest must be str, got null"),
            ({"k": [10]}, "bad config: k must be int, got [10]"),
            ({"k": 10.0}, "bad config: k must be int"),
            ({"seed": True}, "bad config: seed must be int"),
            # The model file stores the seed as an i64.
            ({"seed": 2**63}, "error: bad config: seed must be in [0, 2**63), got 9223372036854775808"),
            ({"seed": -1}, "error: bad config: seed must be in [0, 2**63), got -1"),
            ({"threshold": "0.5"}, "bad config: threshold must be float"),
            ({"out": 5}, "bad config: out must be str"),
            ({"synthetic": {"n_clusters": "3"}}, "bad 'synthetic' config block: n_clusters"),
            ({"synthetic": {"points_per_cluster": ["a", "b"]}}, "points_per_cluster must be"),
            ({"synthetic": {"points_per_cluster": [1, 2, 3]}}, "points_per_cluster must be"),
            ({"split": {"train_frac": None}}, "bad 'split' config block: train_frac"),
            # Blocks take no seed (test_block_seed_is_rejected).
            ({"split": {"seed": "1"}}, "unexpected keyword argument 'seed'"),
            # Python's json reads Infinity and NaN; no float field takes them.
            ({"synthetic": {"cluster_spread": float("inf")}},
             "cluster_spread must be float, got Infinity"),
            ({"split": {"val_frac": float("-inf")}}, "val_frac must be float, got -Infinity"),
            ({"synthetic": {"center_radius": float("nan")}}, "center_radius must be float, got NaN"),
            ({"threshold": float("nan")}, "bad config: threshold must be float, got NaN"),
            # An integer beyond float's range fits no float field.
            ({"threshold": 10**400}, f"error: bad config: threshold must be float, got {10**400}"),
            ({"split": {"train_frac": 10**400}},
             f"bad 'split' config block: train_frac must be float, got {10**400}"),
        ]
        for doc, message in cases:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            assert run(tmp_path, "--config", "cfg.json", "synth") == 2, doc
            assert message in capsys.readouterr().err, doc
            assert not (tmp_path / "run").exists(), doc

    def test_block_seed_is_rejected(self, tmp_path, capsys):
        """The top-level seed is the run's only seed: a seed in a block is an
        unknown key, whatever its value, and no command runs."""
        for key in ("synthetic", "train", "split"):
            for value in (1, 2**63):
                doc = {**CONFIG, key: {**CONFIG.get(key, {}), "seed": value}}
                (tmp_path / "cfg.json").write_text(json.dumps(doc))
                assert run(tmp_path, "--config", "cfg.json", "synth") == 2, doc
                err = capsys.readouterr().err
                assert err.startswith(f"error: bad '{key}' config block: "), doc
                assert "unexpected keyword argument 'seed'" in err, doc
                assert not (tmp_path / "run").exists(), doc

    def test_config_accepts_ints_for_floats_and_null_defaults(self, tmp_path):
        doc = {
            "threshold": 1,
            "synthetic": {"center_radius": 8, "cluster_spread": 2, "query_noise": 0,
                          "points_per_cluster": [200, 800]},
            "split": {"train_frac": 1, "val_frac": 0, "test_frac": 0},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        args = argparse.Namespace(config=str(tmp_path / "cfg.json"), k=None, threshold=None,
                                  seed=None, out=None)
        cfg = fedvec.cli.load_config(args)
        assert cfg.threshold == 1.0 and cfg.synthetic.center_radius == 8
        # A float field holds a float, whatever JSON number the file gives.
        assert type(cfg.threshold) is float and type(cfg.synthetic.cluster_spread) is float
        assert type(cfg.synthetic.query_noise) is float
        assert cfg.split.train_frac == 1

    @pytest.mark.parametrize("command", ["synth", "import", "label", "train", "eval", "report"])
    def test_every_command_checks_the_whole_config_first(self, pipeline, tmp_path, capsys, command):
        """In a finished run, where each command would succeed, an unknown
        top-level key, an out-of-range value at any level or a bad flag
        ends the command in exit 2 before it writes anything."""
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        before = file_snapshot(tmp_path)
        cases = [
            ({**CONFIG, "treshold": 0.9}, [], "unexpected keyword argument 'treshold'"),
            ({**CONFIG, "threshold": 1.5}, [], "bad config: threshold must be in [0, 1]"),
            ({**CONFIG, "synthetic": {**CONFIG["synthetic"], "n_clusters": 0}}, [],
             "bad 'synthetic' config block: synthetic spec fields must be positive"),
            ({**CONFIG, "train": {**CONFIG["train"], "epochs": 0}}, [],
             "bad 'train' config block: epochs must be positive"),
            ({**CONFIG, "split": {"train_frac": 0.5}}, [],
             "bad 'split' config block: split fractions must be nonnegative and sum to 1"),
            (CONFIG, ["--k", "0"], "bad config: k must be >= 1"),
            (CONFIG, ["--seed", "-1"], "bad config: seed must be in [0, 2**63), got -1"),
            (CONFIG, ["--threshold", "nan"], "bad config: threshold must be float, got NaN"),
        ]
        for doc, flags, message in cases:
            (tmp_path / "bad.json").write_text(json.dumps(doc))
            assert run(tmp_path, "--config", "bad.json", *flags, command) == 2, (doc, flags)
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err, (doc, flags, err)
            (tmp_path / "bad.json").unlink()
            assert file_snapshot(tmp_path) == before, (doc, flags)

    def test_eval_rejects_model_of_another_seed(self, pipeline, tmp_path, capsys):
        """The split is drawn from the seed, so another seed's test queries
        would include the model's training queries."""
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        before = file_snapshot(tmp_path)
        seed = CONFIG["seed"] + 1
        assert run(tmp_path, "--config", "cfg.json", "--seed", str(seed), "eval") == 2
        assert capsys.readouterr().err == NOT_TRAINED_HERE
        assert file_snapshot(tmp_path) == before

    def test_eval_rejects_model_of_another_split(self, pipeline, tmp_path, capsys):
        """A test split of 0.8 takes in about 16 of the model's training
        queries."""
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        doc = {**CONFIG, "split": {"train_frac": 0.1, "val_frac": 0.1, "test_frac": 0.8}}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        assert capsys.readouterr().err == NOT_TRAINED_HERE
        assert file_snapshot(tmp_path) == before

    def test_eval_rejects_model_of_other_queries(self, pipeline, tmp_path, capsys):
        """synth reruns with noisier queries and label does not: the query
        ids, and so hits.npy's, are unchanged, but the model and the counts
        belong to the old queries."""
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        noisy = {**CONFIG, "synthetic": {**CONFIG["synthetic"], "query_noise": 2.0}}
        (tmp_path / "cfg.json").write_text(json.dumps(noisy))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        capsys.readouterr()
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        assert capsys.readouterr().err == NOT_TRAINED_HERE
        assert file_snapshot(tmp_path) == before

    def test_eval_rejects_model_of_other_shards(self, pipeline, tmp_path, capsys):
        """One shard file replaced by another seed's after train."""
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        assert run(tmp_path, "--config", "cfg.json", "--seed", "0", "--out", "other", "synth") == 0
        capsys.readouterr()
        shard = "shards/shard_001.fvr"
        assert (tmp_path / "other" / shard).read_bytes() != (tmp_path / "run" / shard).read_bytes()
        shutil.copy(tmp_path / "other" / shard, tmp_path / "run" / shard)
        shutil.rmtree(tmp_path / "other")
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        assert capsys.readouterr().err == NOT_TRAINED_HERE
        assert file_snapshot(tmp_path) == before

    def test_eval_accepts_model_with_a_constant_feature(self, tmp_path):
        """Coordinate 0 is 0.3 in every query, so feature 0 is constant over
        the train split and its stored std is floored at 1e-8: eval's sum of
        the split's rows must still give the model's mean back."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        queries = tmp_path / "run" / "queries_train.fvr"
        qids, qvecs = read_vectors(queries)
        qvecs[:, 0] = 0.3
        queries.write_bytes(vector_file_bytes(qids, qvecs))
        for command in ("label", "train", "eval"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0, command
        assert load_model(tmp_path / "run" / "router.rrm").scaler.std[0] == 1e-8

    def test_eval_rejects_model_of_another_threshold(self, pipeline, tmp_path, capsys):
        """route() selects with the model's threshold, so eval at another
        one would score selections that serving never makes."""
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        assert run(tmp_path, "--config", "cfg.json", "--threshold", "0.3", "train") == 0
        capsys.readouterr()
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        assert capsys.readouterr().err == (
            "error: run/router.rrm: trained with threshold 0.3, not 0.5; rerun train\n"
        )
        assert file_snapshot(tmp_path) == before

    def test_eval_rejects_empty_test_split(self, pipeline, tmp_path, capsys):
        shutil.copytree(pipeline, tmp_path, dirs_exist_ok=True)
        doc = {**CONFIG, "split": {"train_frac": 0.5, "val_frac": 0.5, "test_frac": 0}}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        assert capsys.readouterr().err == "error: test split is empty\n"
        assert file_snapshot(tmp_path) == before

    @pytest.mark.parametrize("command", ["synth", "import", "label", "train", "eval", "report"])
    def test_main_runs_the_module_command_at_call_time(self, tmp_path, monkeypatch, command):
        """main() calls cmd_<command>(cfg) as the module holds it when
        called, so a wrapper set on the module (perfbench's tracer sets
        them) is what runs."""
        assert list(inspect.signature(getattr(fedvec.cli, f"cmd_{command}")).parameters) == ["cfg"]
        calls = []
        monkeypatch.setattr(fedvec.cli, f"cmd_{command}", calls.append)
        assert run(tmp_path, "--k", "7", command) == 0
        assert [type(cfg) for cfg in calls] == [fedvec.cli.RunConfig] and calls[0].k == 7
        assert not any(tmp_path.iterdir())

    def test_empty_query_file(self, tmp_path, capsys):
        trained_run_with_queries(tmp_path, np.zeros(0, dtype=np.int64))
        for command in ("label", "eval"):
            assert run(tmp_path, "--config", "cfg.json", command) == 2
            assert "no queries" in capsys.readouterr().err

    def test_duplicate_query_ids(self, tmp_path, capsys):
        trained_run_with_queries(tmp_path, np.array([0, 1, 2, 3, 2] * 4))
        for command in ("label", "eval"):
            assert run(tmp_path, "--config", "cfg.json", command) == 2
            assert "duplicate query ids" in capsys.readouterr().err

    def test_corrupt_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (tmp_path / "cfg.json").write_text(json.dumps({"out": "run"}))
        (out / "shard.fvr").write_bytes(vector_file_bytes(np.arange(3), np.ones((3, 4))))
        shard = {"shard_id": 2, "path": "shard.fvr"}
        for text in (
            "{not json",
            # int() would read these as shard 2 of dimension 4
            json.dumps({"dimension": 4.9, "shards": [shard]}),
            json.dumps({"dimension": 4, "shards": [{**shard, "shard_id": 2.7}]}),
            json.dumps({"dimension": 4, "shards": [{**shard, "shard_id": True}]}),
        ):
            (out / "manifest.json").write_text(text)
            assert run(tmp_path, "--config", "cfg.json", "import") == 2, text
            assert "error:" in capsys.readouterr().err, text
        (out / "manifest.json").write_text(json.dumps({"dimension": 4, "shards": [shard]}))
        assert run(tmp_path, "--config", "cfg.json", "import") == 0

    def test_unparsable_manifest_names_its_path(self, pipeline, tmp_path, capsys):
        """A truncated manifest and one that is not UTF-8 end `import` and
        `label` in exit 2, with the manifest's path in the error."""
        good = (pipeline / "run" / "manifest.json").read_bytes()
        (tmp_path / "cfg.json").write_text(json.dumps({**CONFIG, "manifest": "m/manifest.json"}))
        (tmp_path / "m").mkdir()
        for name, text in (("truncated", good[: len(good) // 2]), ("not UTF-8", b"\xff" + good)):
            (tmp_path / "m" / "manifest.json").write_bytes(text)
            for command in ("import", "label"):
                assert run(tmp_path, "--config", "cfg.json", command) == 2, (name, command)
                assert capsys.readouterr().err.startswith(
                    "error: m/manifest.json: malformed manifest: "
                ), (name, command)

    def test_eval_without_model_leaves_no_partial_output(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        assert run(tmp_path, "--config", "cfg.json", "label") == 0
        # no train step: eval must fail on the missing model and write nothing
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        out = tmp_path / "run"
        assert not (out / "traces.jsonl").exists()
        assert not (out / "report.json").exists()

    def test_failed_write_leaves_no_file(self, tmp_path):
        """A write that fails part-way, as on a full disk, takes the files
        written before it and its own half-written .tmp with it."""

        class DiskFull(list):
            def __iter__(self):
                yield b"partial"
                raise OSError(errno.ENOSPC, "No space left on device")

        (tmp_path / "kept.txt").write_text("kept")
        before = file_snapshot(tmp_path)
        out = tmp_path / "out"
        files = {out / "a.bin": b"a", out / "b.bin": DiskFull(), out / "c.bin": b"c"}
        with pytest.raises(OSError, match="No space left on device"):
            fedvec.cli._write_all(files)
        assert file_snapshot(tmp_path) == before

    def test_missing_traces_for_report(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"out": "run"}))
        assert run(tmp_path, "--config", "cfg.json", "report") == 2
        assert "cannot read traces" in capsys.readouterr().err

    def test_traces_not_utf8(self, pipeline, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "traces.jsonl").write_bytes(
            b"\xff" + (pipeline / "run" / "traces.jsonl").read_bytes()
        )
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "report") == 2
        assert capsys.readouterr().err.startswith("error: cannot read traces run/traces.jsonl: ")
        assert file_snapshot(tmp_path) == before

    def test_malformed_traces_for_report(self, pipeline, tmp_path, capsys):
        """Each broken copy of the pipeline's traces ends `report` in exit 2
        and writes nothing, except one without `latency_ns`, a field the
        report does not read, which rebuilds eval's report files."""
        want = {name: (pipeline / "run" / name).read_bytes() for name in REPORT_FILES}
        clean = [json.loads(line) for line in
                 (pipeline / "run" / "traces.jsonl").read_text().splitlines()]

        def traces(change=lambda row: None, drop_strategy=None, extra=()):
            rows = copy.deepcopy(clean)
            for row in rows:
                change(row)
            return [json.dumps(r) for r in rows if r["strategy"] != drop_strategy] + list(extra)

        def set_predicted(**fields):
            return lambda row: row["strategy"] == "predicted" and row.update(fields)

        cases = {
            "null probabilities": traces(set_predicted(probabilities=None)),
            "empty object line": traces(extra=["{}"]),
            "number line": traces(extra=["5"]),
            "no oracle records": traces(drop_strategy="oracle"),
            "relevant one short": traces(lambda row: row["strategy"] == "predicted" and row["relevant"].pop()),
            "string m": traces(set_predicted(m="3")),
            "thresholds disagree": traces(
                lambda row: row["strategy"] == "predicted" and row["query_id"] % 2 and row.update(threshold=0.3)
            ),
        }
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        out = tmp_path / "run"
        out.mkdir()
        for name, lines in cases.items():
            (out / "traces.jsonl").write_text("\n".join(lines) + "\n")
            assert run(tmp_path, "--config", "cfg.json", "report") == 2, name
            assert capsys.readouterr().err.startswith("error: "), name
            assert not any((out / f).exists() for f in REPORT_FILES), name

        (out / "traces.jsonl").write_text("\n".join(traces(lambda row: row.pop("latency_ns"))) + "\n")
        assert run(tmp_path, "--config", "cfg.json", "report") == 0
        assert {name: (out / name).read_bytes() for name in REPORT_FILES} == want

    def test_report_checks_predicted_selections(self, pipeline, tmp_path, capsys):
        """A predicted record must select p >= threshold, or the lowest-index
        argmax when nothing clears it, and its fallback_used and m must say
        the same: each copy of the traces that breaks one of these for one
        query ends `report` in exit 2 and writes nothing."""
        clean = [json.loads(line) for line in
                 (pipeline / "run" / "traces.jsonl").read_text().splitlines()]
        first = next(i for i, row in enumerate(clean)
                     if row["strategy"] == "predicted" and not row["fallback_used"]
                     and min(row["probabilities"]) < row["threshold"])

        def tie(row):
            # every shard at 0.2 < 0.5: the fallback must take shard 0, not 1
            row.update(probabilities=[0.2] * 3, selected=[0, 1, 0], fallback_used=True, m=1)

        cases = {
            "every shard selected": lambda row: row.update(selected=[1] * 3, m=3),
            "selected missing": lambda row: row.pop("selected"),
            "fallback flag set": lambda row: row.update(fallback_used=True),
            "m one more": lambda row: row.update(m=row["m"] + 1),
            "fallback not the lowest argmax": tie,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        out = tmp_path / "run"
        out.mkdir()
        for name, change in cases.items():
            rows = copy.deepcopy(clean)
            change(rows[first])
            (out / "traces.jsonl").write_text("\n".join(map(json.dumps, rows)) + "\n")
            assert run(tmp_path, "--config", "cfg.json", "report") == 2, name
            assert capsys.readouterr().err.startswith("error: "), name
            assert not any((out / f).exists() for f in REPORT_FILES), name

    def test_report_threshold_is_the_traces_own(self, pipeline, tmp_path, capsys):
        """Traces made at 0.5 and k=3: `report` rebuilds eval's files at 0.5,
        with or without --threshold 0.5; a config threshold of 0.3, from the
        flag or the file, or a k of 5 ends in exit 2 and writes nothing,
        instead of scoring the classifier at a threshold the recorded
        selections were not made with."""
        want = {name: (pipeline / "run" / name).read_bytes() for name in REPORT_FILES}
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        (tmp_path / "at_03.json").write_text(json.dumps({**CONFIG, "threshold": 0.3}))
        out = tmp_path / "run"
        out.mkdir()
        (out / "traces.jsonl").write_bytes((pipeline / "run" / "traces.jsonl").read_bytes())
        before = file_snapshot(tmp_path)
        cases = [
            (["--config", "at_03.json"], "threshold 0.5, not 0.3"),
            (["--config", "cfg.json", "--threshold", "0.3"], "threshold 0.5, not 0.3"),
            (["--config", "cfg.json", "--k", "5"], "k 3, not 5"),
        ]
        for flags, made_at in cases:
            assert run(tmp_path, *flags, "report") == 2
            assert capsys.readouterr().err == (
                f"error: run/traces.jsonl: made at {made_at}; rerun eval\n"
            ), flags
            assert file_snapshot(tmp_path) == before
        for flags in ([], ["--threshold", "0.5"]):
            assert run(tmp_path, "--config", "cfg.json", *flags, "report") == 0
            assert {name: (out / name).read_bytes() for name in REPORT_FILES} == want

    def test_train_without_labels(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read hit counts run/hits.npy: ")
        assert err.endswith("; run label first\n")

    def test_labels_without_table_fields(self, tmp_path, capsys):
        """A hits.npy of another record layout."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        np.save(tmp_path / "run" / "hits.npy", np.zeros(5))
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run/hits.npy: expected records ")
        assert err.endswith("; rerun label\n")
        assert not (tmp_path / "run" / "router.rrm").exists()

    def test_train_rejects_hits_of_another_k(self, tmp_path, capsys):
        """Counts labelled at k 3 split each query's top-3, not the config's
        top-10: train exits 2 and writes nothing."""
        (tmp_path / "cfg.json").write_text(json.dumps({**CONFIG, "k": 10}))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        assert run(tmp_path, "--config", "cfg.json", "--k", "3", "label") == 0
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run/hits.npy: ")
        assert err.endswith("rerun label at k=10\n")
        assert file_snapshot(tmp_path) == before

    def test_train_rejects_hits_of_other_queries(self, tmp_path, capsys):
        """synth reruns with 90 training queries after label counted 80:
        train exits 2 and writes nothing."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        more = {**CONFIG, "synthetic": {**CONFIG["synthetic"], "n_train_queries": 90}}
        (tmp_path / "cfg.json").write_text(json.dumps(more))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        before = file_snapshot(tmp_path)
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        assert capsys.readouterr().err == (
            "error: run/hits.npy: query ids differ from run/queries_train.fvr; rerun label\n"
        )
        assert file_snapshot(tmp_path) == before

    def test_non_finite_feature_in_labels(self, tmp_path, capsys):
        """One NaN coordinate in a training query, then in a validation one."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        queries = tmp_path / "run" / "queries_train.fvr"
        qids, clean = read_vectors(queries)
        for in_split in split_by_query(qids, SplitSpec(), CONFIG["seed"])[:2]:
            qvecs = clean.copy()
            qvecs[in_split.argmax(), 2] = np.nan
            queries.write_bytes(vector_file_bytes(qids, qvecs))
            assert run(tmp_path, "--config", "cfg.json", "train") == 2
            assert "error: non-finite feature value" in capsys.readouterr().err
            assert not (tmp_path / "run" / "router.rrm").exists()

    def test_out_of_range_train_config(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        bad = {**CONFIG, "train": {**CONFIG["train"], "epochs": 0}}
        (tmp_path / "cfg.json").write_text(json.dumps(bad))
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        assert ("error: bad 'train' config block: epochs must be positive"
                in capsys.readouterr().err)
        assert not (tmp_path / "run" / "router.rrm").exists()

    def test_empty_training_split(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        bad = {**CONFIG, "split": {"train_frac": 0, "val_frac": 0.5, "test_frac": 0.5}}
        (tmp_path / "cfg.json").write_text(json.dumps(bad))
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        assert capsys.readouterr().err == "error: training split is empty\n"
        assert not (tmp_path / "run" / "router.rrm").exists()

    def test_labels_outside_zero_one(self, tmp_path, capsys):
        """train labels a pair 1 iff its hit count is positive, so no label
        falls outside 0 and 1; a negative count is rejected before that."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        hits_path = tmp_path / "run" / "hits.npy"
        hits = np.load(hits_path)
        hits["shard_1"][5] += hits["shard_0"][5] + 1
        hits["shard_0"][5] = -1
        np.save(hits_path, hits)
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        assert capsys.readouterr().err == (
            "error: run/hits.npy: counts do not split each query's top-3 over the shards; "
            "rerun label at k=3\n"
        )
        assert not (tmp_path / "run" / "router.rrm").exists()

    def test_diverging_training(self, tmp_path, capsys, monkeypatch):
        """A learning rate of 1e30 overflows the weights in the first epoch:
        train ends in exit 2 with numpy's warnings as errors, and writes
        neither the model nor the training log. Batches of 32 split the toy's
        72 training rows into three steps, so the weights overflow within
        epoch 1; in one batch of 128, epoch 1's loss is taken before its only
        step."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        monkeypatch.setattr(fedvec.router, "LR_MIN", 1e30)
        monkeypatch.setattr(fedvec.router, "LR_MAX", 1e30)
        monkeypatch.setattr(fedvec.router, "BATCH_SIZE", 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "--config", "cfg.json", "train") == 2
        assert capsys.readouterr().err.startswith("error: training diverged at epoch 1")
        assert not (tmp_path / "run" / "router.rrm").exists()
        assert not (tmp_path / "run" / "training_log.csv").exists()

    def test_standardized_value_beyond_float32(self, tmp_path, capsys):
        """Coordinate 0 is 0.5 in every query, so feature 0 is constant over
        the training rows and its std is floored at 1e-8, and one validation
        query's sits 1e31 away: it standardizes to 1e39, finite in float64
        but not in float32."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        queries = tmp_path / "run" / "queries_train.fvr"
        qids, qvecs = read_vectors(queries)
        _, in_val, _ = split_by_query(qids, SplitSpec(), CONFIG["seed"])
        qvecs[:, 0] = 0.5
        qvecs[in_val.argmax(), 0] = 0.5 + 1e31
        queries.write_bytes(vector_file_bytes(qids, qvecs))
        assert run(tmp_path, "--config", "cfg.json", "train") == 2
        assert "error: non-finite input" in capsys.readouterr().err
        assert not (tmp_path / "run" / "router.rrm").exists()

    def test_manifest_without_shards(self, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "manifest.json").write_text('{"dimension": 32, "shards": []}')
        (tmp_path / "cfg.json").write_text(json.dumps({"out": "run"}))
        for command in ("import", "eval"):
            assert run(tmp_path, "--config", "cfg.json", command) == 2
            assert "lists no shards" in capsys.readouterr().err

    def test_eval_rejects_model_of_other_width_before_scanning(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        assert run(tmp_path, "--config", "cfg.json", "synth") == 0
        width = feature_dim(5)  # the shards have dim 4
        model = RouterModel(
            init_params(width, np.random.default_rng(0)),
            ScalerParams(np.zeros(width), np.ones(width)),
            threshold=0.5,
            seed=0,
        )
        (tmp_path / "run" / "router.rrm").write_bytes(serialize_model(model))

        def no_scan(*args):
            raise AssertionError("eval scanned shards or read hits.npy")

        for module in (fedvec.store, fedvec.federation, fedvec.cli):
            for name in ("search_batch", "search_top_k", "naive_hit_counts", "_read_hits"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_scan)
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        assert capsys.readouterr().err == NOT_TRAINED_HERE

    def test_eval_rejects_malformed_hits(self, tmp_path, capsys):
        """eval reads label's hits.npy instead of scanning: a missing file,
        another record layout or width, other query ids, a negative count,
        fields in another shard order than the manifest's or counts of
        another k end in exit 2 and write nothing."""
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
        for command in ("synth", "label", "train"):
            assert run(tmp_path, "--config", "cfg.json", command) == 0
        out = tmp_path / "run"
        hits_path = out / "hits.npy"
        clean = np.load(hits_path)
        counts = hit_counts(clean)

        def with_hits(counts, dtype="<i8"):
            names = [f"shard_{i}" for i in range(counts.shape[1])]
            table = np.zeros(len(clean), dtype=[("query_id", "<i8")] + [(n, dtype) for n in names])
            table["query_id"] = clean["query_id"]
            for name, column in zip(names, counts.T):
                table[name] = column
            return table

        negative = clean.copy()
        negative["shard_1"][5] += negative["shard_0"][5] + 1
        negative["shard_0"][5] = -1
        cases = {
            "missing": (None, "cannot read hit counts"),
            "int32 counts": (with_hits(counts, "<i4"), "expected records"),
            "plain array": (counts, "expected records"),
            "one column more": (with_hits(np.pad(counts, ((0, 0), (0, 1)))), "expected records"),
            "query ids reversed": (clean[::-1], "query ids differ"),
            "negative count": (negative, "counts do not split"),
        }
        for name, (table, message) in cases.items():
            hits_path.unlink(missing_ok=True)
            if table is not None:
                np.save(hits_path, table)
            assert run(tmp_path, "--config", "cfg.json", "eval") == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, (name, err)
            assert not (out / "traces.jsonl").exists() and not (out / "report.json").exists(), name

        # The manifest's shards reordered after label.
        np.save(hits_path, clean)
        manifest = out / "manifest.json"
        listed = manifest.read_text()
        doc = json.loads(listed)
        doc["shards"].reverse()
        manifest.write_text(json.dumps(doc))
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith("; rerun label"), err
        assert "('shard_2', '<i8'), ('shard_1', '<i8'), ('shard_0', '<i8')], got" in err
        assert not (out / "traces.jsonl").exists() and not (out / "report.json").exists()
        manifest.write_text(listed)

        # Counts labelled at another k.
        assert run(tmp_path, "--config", "cfg.json", "--k", "5", "label") == 0
        assert run(tmp_path, "--config", "cfg.json", "eval") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rerun label at k=3" in err
        assert not (out / "traces.jsonl").exists() and not (out / "report.json").exists()
