"""Model catalog tests: routing, zero-downtime publish, watcher, canary.

The invariants under test are the rollout safety contract:

* a publish swaps an entry atomically — leases taken before the swap finish
  on the old generation, which is closed only when the last one drains;
* the same published version answers bit-identically before, during and
  after a rollout of *another* entry;
* failed publishes (missing, corrupt, wrong-suffix checkpoints) leave the
  entry serving exactly what it served before;
* the watcher republishes on content changes only — touches and rewrites of
  identical bytes roll nothing.
"""

import json
import threading

import pytest

from repro.api import Pipeline
from repro.experiments.datasets import get_profile
from repro.io import (
    CanaryState,
    CatalogError,
    CheckpointError,
    CheckpointWatcher,
    ModelCatalog,
)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Two real SMGCN checkpoints (different seeds => different answers)."""
    directory = tmp_path_factory.mktemp("catalog-ckpts")
    config = get_profile("smoke").trainer_config(epochs=1)
    paths = {}
    for name, seed in (("a", 0), ("b", 7)):
        pipeline = Pipeline("SMGCN", scale="smoke", seed=seed, trainer_config=config).fit()
        paths[name] = directory / f"smgcn-{name}.npz"
        pipeline.save(paths[name])
        pipeline.close()
    return paths


def answer(pipeline, query="0 3", k=5):
    return " ".join(pipeline.decode_herbs(pipeline.recommend(query, k=k)))


def catalog_answer(catalog, name=None, query="0 3", k=5):
    with catalog.lease(name) as pipeline:
        return answer(pipeline, query, k=k)


@pytest.fixture()
def catalog(checkpoints):
    catalog = ModelCatalog()
    catalog.add("a", Pipeline.load(checkpoints["a"]), checkpoint_path=checkpoints["a"])
    catalog.add("b", Pipeline.load(checkpoints["b"]), checkpoint_path=checkpoints["b"])
    yield catalog
    catalog.close()


class TestCatalogBasics:
    def test_first_entry_is_the_default(self, catalog):
        assert catalog.default_name == "a"
        assert catalog.names() == ["a", "b"]
        assert catalog.entry().name == "a"
        assert "a" in catalog and "missing" not in catalog

    def test_unknown_entry_names_the_served_models(self, catalog):
        with pytest.raises(CatalogError, match="unknown model 'zzz'.*a, b"):
            catalog.entry("zzz")

    def test_duplicate_add_rejected(self, catalog, checkpoints):
        with pytest.raises(CatalogError, match="already in the catalog"):
            catalog.add("a", Pipeline.load(checkpoints["a"]))

    def test_entries_answer_independently(self, catalog, checkpoints):
        baseline_a = answer(Pipeline.load(checkpoints["a"]))
        baseline_b = answer(Pipeline.load(checkpoints["b"]))
        assert catalog_answer(catalog, "a") == baseline_a
        assert catalog_answer(catalog, "b") == baseline_b
        assert catalog_answer(catalog) == baseline_a  # default routes to "a"

    def test_for_pipeline_wraps_single_entry(self, checkpoints):
        pipeline = Pipeline.load(checkpoints["a"])
        catalog = ModelCatalog.for_pipeline(pipeline, checkpoint_path=checkpoints["a"])
        try:
            assert catalog.names() == ["SMGCN"]
            with catalog.lease() as leased:
                assert leased is pipeline
            assert catalog.entry().version.fingerprint is not None
        finally:
            catalog.close()

    def test_describe_is_json_clean(self, catalog):
        records = catalog.describe()
        assert [record["name"] for record in records] == ["a", "b"]
        assert records[0]["default"] and not records[1]["default"]
        assert all(record["version"] == 1 for record in records)
        json.dumps(records)  # must serialise without a custom encoder


class TestPublish:
    def test_publish_bumps_version_and_changes_answers(self, catalog, checkpoints):
        before = catalog_answer(catalog, "a")
        expected = answer(Pipeline.load(checkpoints["b"]))
        version = catalog.publish("a", checkpoints["b"])
        assert version.ordinal == 2
        assert version.fingerprint
        assert catalog.entry("a").versions[0].ordinal == 1
        assert catalog_answer(catalog, "a") == expected
        assert catalog_answer(catalog, "a") != before

    def test_other_entries_bit_identical_across_a_rollout(self, catalog, checkpoints):
        before = catalog_answer(catalog, "b")
        with catalog.lease("b") as held:
            during_held = answer(held)
            catalog.publish("a", checkpoints["b"])
            assert answer(held) == before  # mid-rollout, on a live lease
        assert catalog_answer(catalog, "b") == before == during_held

    def test_inflight_lease_drains_on_old_generation(self, catalog, checkpoints):
        entry = catalog.entry("a")
        with entry.lease() as old_pipeline:
            old_answer = answer(old_pipeline)
            catalog.publish("a", checkpoints["b"])
            # the swap happened, but this lease still scores the old weights
            assert answer(old_pipeline) == old_answer
            assert entry.draining == 1
            assert entry.pipeline is not old_pipeline
        assert entry.draining == 0  # last lease out closed the old generation

    def test_failed_publish_leaves_entry_serving(self, catalog, tmp_path, checkpoints):
        before = catalog_answer(catalog, "a")
        with pytest.raises(CheckpointError, match="no such file"):
            catalog.publish("a", tmp_path / "missing.npz")
        bad_suffix = tmp_path / "weights.bin"
        bad_suffix.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="not a .npz checkpoint"):
            catalog.publish("a", bad_suffix)
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"PK\x03\x04 definitely not a bundle")
        with pytest.raises(Exception):
            catalog.publish("a", corrupt)
        entry = catalog.entry("a")
        assert entry.last_error is not None
        assert entry.version.ordinal == 1
        assert catalog_answer(catalog, "a") == before
        # a later good publish clears the sticky error
        catalog.publish("a", checkpoints["a"])
        assert catalog.entry("a").last_error is None

    def test_publish_unknown_name_adds_an_entry(self, checkpoints):
        catalog = ModelCatalog()
        try:
            version = catalog.publish("fresh", checkpoints["a"])
            assert version.ordinal == 1
            assert catalog.names() == ["fresh"]
            assert catalog.default_name == "fresh"
            assert catalog_answer(catalog, "fresh") == answer(
                Pipeline.load(checkpoints["a"])
            )
        finally:
            catalog.close()

    def test_publish_reuses_the_entrys_serving_knobs(self, checkpoints):
        catalog = ModelCatalog()
        try:
            catalog.add(
                "sharded",
                Pipeline.load(checkpoints["a"], num_shards=2, backend="threads"),
                checkpoint_path=checkpoints["a"],
            )
            catalog.publish("sharded", checkpoints["b"])
            rolled = catalog.entry("sharded").pipeline
            assert rolled.options.num_shards == 2
            assert rolled.options.backend == "threads"
        finally:
            catalog.close()

    def test_concurrent_traffic_during_publish_never_errors(self, catalog, checkpoints):
        answers = {
            1: answer(Pipeline.load(checkpoints["a"])),
            2: answer(Pipeline.load(checkpoints["b"])),
        }
        failures = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    assert catalog_answer(catalog, "a") in answers.values()
                except Exception as error:  # noqa: BLE001
                    failures.append(error)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for target in (checkpoints["b"], checkpoints["a"], checkpoints["b"]):
                catalog.publish("a", target)
        finally:
            stop.set()
            for thread in threads:
                thread.join(30)
        assert not failures, f"a request failed mid-rollout: {failures[0]}"


class TestCheckpointWatcher:
    def test_content_change_publishes(self, catalog, checkpoints, tmp_path):
        rolling = tmp_path / "rolling.npz"
        rolling.write_bytes(checkpoints["a"].read_bytes())
        catalog.publish("a", rolling)
        watcher = CheckpointWatcher(catalog, interval_s=0.01)
        watcher.watch("a", rolling)
        assert watcher.poll_once() == []  # baseline: current bytes roll nothing
        rolling.write_bytes(checkpoints["b"].read_bytes())
        assert watcher.poll_once() == ["a"]
        assert catalog.entry("a").version.ordinal == 3
        assert catalog_answer(catalog, "a") == answer(Pipeline.load(checkpoints["b"]))

    def test_touch_without_content_change_rolls_nothing(self, catalog, checkpoints, tmp_path):
        import os

        rolling = tmp_path / "rolling.npz"
        rolling.write_bytes(checkpoints["a"].read_bytes())
        watcher = CheckpointWatcher(catalog, interval_s=0.01)
        watcher.watch("a", rolling)
        os.utime(rolling, (0, 0))
        assert watcher.poll_once() == []
        assert catalog.entry("a").version.ordinal == 1

    def test_corrupt_write_recorded_then_retried_when_fixed(
        self, catalog, checkpoints, tmp_path
    ):
        rolling = tmp_path / "rolling.npz"
        rolling.write_bytes(checkpoints["a"].read_bytes())
        catalog.publish("a", rolling)
        watcher = CheckpointWatcher(catalog, interval_s=0.01)
        watcher.watch("a", rolling)
        rolling.write_bytes(b"PK\x03\x04 torn mid-write")  # trainer still writing
        assert watcher.poll_once() == []  # failure stays in-band
        assert catalog.entry("a").version.ordinal == 2  # still serving the old one
        assert catalog.entry("a").last_error is not None
        rolling.write_bytes(checkpoints["b"].read_bytes())  # write completes
        assert watcher.poll_once() == ["a"]
        assert catalog.entry("a").version.ordinal == 3

    def test_thread_lifecycle(self, catalog):
        watcher = CheckpointWatcher(catalog, interval_s=0.01)
        with watcher:
            assert watcher._thread.is_alive()
            with pytest.raises(RuntimeError, match="already running"):
                watcher.start()
        assert watcher._thread is None

    def test_rejects_non_positive_interval(self, catalog):
        with pytest.raises(ValueError):
            CheckpointWatcher(catalog, interval_s=0.0)


class TestCanary:
    def test_fraction_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(CatalogError, match="fraction"):
                CanaryState(pipeline=None, fraction=bad)

    def test_take_is_deterministic(self):
        canary = CanaryState(pipeline=None, fraction=0.25)
        pattern = [canary.take() for _ in range(8)]
        assert pattern == [False, False, False, True] * 2

    def test_full_fraction_mirrors_everything(self):
        canary = CanaryState(pipeline=None, fraction=1.0)
        assert all(canary.take() for _ in range(5))

    def test_report_aggregates(self):
        canary = CanaryState(pipeline=None, fraction=1.0)
        canary.take()
        canary.take()
        canary.record(matched=True, score_delta=0.5, primary_ms=2.0, shadow_ms=4.0)
        canary.record(matched=False, score_delta=-1.5, primary_ms=4.0, shadow_ms=2.0)
        canary.record_error()
        report = canary.report()
        assert report["seen"] == 2
        assert report["mirrored"] == 2
        assert report["errors"] == 1
        assert report["match_rate"] == 0.5
        assert report["mean_score_delta"] == 1.0  # mean of |deltas|
        assert report["mean_primary_ms"] == 3.0
        assert report["mean_shadow_ms"] == 3.0

    def test_set_and_clear_on_catalog(self, catalog, checkpoints):
        canary = catalog.set_canary("a", checkpoints["b"], fraction=0.5)
        assert catalog.entry("a").canary is canary
        assert "canary" in json.dumps(catalog.describe())
        report = catalog.clear_canary("a")
        assert report["fraction"] == 0.5
        assert catalog.entry("a").canary is None
        assert catalog.clear_canary("a") is None

    def test_cleared_canary_closes_after_its_last_mirror(self, catalog, checkpoints, monkeypatch):
        """A mirror in flight keeps its candidate open; the clear returns at once."""
        from types import SimpleNamespace

        from repro.inference import Recommendation
        from repro.io.catalog import answer as answer_queries

        mirroring, release = threading.Event(), threading.Event()

        class BlockingCandidate:
            herb_vocab = catalog.entry("a").pipeline.herb_vocab
            closes = 0

            def recommend(self, symptoms, k):
                mirroring.set()
                assert release.wait(30), "the test never released the mirror"
                return Recommendation(herb_ids=(0,), scores=(0.0,))

            def close(self):
                self.closes += 1

        candidate = BlockingCandidate()
        monkeypatch.setattr(catalog, "load_pipeline", lambda path, serving=None: candidate)
        catalog.set_canary("a", checkpoints["b"], fraction=1.0)
        query = SimpleNamespace(symptoms="0 3", k=5, model="a")
        answers = []
        worker = threading.Thread(
            target=lambda: answers.extend(answer_queries(catalog, [query])), daemon=True
        )
        worker.start()
        try:
            assert mirroring.wait(30), "the query was never mirrored"
            cleared = threading.Thread(target=catalog.clear_canary, args=("a",), daemon=True)
            cleared.start()
            cleared.join(5)
            assert not cleared.is_alive(), "clear_canary waited for the mirror"
            assert catalog.entry("a").canary is None
            assert candidate.closes == 0, "candidate closed under an in-flight mirror"
        finally:
            release.set()
            worker.join(30)
        assert answers and answers[0].error is None
        assert candidate.closes == 1
        catalog.close()
        assert candidate.closes == 1


class TestApproxRetrievalRollout:
    """The approx tier composes with zero-downtime rollout.

    The approx index is parameter-version-stamped inside the engine, so a
    publish must (1) keep serving the entry's retrieval knobs and (2) answer
    from the *new* weights' index — never a stale one — while the old
    generation's approx cache dies with its drained engine.
    """

    def test_publish_preserves_knobs_and_approx_index_follows_weights(self, checkpoints):
        catalog = ModelCatalog()
        try:
            catalog.add(
                "approx",
                Pipeline.load(checkpoints["a"], retrieval="approx", candidate_factor=2),
                checkpoint_path=checkpoints["a"],
            )
            fresh_a = Pipeline.load(checkpoints["a"], retrieval="approx", candidate_factor=2)
            fresh_b = Pipeline.load(checkpoints["b"], retrieval="approx", candidate_factor=2)
            assert catalog.entry("approx").pipeline.engine.retrieval_active
            assert catalog_answer(catalog, "approx") == answer(fresh_a)
            with catalog.entry("approx").lease() as old_pipeline:
                old_engine = old_pipeline.engine
                assert len(old_engine.index_cache) == 1
                assert old_engine.index_cache.peek()[1] is not None
                catalog.publish("approx", checkpoints["b"])
                # the drained generation still answers from its own index
                assert answer(old_pipeline) == answer(fresh_a)
            assert len(old_engine.index_cache) == 0, "drained engine kept an approx index"
            rolled = catalog.entry("approx").pipeline
            assert rolled.options.retrieval == "approx"
            assert rolled.options.candidate_factor == 2
            assert catalog_answer(catalog, "approx") == answer(fresh_b)
            status = rolled.engine.backend_status()
            assert status["retrieval"] == "approx"
            assert status["approx_requests"] >= 1
        finally:
            catalog.close()


class TestVersionHistory:
    def test_history_is_bounded(self, checkpoints):
        from repro.io import MAX_VERSION_HISTORY
        from repro.io.catalog import ModelVersion

        catalog = ModelCatalog()
        try:
            catalog.add("a", Pipeline.load(checkpoints["a"]), checkpoint_path=checkpoints["a"])
            entry = catalog.entry("a")
            # simulate a long rollout history without paying for real publishes
            for ordinal in range(2, MAX_VERSION_HISTORY + 10):
                entry._swap(
                    Pipeline.load(checkpoints["a"]),
                    ModelVersion(ordinal, str(checkpoints["a"]), None, 0.0),
                )
            assert len(entry.versions) == MAX_VERSION_HISTORY
            assert entry.versions[-1].ordinal == MAX_VERSION_HISTORY + 9
        finally:
            catalog.close()
