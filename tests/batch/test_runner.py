"""Streaming-runner behaviour: order, isolation, edge files, bounded window."""

import itertools
import json

import pytest

from repro.batch.checkpoint import BatchCheckpoint, checkpoint_path_for
from repro.batch.runner import (
    BatchError,
    BatchStats,
    run_batch_file,
    run_batch_files,
    score_lines,
    stream_results,
)
from repro.inference.engine import Recommendation


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestScoreLines:
    def test_one_output_line_per_input_in_order(self, batch_catalog, batch_pipeline):
        lines = [
            json.dumps({"id": "a", "symptoms": [0, 3], "k": 2}),
            "garbage",
            json.dumps({"id": "b", "symptoms": ["nope"], "k": 2}),
            json.dumps({"id": "c", "symptoms": [1], "k": 2, "model": "nosuch"}),
            json.dumps({"id": "d", "symptoms": [5], "k": 3}),
        ]
        out = [json.loads(line) for line in score_lines(batch_catalog, lines, default_k=2)]
        assert [o["id"] for o in out] == ["a", None, "b", "c", "d"]
        assert "herbs" in out[0] and "herbs" in out[4]
        assert "error" in out[1] and "error" in out[2] and "error" in out[3]
        assert "unknown model" in out[3]["error"]
        # scored lines are bit-identical to direct Pipeline calls
        expected = batch_pipeline.recommend([0, 3], k=2)
        assert out[0]["herb_ids"] == list(expected.herb_ids)
        assert out[0]["scores"] == [float(s) for s in expected.scores]

    def test_stats_counting(self, batch_catalog):
        stats = BatchStats()
        score_lines(
            batch_catalog,
            [json.dumps({"id": 1, "symptoms": [0]}), "junk"],
            default_k=2,
            stats=stats,
        )
        assert (stats.records, stats.ok, stats.errors) == (2, 1, 1)

    def test_default_k_applies(self, batch_catalog, batch_pipeline):
        line = json.dumps({"id": 1, "symptoms": [2]})
        out = json.loads(score_lines(batch_catalog, [line], default_k=4)[0])
        assert len(out["herb_ids"]) == 4

    def test_huge_k_clamps_to_vocabulary(self, batch_catalog, batch_pipeline):
        line = json.dumps({"id": 1, "symptoms": [2], "k": 10**9})
        out = json.loads(score_lines(batch_catalog, [line], default_k=2)[0])
        assert len(out["herb_ids"]) == len(batch_pipeline.herb_vocab)

    def test_explicit_model_routes_to_entry(self, batch_catalog):
        line = json.dumps({"id": 1, "symptoms": [0], "k": 2, "model": "SMGCN"})
        out = json.loads(score_lines(batch_catalog, [line], default_k=2)[0])
        assert out["model"] == "SMGCN"

    def test_duplicate_ids_pass_through(self, batch_catalog):
        lines = [json.dumps({"id": "dup", "symptoms": [i], "k": 1}) for i in range(3)]
        out = [json.loads(line) for line in score_lines(batch_catalog, lines, default_k=1)]
        assert [o["id"] for o in out] == ["dup"] * 3

    def test_non_finite_scores_become_error_lines(self):
        """A model emitting NaN yields an error line, never invalid JSON."""

        class NaNPipeline:
            class _Vocab:
                def __contains__(self, token):
                    return True

                def id_of(self, token):
                    return 0

                def token_of(self, index):
                    return str(index)

                def __len__(self):
                    return 10

            symptom_vocab = _Vocab()
            herb_vocab = _Vocab()

            def _recommend_ids(self, sets, ks):
                return [
                    Recommendation(herb_ids=(0,), scores=(float("nan"),))
                    for _ in sets
                ]

        class FakeEntry:
            name = "nan-model"
            canary = None

            def lease(self):
                import contextlib

                @contextlib.contextmanager
                def ctx():
                    yield NaNPipeline()

                return ctx()

        class FakeCatalog:
            def entry(self, name=None):
                return FakeEntry()

        out = score_lines(FakeCatalog(), [json.dumps({"id": "x", "symptoms": [1]})])
        parsed = json.loads(out[0])
        assert parsed["id"] == "x"
        assert "non-finite" in parsed["error"]


class TestStreamResults:
    def test_accepts_dicts_bytes_and_strings(self, batch_catalog):
        records = [
            {"id": 1, "symptoms": [0], "k": 1},
            json.dumps({"id": 2, "symptoms": [1], "k": 1}),
            json.dumps({"id": 3, "symptoms": [2], "k": 1}).encode("utf-8"),
        ]
        out = [json.loads(line) for line in stream_results(batch_catalog, records)]
        assert [o["id"] for o in out] == [1, 2, 3]

    def test_blank_lines_are_skipped(self, batch_catalog):
        records = ["", "   ", json.dumps({"id": 1, "symptoms": [0], "k": 1}), "\n"]
        stats = BatchStats()
        out = list(stream_results(batch_catalog, records, stats=stats))
        assert len(out) == 1
        assert stats.blank_lines == 3

    def test_lazy_bounded_consumption(self, batch_catalog):
        """The generator never reads far beyond one window ahead."""
        consumed = [0]

        def infinite():
            i = 0
            while True:
                consumed[0] += 1
                yield {"id": i, "symptoms": [i % 30], "k": 1}
                i += 1

        window = 8
        results = stream_results(batch_catalog, infinite(), window=window)
        taken = list(itertools.islice(results, 20))
        assert len(taken) == 20
        assert consumed[0] <= 4 * window  # bounded read-ahead, not the corpus

    def test_rejects_bad_window(self, batch_catalog):
        with pytest.raises(ValueError):
            list(stream_results(batch_catalog, [], window=0))

    def test_pipeline_recommend_stream_matches_recommend(self, batch_pipeline):
        records = [{"id": i, "symptoms": [i % 30, (i + 5) % 30], "k": 3} for i in range(12)]
        streamed = list(batch_pipeline.recommend_stream(iter(records), k=3, window=5))
        assert [r["id"] for r in streamed] == list(range(12))
        for record, result in zip(records, streamed):
            expected = batch_pipeline.recommend(record["symptoms"], k=3)
            assert result["herb_ids"] == list(expected.herb_ids)
            assert result["scores"] == [float(s) for s in expected.scores]

    def test_pipeline_recommend_stream_rejects_bad_k(self, batch_pipeline):
        with pytest.raises(ValueError):
            next(batch_pipeline.recommend_stream([], k=0))


class TestRunBatchFile:
    def test_empty_input_file_completes_cleanly(self, batch_catalog, tmp_path):
        """Classic streaming edge: an empty corpus is a valid, complete run."""
        source = tmp_path / "empty.jsonl"
        source.write_text("")
        target = tmp_path / "out.jsonl"
        stats = run_batch_file(batch_catalog, source, target, window=8)
        assert stats.records == 0
        assert target.read_bytes() == b""
        state = BatchCheckpoint.load(checkpoint_path_for(target))
        assert state.complete
        # and resume on the empty-complete run stays a no-op
        again = run_batch_file(batch_catalog, source, target, window=8, resume=True)
        assert again.records == 0 and target.read_bytes() == b""

    def test_final_line_without_trailing_newline(self, batch_catalog, tmp_path):
        """The other classic: a truncated final newline must not drop a record."""
        source = tmp_path / "in.jsonl"
        body = json.dumps({"id": "a", "symptoms": [0], "k": 1}) + "\n"
        body += json.dumps({"id": "b", "symptoms": [1], "k": 1})  # no newline
        source.write_text(body)
        target = tmp_path / "out.jsonl"
        stats = run_batch_file(batch_catalog, source, target, window=8)
        assert stats.records == 2
        out = [json.loads(line) for line in read_lines(target)]
        assert [o["id"] for o in out] == ["a", "b"]
        assert target.read_text().endswith("\n")  # output is well-formed JSONL
        assert BatchCheckpoint.load(checkpoint_path_for(target)).complete

    def test_blank_only_file(self, batch_catalog, tmp_path):
        source = tmp_path / "blank.jsonl"
        source.write_text("\n\n   \n")
        target = tmp_path / "out.jsonl"
        stats = run_batch_file(batch_catalog, source, target, window=8)
        assert stats.records == 0 and stats.blank_lines == 3
        assert target.read_bytes() == b""
        assert BatchCheckpoint.load(checkpoint_path_for(target)).complete

    def test_output_is_window_invariant(self, batch_catalog, corpus_factory, tmp_path):
        source, _ = corpus_factory(40)
        outputs = []
        for window in (1, 7, 64):
            target = tmp_path / f"out-{window}.jsonl"
            run_batch_file(batch_catalog, source, target, window=window)
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_interleaved_errors_keep_positions(self, batch_catalog, tmp_path):
        source = tmp_path / "mixed.jsonl"
        lines = []
        for i in range(30):
            if i % 5 == 2:
                lines.append("junk %d" % i)
            else:
                lines.append(json.dumps({"id": i, "symptoms": [i % 30], "k": 1}))
        source.write_text("\n".join(lines) + "\n")
        target = tmp_path / "out.jsonl"
        stats = run_batch_file(batch_catalog, source, target, window=4)
        assert stats.records == 30
        assert stats.errors == 6
        out = [json.loads(line) for line in read_lines(target)]
        assert len(out) == 30
        for i, record in enumerate(out):
            if i % 5 == 2:
                assert "error" in record
            else:
                assert record["id"] == i and "herbs" in record

    def test_fresh_run_removes_stale_sidecar(self, batch_catalog, corpus_factory, tmp_path):
        source, _ = corpus_factory(5)
        target = tmp_path / "out.jsonl"
        run_batch_file(batch_catalog, source, target, window=2)
        sidecar = checkpoint_path_for(target)
        first = BatchCheckpoint.load(sidecar)
        run_batch_file(batch_catalog, source, target, window=3)  # no resume: fresh
        assert BatchCheckpoint.load(sidecar).complete
        assert BatchCheckpoint.load(sidecar).records_done == first.records_done

    def test_missing_input_raises_batch_error(self, batch_catalog, tmp_path):
        with pytest.raises(BatchError):
            run_batch_file(batch_catalog, tmp_path / "nope.jsonl", tmp_path / "out.jsonl")

    def test_rejects_bad_window(self, batch_catalog, tmp_path):
        with pytest.raises(ValueError):
            run_batch_file(batch_catalog, None, None, window=0)

    def test_resume_requires_files(self, batch_catalog, tmp_path):
        with pytest.raises(BatchError):
            run_batch_file(batch_catalog, None, tmp_path / "out.jsonl", resume=True)


class TestRunBatchFiles:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_multi_file_fanout_matches_single_runs(
        self, batch_catalog, tmp_path, jobs
    ):
        from tests.batch.conftest import make_corpus

        tasks = []
        for name, count in (("a", 17), ("b", 5), ("c", 23)):
            source = tmp_path / f"{name}.jsonl"
            make_corpus(source, count, start=ord(name) * 100)
            tasks.append((source, tmp_path / f"{name}.out.jsonl"))
        results = run_batch_files(batch_catalog, tasks, jobs=jobs, window=8)
        assert [r.failed for r in results] == [False, False, False]
        assert [r.stats.records for r in results] == [17, 5, 23]
        for source, target in tasks:
            solo = tmp_path / (source.name + ".solo")
            run_batch_file(batch_catalog, source, solo, window=8)
            assert target.read_bytes() == solo.read_bytes()

    def test_one_failing_file_does_not_poison_the_rest(self, batch_catalog, tmp_path):
        from tests.batch.conftest import make_corpus

        good = tmp_path / "good.jsonl"
        make_corpus(good, 4)
        tasks = [
            (tmp_path / "missing.jsonl", tmp_path / "missing.out"),
            (good, tmp_path / "good.out"),
        ]
        results = run_batch_files(batch_catalog, tasks, jobs=2, window=4)
        assert results[0].failed and not results[1].failed
        assert results[1].stats.records == 4

    def test_rejects_bad_jobs(self, batch_catalog):
        with pytest.raises(ValueError):
            run_batch_files(batch_catalog, [], jobs=0)
