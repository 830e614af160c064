"""``repro batch`` CLI: argument validation matrix and end-to-end runs."""

import io
import json

import pytest

from repro.cli import main

from tests.batch.conftest import make_corpus


@pytest.fixture()
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    ids = make_corpus(path, 30)
    return path, ids


class TestValidation:
    """Every bad invocation exits 2 with an error on stderr — before any
    model loading or file writing happens."""

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["batch", "--window", "0"], "--window"),
            (["batch", "--window", "-5"], "--window"),
            (["batch", "--jobs", "0"], "--jobs"),
            (["batch", "--k", "0"], "k"),
            (["batch", "-", "extra.jsonl"], "stdin"),
            (["batch", "-", "--output-dir", "out"], "stdin"),
            (["batch", "-", "--jobs", "2"], "stdin"),
            (["batch", "--resume"], "--resume"),
            (["batch", "--resume", "--output", "-"], "--resume"),
            (["batch", "missing-input.jsonl"], "not a readable file"),
        ],
    )
    def test_bad_invocations(self, argv, fragment, capsys):
        code, err = self.run(argv, capsys)
        assert code == 2
        assert fragment in err

    def test_output_conflicts_with_output_dir(self, corpus, capsys, tmp_path):
        source, _ = corpus
        code, err = self.run(
            ["batch", str(source), "--output", "a", "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2 and "--output-dir" in err

    def test_multiple_inputs_need_output_dir(self, corpus, tmp_path, capsys):
        source, _ = corpus
        second = tmp_path / "more.jsonl"
        make_corpus(second, 3)
        code, err = self.run(["batch", str(source), str(second)], capsys)
        assert code == 2 and "--output-dir" in err

    def test_process_backend_refused_before_any_output(self, corpus, tmp_path, capsys):
        source, _ = corpus
        target = tmp_path / "out.jsonl"
        code, err = self.run(
            ["batch", str(source), "--output", str(target), "--shards", "2",
             "--backend", "processes"],
            capsys,
        )
        assert code == 2
        assert "unknown backend 'processes'; available: numpy, threads, remote" in err
        assert not target.exists()

    def test_resume_to_stdout_rejected(self, corpus, capsys):
        source, _ = corpus
        code, err = self.run(["batch", str(source), "--resume"], capsys)
        assert code == 2 and "--resume" in err

    def test_duplicate_basenames_rejected(self, corpus, tmp_path, capsys):
        source, _ = corpus
        clone_dir = tmp_path / "clone"
        clone_dir.mkdir()
        clone = clone_dir / source.name
        make_corpus(clone, 3)
        code, err = self.run(
            ["batch", str(source), str(clone), "--output-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 2 and "basename" in err

    def test_output_must_not_overwrite_input(self, corpus, capsys):
        source, _ = corpus
        code, err = self.run(
            ["batch", str(source), "--output", str(source)], capsys
        )
        assert code == 2 and "overwrite" in err


class TestEndToEnd:
    def test_single_file_run(self, batch_checkpoint, corpus, tmp_path, capsys):
        source, ids = corpus
        target = tmp_path / "scored.jsonl"
        code = main(
            [
                "batch",
                str(source),
                "--checkpoint",
                str(batch_checkpoint),
                "--output",
                str(target),
                "--window",
                "8",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert [row["id"] for row in rows] == ids
        assert all("herbs" in row for row in rows)
        assert "rec/s" in captured.err  # throughput report

    def test_stdin_to_stdout(self, batch_checkpoint, corpus, capsys, monkeypatch):
        source, ids = corpus

        class FakeStdin:
            buffer = io.BytesIO(source.read_bytes())

        monkeypatch.setattr("sys.stdin", FakeStdin())
        code = main(["batch", "--checkpoint", str(batch_checkpoint), "--window", "8"])
        captured = capsys.readouterr()
        assert code == 0
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert [row["id"] for row in rows] == ids

    def test_multi_file_output_dir_with_jobs(
        self, batch_checkpoint, tmp_path, capsys
    ):
        sources = []
        for name, count in (("a.jsonl", 12), ("b.jsonl", 7)):
            path = tmp_path / name
            make_corpus(path, count, start=len(sources) * 1000)
            sources.append((path, count))
        out_dir = tmp_path / "scored"
        code = main(
            [
                "batch",
                *[str(path) for path, _ in sources],
                "--checkpoint",
                str(batch_checkpoint),
                "--output-dir",
                str(out_dir),
                "--jobs",
                "2",
                "--window",
                "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        for path, count in sources:
            produced = (out_dir / path.name).read_text().splitlines()
            assert len(produced) == count
        assert captured.err.count("->") == 2  # one per-file stats line each

    def test_resume_noop_after_complete_run(
        self, batch_checkpoint, corpus, tmp_path, capsys
    ):
        source, ids = corpus
        target = tmp_path / "scored.jsonl"
        base = [
            "batch",
            str(source),
            "--checkpoint",
            str(batch_checkpoint),
            "--output",
            str(target),
        ]
        assert main(base) == 0
        before = target.read_bytes()
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert target.read_bytes() == before
        assert f"{len(ids)} already durable" in captured.err

    def test_runtime_failure_exits_one(self, batch_checkpoint, tmp_path, capsys):
        """A file that disappears between validation and scoring exits 1."""
        good = tmp_path / "good.jsonl"
        make_corpus(good, 3)
        vanishing = tmp_path / "vanishing.jsonl"
        make_corpus(vanishing, 3)
        out_dir = tmp_path / "out"

        import repro.batch.runner as runner_module

        original = runner_module.run_batch_file

        def sabotage(catalog, input_path, output_path, **kwargs):
            if input_path is not None and "vanishing" in str(input_path):
                raise runner_module.BatchError("boom: file vanished")
            return original(catalog, input_path, output_path, **kwargs)

        import unittest.mock

        with unittest.mock.patch.object(runner_module, "run_batch_file", sabotage):
            code = main(
                [
                    "batch",
                    str(good),
                    str(vanishing),
                    "--checkpoint",
                    str(batch_checkpoint),
                    "--output-dir",
                    str(out_dir),
                ]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert "boom" in captured.err
        assert (out_dir / "good.jsonl").exists()  # the healthy file still scored
