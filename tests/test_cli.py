"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.scale == "smoke"
        assert args.output is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table2", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Train" in out

    def test_run_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["run", "fig5", "--scale", "smoke", "--output", str(target)]) == 0
        assert target.exists()
        assert "Fig. 5" in target.read_text()
        assert str(target) in capsys.readouterr().out

    def test_run_training_experiment_smoke(self, capsys):
        assert main(["run", "fig10", "--scale", "smoke"]) == 0
        assert "case study" in capsys.readouterr().out


class TestParseSymptoms:
    @pytest.fixture()
    def vocab(self):
        from repro.cli import _parse_symptoms  # noqa: F401 - import check
        from repro.experiments.datasets import experiment_split

        train, _ = experiment_split("smoke")
        return train.symptom_vocab

    def test_integer_ids(self, vocab):
        from repro.cli import _parse_symptoms

        assert _parse_symptoms("0 3 7", vocab) == [0, 3, 7]

    def test_tokens(self, vocab):
        from repro.cli import _parse_symptoms

        tokens = [vocab.token_of(2), vocab.token_of(5)]
        assert _parse_symptoms(" ".join(tokens), vocab) == [2, 5]

    def test_mixed_tokens_and_ids(self, vocab):
        from repro.cli import _parse_symptoms

        assert _parse_symptoms(f"{vocab.token_of(4)} 1", vocab) == [4, 1]

    def test_unknown_token_rejected(self, vocab):
        from repro.cli import _parse_symptoms

        with pytest.raises(ValueError, match="unknown symptom token"):
            _parse_symptoms("definitely_not_a_symptom", vocab)

    def test_out_of_range_id_rejected(self, vocab):
        from repro.cli import _parse_symptoms

        with pytest.raises(ValueError, match="out of range"):
            _parse_symptoms("99999", vocab)
        with pytest.raises(ValueError, match="out of range"):
            _parse_symptoms("-1", vocab)

    def test_empty_rejected(self, vocab):
        from repro.cli import _parse_symptoms

        with pytest.raises(ValueError, match="no symptoms"):
            _parse_symptoms("   ", vocab)


class TestModelsCommand:
    def test_models_lists_registry(self, capsys):
        from repro.models import MODEL_REGISTRY

        assert main(["models", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        for name in MODEL_REGISTRY.names():
            assert name in out
        assert "SMGCNConfig" in out


class TestTrainCommand:
    def test_train_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "SMGCN"])

    def test_train_writes_checkpoint(self, tmp_path, capsys):
        target = tmp_path / "smgcn.npz"
        code = main(
            ["train", "--model", "SMGCN", "--scale", "smoke", "--epochs", "1",
             "--checkpoint", str(target), "--evaluate"]
        )
        assert code == 0
        assert target.exists()
        out = capsys.readouterr().out
        assert "trained SMGCN" in out
        assert str(target) in out
        assert "p@5=" in out

    def test_train_profile_prints_phase_breakdown(self, tmp_path, capsys):
        target = tmp_path / "profiled.npz"
        code = main(
            ["train", "--model", "SMGCN", "--scale", "smoke", "--epochs", "2",
             "--checkpoint", str(target), "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile:" in out
        assert "forward=" in out
        assert "gradient pool:" in out

    def test_train_verbose_prints_epoch_lines(self, tmp_path, capsys):
        target = tmp_path / "verbose.npz"
        code = main(
            ["train", "--model", "SMGCN", "--scale", "smoke", "--epochs", "2",
             "--checkpoint", str(target), "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[Trainer] epoch 1/2" in out
        assert "[Trainer] epoch 2/2" in out
        assert "pool_hits=" in out

    def test_train_unknown_model(self, tmp_path, capsys):
        code = main(["train", "--model", "DeepHerb", "--checkpoint", str(tmp_path / "x.npz")])
        assert code == 2
        assert "registered models" in capsys.readouterr().err

    def test_train_paper_params(self, tmp_path, capsys):
        target = tmp_path / "paper.npz"
        code = main(
            ["train", "--model", "GC-MC", "--scale", "smoke", "--epochs", "1",
             "--paper-params", "--checkpoint", str(target)]
        )
        assert code == 0
        assert target.exists()

    def test_train_paper_params_keeps_profile_epochs(self, tmp_path, capsys):
        from repro.experiments.datasets import get_profile

        code = main(
            ["train", "--model", "GC-MC", "--scale", "smoke", "--paper-params",
             "--checkpoint", str(tmp_path / "p.npz")]
        )
        assert code == 0
        # lr/lambda come from Table III but the epoch/batch schedule stays the
        # profile's, not TrainerConfig's defaults
        assert f"for {get_profile('smoke').epochs} epochs" in capsys.readouterr().out

    def test_train_unwritable_checkpoint_fails_before_training(self, tmp_path, capsys, monkeypatch):
        # a regular file as the parent "directory" is unwritable for any user
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")

        def boom(*args, **kwargs):
            raise AssertionError("training must not start when the target is unwritable")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        code = main(
            ["train", "--model", "SMGCN", "--scale", "smoke",
             "--checkpoint", str(blocker / "m.npz")]
        )
        assert code == 2
        assert "cannot write checkpoint" in capsys.readouterr().err

    def test_train_paper_params_rejects_non_trainer_model(self, tmp_path, capsys):
        code = main(
            ["train", "--model", "HC-KGETM", "--paper-params",
             "--checkpoint", str(tmp_path / "x.npz")]
        )
        assert code == 2
        assert "no trainer settings" in capsys.readouterr().err


class TestCheckpointServing:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-ckpt") / "smgcn.npz"
        assert (
            main(["train", "--model", "SMGCN", "--scale", "smoke", "--epochs", "1",
                  "--checkpoint", str(path)]) == 0
        )
        return path

    def test_predict_from_checkpoint_does_not_train(self, checkpoint, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("Trainer.fit must not run for --checkpoint predict")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        code = main(["predict", "--checkpoint", str(checkpoint), "--symptoms", "0 3", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "symptoms: symptom_000 symptom_003" in out
        assert out.count("score=") == 2

    def test_predict_checkpoint_matches_in_process_scores(self, checkpoint, capsys):
        from repro.api import Pipeline

        assert main(["predict", "--checkpoint", str(checkpoint), "--symptoms", "0 3"]) == 0
        out = capsys.readouterr().out
        pipeline = Pipeline.load(checkpoint)
        expected = pipeline.recommend([0, 3], k=10)
        for herb_id, score in zip(expected.herb_ids, expected.scores):
            assert f"id={herb_id}" in out
            assert f"score={score:+.4f}" in out

    def test_serve_from_checkpoint(self, checkpoint, capsys, monkeypatch):
        import io

        def boom(*args, **kwargs):
            raise AssertionError("Trainer.fit must not run for --checkpoint serve")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        monkeypatch.setattr("sys.stdin", io.StringIO("0 3\n\n"))
        code = main(["serve", "--checkpoint", str(checkpoint), "--k", "3"])
        assert code == 0
        captured = capsys.readouterr()
        herb_lines = [line for line in captured.out.splitlines() if line.startswith("herb_")]
        assert len(herb_lines) == 1
        assert str(checkpoint) in captured.err

    def test_serve_stdin_burst_preserves_input_ordering(self, checkpoint, capsys, monkeypatch):
        """Piped multi-line input: response N answers request line N, always."""
        import io

        from repro.api import Pipeline

        requests = ["0 3", "1 2", "not_a_symptom", "4", "k=2 0 1", "2 3"]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        code = main(["serve", "--checkpoint", str(checkpoint), "--k", "3"])
        assert code == 0
        captured = capsys.readouterr()
        responses = captured.out.splitlines()
        assert len(responses) == len(requests)
        pipeline = Pipeline.load(checkpoint)
        for request, response in zip(requests, responses):
            if request == "not_a_symptom":
                assert response == "error: unknown symptom token 'not_a_symptom'"
            else:
                k = 2 if request.startswith("k=") else 3
                query = request[len("k=2 "):] if request.startswith("k=") else request
                expected = pipeline.recommend(query, k=k)
                assert response == " ".join(pipeline.decode_herbs(expected))
        assert "serving stats:" in captured.err

    def test_serve_port_round_trip(self, checkpoint, capsys, monkeypatch):
        """`repro serve --port 0` answers over TCP like sequential recommend."""
        import re
        import socket

        from repro.api import Pipeline

        observed = {}

        def query_then_shutdown():
            err = capsys.readouterr().err
            match = re.search(r"listening on ([\d.]+):(\d+)", err)
            assert match, f"no listening line in: {err!r}"
            address = (match.group(1), int(match.group(2)))
            with socket.create_connection(address, timeout=10) as connection:
                reader = connection.makefile("r", encoding="utf-8")
                connection.sendall(b"0 3\n")
                observed["answer"] = reader.readline().strip()
                connection.sendall(b"stats\n")
                observed["stats"] = reader.readline().strip()

        monkeypatch.setattr("repro.cli._wait_for_shutdown_signal", query_then_shutdown)
        code = main(["serve", "--checkpoint", str(checkpoint), "--k", "3", "--port", "0"])
        assert code == 0
        pipeline = Pipeline.load(checkpoint)
        expected = " ".join(pipeline.decode_herbs(pipeline.recommend("0 3", k=3)))
        assert observed["answer"] == expected
        assert observed["stats"].startswith("requests=1 ")
        assert "connections=1" in observed["stats"]

    def test_serve_port_applies_admission_knobs(self, checkpoint, capsys, monkeypatch):
        """Admission flags configure the event-loop server `--port` starts."""
        import re
        import socket

        import repro.serving

        built = {}
        real_server = repro.serving.AsyncSocketServer

        def recording_server(*args, **kwargs):
            built["admission"] = kwargs["admission"]
            return real_server(*args, **kwargs)

        def query_then_shutdown():
            match = re.search(r"listening on ([\d.]+):(\d+)", capsys.readouterr().err)
            assert match, "no listening line"
            address = (match.group(1), int(match.group(2)))
            with socket.create_connection(address, timeout=10) as connection:
                connection.sendall(b"0 3\n")
                built["answer"] = connection.makefile("r", encoding="utf-8").readline()

        monkeypatch.setattr(repro.serving, "AsyncSocketServer", recording_server)
        monkeypatch.setattr("repro.cli._wait_for_shutdown_signal", query_then_shutdown)
        code = main(["serve", "--checkpoint", str(checkpoint), "--k", "3", "--port", "0",
                     "--max-connections", "7", "--max-pending", "9",
                     "--client-quota", "4", "--idle-timeout", "0"])
        assert code == 0
        admission = built["admission"]
        assert admission.max_connections == 7
        assert admission.max_pending == 9
        assert admission.client_quota == 4
        assert admission.idle_timeout_s is None
        assert built["answer"].strip() and not built["answer"].startswith("error")

    def test_predict_missing_checkpoint_errors_cleanly(self, capsys):
        code = main(["predict", "--checkpoint", "/nonexistent/x.npz", "--symptoms", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_predict_checkpoint_scale_mismatch_refused(self, checkpoint, capsys):
        code = main(
            ["predict", "--checkpoint", str(checkpoint), "--scale", "default", "--symptoms", "0"]
        )
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_predict_checkpoint_model_conflict_refused(self, checkpoint, capsys):
        code = main(
            ["predict", "--checkpoint", str(checkpoint), "--model", "NGCF", "--symptoms", "0"]
        )
        assert code == 2
        assert "holds 'SMGCN', not 'NGCF'" in capsys.readouterr().err

    def test_predict_checkpoint_training_flags_refused(self, checkpoint, capsys):
        for flag in (["--epochs", "1"], ["--seed", "7"]):
            code = main(["predict", "--checkpoint", str(checkpoint), "--symptoms", "0", *flag])
            assert code == 2
            assert "only apply when training" in capsys.readouterr().err

    def test_train_epochs_refused_for_self_fitting_model(self, tmp_path, capsys):
        code = main(
            ["train", "--model", "HC-KGETM", "--scale", "smoke", "--epochs", "5",
             "--checkpoint", str(tmp_path / "x.npz")]
        )
        assert code == 2
        assert "ignores TrainerConfig" in capsys.readouterr().err


class TestPredictServe:
    def test_predict_requires_symptoms(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict"])

    def test_predict_smoke(self, capsys):
        code = main(
            ["predict", "--scale", "smoke", "--symptoms", "0 3", "--k", "2", "--epochs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "symptoms: symptom_000 symptom_003" in out
        assert out.count("score=") == 2

    def test_predict_bad_symptom_exits_before_training(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "no_such_token"])
        assert code == 2
        assert "unknown symptom token" in capsys.readouterr().err

    def test_predict_invalid_k(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0", "--k", "0"])
        assert code == 2
        assert "--k must be a positive integer" in capsys.readouterr().err

    def test_serve_round_trip(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 3\nbad_token\n5\n\n"))
        code = main(["serve", "--scale", "smoke", "--k", "3", "--epochs", "1"])
        assert code == 0
        captured = capsys.readouterr()
        responses = captured.out.splitlines()
        # one response line per request line, in input order: a bad request
        # answers with an error *on stdout* so pipe clients stay in sync
        assert len(responses) == 3
        assert responses[0].startswith("herb_") and len(responses[0].split()) == 3
        assert responses[1] == "error: unknown symptom token 'bad_token'"
        assert responses[2].startswith("herb_") and len(responses[2].split()) == 3
        assert "ready:" in captured.err
        assert "serving stats:" in captured.err

    def test_serve_batching_flags_validated(self, capsys):
        code = main(["serve", "--scale", "smoke", "--max-batch", "0"])
        assert code == 2
        assert "--max-batch" in capsys.readouterr().err
        code = main(["serve", "--scale", "smoke", "--max-wait-ms", "-1"])
        assert code == 2
        assert "--max-wait-ms" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port is None
        assert args.host == "127.0.0.1"
        assert args.max_batch == 64
        assert args.max_wait_ms == 5.0
        assert args.shards == 1
        assert args.backend is None
        assert args.workers is None

    def test_help_epilog_documents_train_checkpoint(self):
        help_text = build_parser().format_help()
        assert "train --model SMGCN" in help_text
        assert "--checkpoint" in help_text
        assert "--shards" in help_text
        assert "docs/SERVING.md" in help_text


class TestAdmissionFlags:
    def test_serve_parser_frontend_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.max_connections is None
        assert args.max_pending is None
        assert args.client_quota is None
        assert args.idle_timeout is None

    def test_admission_knobs_require_port(self, capsys):
        code = main(["serve", "--scale", "smoke", "--max-connections", "10"])
        assert code == 2
        assert "--max-connections" in capsys.readouterr().err

    def test_admission_knob_values_validated(self, capsys):
        for flag in ("--max-connections", "--max-pending", "--client-quota"):
            code = main(["serve", "--scale", "smoke", "--port", "0", flag, "0"])
            assert code == 2
            assert flag in capsys.readouterr().err
        code = main(["serve", "--scale", "smoke", "--port", "0", "--idle-timeout", "-1"])
        assert code == 2
        assert "--idle-timeout" in capsys.readouterr().err

    def test_help_epilog_documents_admission(self):
        help_text = build_parser().format_help()
        assert "--max-connections" in help_text


class TestShardingFlags:
    def test_invalid_shards(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0", "--shards", "0"])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_invalid_workers(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0", "--workers", "-2"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_backend_without_shards_refused(self, capsys):
        code = main(
            ["predict", "--scale", "smoke", "--symptoms", "0", "--backend", "threads"]
        )
        assert code == 2
        assert "--shards >= 2" in capsys.readouterr().err
        code = main(["predict", "--scale", "smoke", "--symptoms", "0", "--workers", "2"])
        assert code == 2
        assert "--shards >= 2" in capsys.readouterr().err

    def test_unknown_backend_fails_before_training(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("training must not start for an unknown backend")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        code = main(["predict", "--scale", "smoke", "--symptoms", "0", "--backend", "cuda"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'cuda'" in err
        assert "numpy" in err and "threads" in err

    def test_predict_with_shards_matches_unsharded(self, capsys):
        argv = ["predict", "--scale", "smoke", "--symptoms", "0 3", "--k", "4",
                "--epochs", "1", "--seed", "0"]
        assert main(argv) == 0
        unsharded = capsys.readouterr().out
        assert (
            main(argv + ["--shards", "4", "--backend", "threads", "--workers", "2"]) == 0
        )
        assert capsys.readouterr().out == unsharded

    def test_serve_with_shards(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 3\n\n"))
        code = main(
            ["serve", "--scale", "smoke", "--k", "3", "--epochs", "1",
             "--shards", "2", "--backend", "threads"]
        )
        assert code == 0
        captured = capsys.readouterr()
        responses = captured.out.splitlines()
        assert len(responses) == 1 and responses[0].startswith("herb_")


class TestDistributedFlags:
    """The distributed serving surface: shard-worker verb, threads/remote."""

    def test_shard_worker_parser_defaults(self):
        args = build_parser().parse_args(["shard-worker"])
        assert args.command == "shard-worker"
        assert args.port == 0
        assert args.host == "127.0.0.1"

    def test_serve_parser_worker_addr_accumulates(self):
        args = build_parser().parse_args(
            ["serve", "--shards", "2", "--backend", "remote",
             "--worker-addr", "127.0.0.1:7801", "--worker-addr", "127.0.0.1:7802"]
        )
        assert args.worker_addr == ["127.0.0.1:7801", "127.0.0.1:7802"]

    def test_remote_requires_worker_addr(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0",
                     "--shards", "2", "--backend", "remote"])
        assert code == 2
        assert "--worker-addr" in capsys.readouterr().err

    def test_worker_addr_requires_remote_backend(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0",
                     "--shards", "2", "--backend", "threads",
                     "--worker-addr", "127.0.0.1:7801"])
        assert code == 2
        assert "--backend remote" in capsys.readouterr().err

    def test_worker_addr_conflicts_with_workers(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0",
                     "--shards", "2", "--backend", "remote", "--workers", "2",
                     "--worker-addr", "127.0.0.1:7801"])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_bad_worker_addr_fails_before_training(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("training must not start for a bad worker address")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        code = main(["predict", "--scale", "smoke", "--symptoms", "0",
                     "--shards", "2", "--backend", "remote",
                     "--worker-addr", "nowhere"])
        assert code == 2
        assert "host:port" in capsys.readouterr().err

    def test_worker_addr_needs_sharding(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0",
                     "--backend", "remote", "--worker-addr", "127.0.0.1:7801"])
        assert code == 2
        assert "--shards >= 2" in capsys.readouterr().err

    def test_help_epilog_documents_distributed_serving(self):
        help_text = build_parser().format_help()
        assert "shard-worker" in help_text
        assert "--backend remote" in help_text or "backend remote" in help_text

    def test_predict_with_thread_pool_matches_unsharded(self, capsys):
        argv = ["predict", "--scale", "smoke", "--symptoms", "0 3", "--k", "4",
                "--epochs", "1", "--seed", "0"]
        assert main(argv) == 0
        unsharded = capsys.readouterr().out
        assert (
            main(argv + ["--shards", "4", "--backend", "threads", "--workers", "2"]) == 0
        )
        assert capsys.readouterr().out == unsharded

    def test_serve_refuses_the_process_backend_naming_threads(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("training must not start for an unknown backend")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        code = main(["serve", "--scale", "smoke", "--shards", "2",
                     "--backend", "processes", "--workers", "2"])
        assert code == 2
        assert (
            "unknown backend 'processes'; available: numpy, threads, remote"
            in capsys.readouterr().err
        )

    def test_predict_refuses_the_process_backend(self, capsys):
        code = main(["predict", "--scale", "smoke", "--symptoms", "0", "--shards", "2",
                     "--backend", "processes"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'processes'; available: numpy, threads, remote" in err

    def test_predict_with_remote_workers_matches_unsharded(self, capsys):
        from repro.inference import ShardWorkerServer

        argv = ["predict", "--scale", "smoke", "--symptoms", "0 3", "--k", "4",
                "--epochs", "1", "--seed", "0"]
        assert main(argv) == 0
        unsharded = capsys.readouterr().out
        with ShardWorkerServer() as first, ShardWorkerServer() as second:
            remote_argv = argv + ["--shards", "4", "--backend", "remote"]
            for host, port in (first.address, second.address):
                remote_argv += ["--worker-addr", f"{host}:{port}"]
            assert main(remote_argv) == 0
            assert capsys.readouterr().out == unsharded
            assert first.handler.tasks_executed + second.handler.tasks_executed > 0


class TestModelsJson:
    def test_models_json_is_machine_readable(self, capsys):
        import json

        from repro.models import MODEL_REGISTRY

        assert main(["models", "--json", "--scale", "smoke"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [record["name"] for record in records] == [
            entry.name for entry in MODEL_REGISTRY.entries()
        ]
        for record in records:
            assert record["config_class"]
            assert record["description"]
            assert isinstance(record["default_config"], dict)

    def test_models_json_matches_registry_config_classes(self, capsys):
        import json

        from repro.models import MODEL_REGISTRY

        assert main(["models", "--json", "--scale", "smoke"]) == 0
        records = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        for entry in MODEL_REGISTRY.entries():
            assert records[entry.name]["config_class"] == entry.config_class.__name__


class TestMultiModelServeCLI:
    @pytest.fixture(scope="class")
    def two_checkpoints(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-catalog")
        paths = {}
        for name, seed in (("a", 0), ("b", 7)):
            paths[name] = directory / f"smgcn-{name}.npz"
            assert (
                main(["train", "--model", "SMGCN", "--scale", "smoke", "--epochs", "1",
                      "--seed", str(seed), "--checkpoint", str(paths[name])]) == 0
            )
        return paths

    def _no_training(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("Trainer.fit must not run for catalog serving")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)

    def test_serve_catalog_routes_per_request(self, two_checkpoints, capsys, monkeypatch):
        import io

        from repro.api import Pipeline

        self._no_training(monkeypatch)
        requests = ["model=first 0 3", "model=second 0 3", "0 3", "model=nope 0 3"]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        code = main([
            "serve", "--k", "3",
            "--model", f"first={two_checkpoints['a']}",
            "--model", f"second={two_checkpoints['b']}",
        ])
        assert code == 0
        captured = capsys.readouterr()
        responses = captured.out.splitlines()
        expected = {
            name: " ".join(
                (lambda p: p.decode_herbs(p.recommend("0 3", k=3)))(Pipeline.load(path))
            )
            for name, path in two_checkpoints.items()
        }
        assert responses[0] == expected["a"]
        assert responses[1] == expected["b"]
        assert responses[2] == expected["a"]  # first entry answers unrouted lines
        assert responses[3].startswith("error: unknown model 'nope'")
        assert "first" in captured.err and "second" in captured.err

    def test_serve_rejects_malformed_model_specs(self, capsys):
        for argv in (
            ["serve", "--model", "a=x.npz", "--model", "a=y.npz"],  # duplicate
            ["serve", "--model", "a=x.npz", "--model", "SMGCN"],    # mixed forms
            ["serve", "--model", "SMGCN", "--model", "NGCF"],       # two plain names
            ["serve", "--model", "=x.npz"],                          # empty name
            ["serve", "--model", "a="],                              # empty path
        ):
            assert main(argv) == 2
            assert "error: --model" in capsys.readouterr().err

    def test_serve_model_specs_conflict_with_checkpoint(self, capsys):
        code = main(["serve", "--model", "a=x.npz", "--checkpoint", "y.npz"])
        assert code == 2
        assert "--checkpoint conflicts" in capsys.readouterr().err

    def test_serve_missing_catalog_checkpoint_fails_fast(self, capsys, monkeypatch):
        """One clear error line, before any socket binds or pools spawn."""
        self._no_training(monkeypatch)

        def no_bind(*args, **kwargs):
            raise AssertionError("no socket may bind when validation fails")

        monkeypatch.setattr("repro.serving.AsyncSocketServer.start", no_bind)
        code = main(["serve", "--port", "0", "--model", "a=/nonexistent/a.npz"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: checkpoint /nonexistent/a.npz: no such file" in err

    def test_predict_wrong_suffix_checkpoint_fails_fast(self, tmp_path, capsys):
        bogus = tmp_path / "weights.txt"
        bogus.write_text("not a checkpoint")
        code = main(["predict", "--checkpoint", str(bogus), "--symptoms", "0 3"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint {bogus}: not a .npz checkpoint bundle" in err

    def test_serve_canary_flag_validation(self, capsys):
        assert main(["serve", "--canary", "no-equals-sign"]) == 2
        assert "--canary expects NAME=checkpoint.npz" in capsys.readouterr().err
        assert main(["serve", "--canary", "a=x.npz", "--canary-fraction", "0"]) == 2
        assert "--canary-fraction" in capsys.readouterr().err

    def test_serve_watch_needs_checkpoint_entries(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
        code = main(["serve", "--watch", "--scale", "smoke", "--epochs", "1"])
        assert code == 2
        assert "--watch needs checkpoint-backed entries" in capsys.readouterr().err

    def test_serve_watch_interval_validated(self, capsys):
        assert main(["serve", "--watch", "--watch-interval", "0"]) == 2
        assert "--watch-interval" in capsys.readouterr().err

    def test_serve_canary_reports_on_shutdown(self, two_checkpoints, capsys, monkeypatch):
        import io

        self._no_training(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO("0 3\n0 3\n\n"))
        code = main([
            "serve", "--k", "3",
            "--model", f"main={two_checkpoints['a']}",
            "--canary", f"main={two_checkpoints['b']}",
            "--canary-fraction", "1.0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert "model main" in captured.err  # per-model stats breakdown

    def test_help_epilog_documents_catalog_serving(self):
        parser = build_parser()
        assert "--model smgcn=a.npz" in parser.epilog
        assert "models --json" in parser.epilog
