"""``EngineOptions``: every engine knob declared, validated and passed once.

The option table below is the contract: each field with a flag has it on
every scoring command, a non-default value given as that flag reaches the live
engine, and it survives a rollout.  The reload regression pins the catalog's
defaults to the server's own flags.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import cli
from repro.api import Pipeline
from repro.inference import (
    ApproxHerbIndex,
    EngineOptions,
    InferenceEngine,
    ShardedHerbIndex,
    ShardWorkerServer,
)
from repro.models import MODEL_REGISTRY
from repro.serving import CatalogControl

FIELDS = [knob.name for knob in dataclasses.fields(EngineOptions)]
FLAGS = {knob.name: knob.metadata["flag"] for knob in dataclasses.fields(EngineOptions)}
#: the fields a command line can set; the rest (batch_size) are library-only
FLAGGED = [name for name in FIELDS if FLAGS[name]]
COMMANDS = ("predict", "serve", "batch")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("options-ckpt") / "smgcn.npz"
    assert cli.main(["train", "--model", "SMGCN", "--scale", "smoke", "--epochs", "1",
                     "--checkpoint", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def worker_addr():
    server = ShardWorkerServer().start()
    host, port = server.address
    yield f"{host}:{port}"
    server.stop()


def option_cases(worker_addr):
    """field -> (flags giving it a non-default value, the value the engine sees)."""
    approx = ["--retrieval", "approx"]
    return {
        "num_shards": (["--shards", "2"], 2),
        "backend": (["--shards", "2", "--backend", "threads"], "threads"),
        "num_workers": (["--shards", "2", "--backend", "threads", "--workers", "2"], 2),
        "worker_addrs": (
            ["--shards", "2", "--backend", "remote", "--worker-addr", worker_addr],
            (worker_addr,),
        ),
        "retrieval": (approx, "approx"),
        "candidate_factor": (approx + ["--candidate-factor", "2"], 2),
        "num_lists": (approx + ["--num-lists", "4"], 4),
        "nprobe": (approx + ["--num-lists", "4", "--nprobe", "2"], 2),
    }


def parse(command, checkpoint, *flags):
    argv = [command, "--checkpoint", str(checkpoint), *flags]
    if command == "predict":
        argv += ["--symptoms", "0"]
    args = cli.build_parser().parse_args(argv)
    assert cli._check_serving(args) is None
    return args


def subparser(command):
    (choices,) = [
        action.choices
        for action in cli.build_parser()._actions
        if getattr(action, "choices", None) and command in action.choices
    ]
    return choices[command]


class TestOptionTable:
    def test_cases_cover_every_field(self):
        assert sorted(option_cases("h:1")) == sorted(FLAGGED)

    def test_library_only_fields(self):
        assert [name for name in FIELDS if name not in FLAGGED] == ["batch_size"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_field_has_a_flag(self, command):
        options = subparser(command)._option_string_actions
        for name in FLAGGED:
            assert FLAGS[name] in options, f"{command} lacks {FLAGS[name]}"

    @pytest.mark.parametrize("field_name", FLAGGED)
    def test_flag_value_reaches_the_engine_and_survives_publish(
        self, field_name, checkpoint, worker_addr
    ):
        flags, expected = option_cases(worker_addr)[field_name]
        assert expected != getattr(EngineOptions(), field_name)
        pipeline = cli._load_or_none(parse("predict", checkpoint, *flags))
        try:
            assert getattr(pipeline.engine.options, field_name) == expected
        finally:
            pipeline.close()
        for command in ("serve", "batch"):
            catalog, _ = cli._open_catalog(parse(command, checkpoint, *flags))
            try:
                assert getattr(catalog.entry().pipeline.engine.options, field_name) == expected
                catalog.publish(catalog.default_name, checkpoint)
                assert catalog.entry().version.ordinal == 2
                assert getattr(catalog.entry().pipeline.engine.options, field_name) == expected
            finally:
                catalog.close()

    def test_no_model_config_shadows_an_option(self):
        # Pipeline splits **kwargs between the engine and the model config by name
        for entry in MODEL_REGISTRY.entries():
            config_fields = {knob.name for knob in dataclasses.fields(entry.config_class)}
            assert not config_fields & set(FIELDS), entry.name


class TestReloadUsesServerFlags:
    def test_reload_of_a_new_name_gets_the_engine_flags(self, checkpoint):
        args = parse("serve", checkpoint, "--shards", "2", "--retrieval", "approx")
        catalog, _ = cli._open_catalog(args)
        try:
            control = CatalogControl(catalog)
            assert control.handle(f"reload fresh {checkpoint}").startswith("ok: fresh now v1")
            records = {record["name"]: record for record in json.loads(control.handle("models"))}
            assert records["fresh"]["retrieval"] == "approx"
            # the smoke vocabulary fits one scoring tile, so the *effective*
            # shard count is 1 for both entries; the configured count is 2
            assert records["fresh"]["shards"] == records[catalog.default_name]["shards"]
            fresh = catalog.entry("fresh").pipeline
            assert fresh.options == args.engine_options
            assert fresh.options.num_shards == 2
        finally:
            catalog.close()


class TestValidation:
    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"batch_size": 0}, "batch_size must be a positive integer"),
            ({"num_shards": 0}, "num_shards (--shards) must be a positive integer"),
            ({"num_workers": 0}, "num_workers (--workers)"),
            ({"retrieval": "fuzzy"}, "retrieval (--retrieval)"),
            ({"candidate_factor": 0}, "candidate_factor (--candidate-factor)"),
            ({"num_lists": 1}, "num_lists (--num-lists) must be >= 2"),
            ({"nprobe": 0}, "nprobe (--nprobe)"),
            ({"backend": "cuda"}, "backend (--backend): unknown backend 'cuda'"),
            ({"backend": "remote"}, "worker_addrs (--worker-addr)"),
            ({"worker_addrs": ["h:1"]}, "(--backend remote)"),
            ({"backend": "remote", "worker_addrs": ["h:1"], "num_workers": 2}, "conflicts"),
            ({"backend": "remote", "worker_addrs": ["nowhere"]}, "host:port"),
        ],
    )
    def test_messages_name_field_and_flag(self, knobs, message):
        with pytest.raises(ValueError) as error:
            EngineOptions(**knobs)
        assert message in str(error.value)

    @pytest.mark.parametrize(
        "knob, value, build",
        [
            ("num_shards", 0, ShardedHerbIndex),
            ("candidate_factor", 0, ApproxHerbIndex),
            ("num_lists", 1, ApproxHerbIndex),
            ("nprobe", 0, ApproxHerbIndex),
        ],
    )
    def test_index_constructors_share_the_range_rule(self, knob, value, build):
        with pytest.raises(ValueError) as from_options:
            EngineOptions(**{knob: value})
        with pytest.raises(ValueError) as from_index:
            build(np.ones((4, 2)), **{knob: value})
        flag = f" ({EngineOptions.__dataclass_fields__[knob].metadata['flag']})"
        assert str(from_options.value) == str(from_index.value).replace(knob, knob + flag, 1)

    def test_worker_addrs_are_frozen(self):
        options = EngineOptions(backend="remote", worker_addrs=["h:1", "h:2"])
        assert options.worker_addrs == ("h:1", "h:2")
        assert EngineOptions(worker_addrs=None).worker_addrs == ()

    def test_unknown_or_dropped_knobs_are_refused(self, checkpoint):
        model = Pipeline.load(checkpoint).model
        with pytest.raises(TypeError):
            InferenceEngine(model, retrieval_seed=3)
        with pytest.raises(TypeError):
            Pipeline.load(checkpoint, options=EngineOptions(), retrieval_seed=3)

    def test_library_accepts_knobs_the_cli_refuses(self):
        # only the flag adapter refuses no-effect combinations
        EngineOptions(candidate_factor=9, num_lists=4, nprobe=2)
        EngineOptions(backend="threads", num_workers=2)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--backend", "threads"], "--shards >= 2"),
            (["--candidate-factor", "2"], "--retrieval approx"),
            (["--shards", "2", "--backend", "remote", "--worker-addr", "h:1", "--workers", "1"],
             "conflicts"),
        ],
    )
    def test_from_args_refuses_flags_without_effect(self, flags, message):
        args = cli.build_parser().parse_args(["serve", *flags])
        with pytest.raises(ValueError, match=message):
            EngineOptions.from_args(args)


class TestPassedWhole:
    def test_pipeline_splits_knobs_from_model_overrides(self):
        pipeline = Pipeline("SMGCN", scale="smoke", num_shards=3, embedding_dim=12)
        assert pipeline.options.num_shards == 3
        assert pipeline.model_overrides == {"embedding_dim": 12}

    def test_options_and_keywords_combine(self, checkpoint):
        base = EngineOptions(retrieval="approx")
        loaded = Pipeline.load(checkpoint, options=base, candidate_factor=2)
        assert loaded.options == EngineOptions(retrieval="approx", candidate_factor=2)
        engine = loaded.engine
        try:
            assert engine.options == loaded.options
            assert engine.retrieval_active
        finally:
            loaded.close()

    def test_engine_takes_options_or_keywords(self, checkpoint):
        model = Pipeline.load(checkpoint).model
        by_object = InferenceEngine(model, EngineOptions(batch_size=5))
        by_keyword = InferenceEngine(model, batch_size=5)
        assert by_object.options == by_keyword.options
