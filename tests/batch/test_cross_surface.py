"""One model, three surfaces, one answer.

``repro batch``, the serve JSON protocol, and ``Pipeline.recommend`` must
agree bit-for-bit on the same checkpoint — across retrieval modes (exact and
approx re-rank) and engine backends (serial and thread-sharded). This is the
contract that makes offline scoring a valid substitute for the online path.
"""

import json

import pytest

from repro.api import Pipeline
from repro.batch.runner import run_batch_file
from repro.io.catalog import ModelCatalog
from repro.serving.handler import RecommendationHandler

from tests.batch.conftest import make_corpus

SURFACES = [
    pytest.param(("exact", None), id="exact-serial"),
    pytest.param(("approx", None), id="approx-serial"),
    pytest.param(("exact", "threads"), id="exact-threads"),
    pytest.param(("approx", "threads"), id="approx-threads"),
]


@pytest.fixture(params=SURFACES)
def surface_pipeline(request, batch_checkpoint):
    retrieval, backend = request.param
    kwargs = {"retrieval": retrieval}
    if retrieval == "approx":
        kwargs.update(candidate_factor=2, num_lists=4, nprobe=4)
    if backend == "threads":
        kwargs.update(num_shards=2, backend="threads", num_workers=2)
    pipeline = Pipeline.load(batch_checkpoint, **kwargs)
    yield pipeline
    pipeline.close()


def corpus_records(count=24):
    return [
        {"id": f"rx-{i}", "symptoms": [i % 30, (i * 7 + 3) % 30], "k": 1 + (i % 5)}
        for i in range(count)
    ]


def test_batch_serve_and_api_agree(surface_pipeline, tmp_path):
    records = corpus_records()
    source = tmp_path / "corpus.jsonl"
    source.write_text("".join(json.dumps(r) + "\n" for r in records))
    target = tmp_path / "out.jsonl"

    catalog = ModelCatalog.for_pipeline(surface_pipeline)
    run_batch_file(catalog, source, target, window=7)
    batch_rows = [json.loads(line) for line in target.read_text().splitlines()]
    assert [row["id"] for row in batch_rows] == [r["id"] for r in records]

    handler = RecommendationHandler(catalog, k=10)
    serve_lines = handler(
        [json.dumps({"symptoms": r["symptoms"], "k": r["k"]}) for r in records]
    )

    for record, batch_row, serve_line in zip(records, batch_rows, serve_lines):
        # surface 1 ↔ 3: batch vs the library API, exact equality
        direct = surface_pipeline.recommend(record["symptoms"], k=record["k"])
        assert batch_row["herb_ids"] == list(direct.herb_ids)
        assert batch_row["scores"] == [float(s) for s in direct.scores]

        # surface 1 ↔ 2: batch vs serve JSON protocol (serve rounds to 6)
        served = json.loads(serve_line)
        assert "error" not in served
        assert served["herbs"] == batch_row["herbs"]
        assert served["scores"] == [round(s, 6) for s in batch_row["scores"]]


def test_batch_bytes_identical_across_backends(batch_checkpoint, tmp_path):
    """Thread-sharded scoring must not perturb a single output byte."""
    records = corpus_records()
    source = tmp_path / "corpus.jsonl"
    source.write_text("".join(json.dumps(r) + "\n" for r in records))

    outputs = {}
    for label, kwargs in (
        ("serial", {}),
        ("threads", {"num_shards": 2, "backend": "threads", "num_workers": 2}),
    ):
        pipeline = Pipeline.load(batch_checkpoint, **kwargs)
        try:
            catalog = ModelCatalog.for_pipeline(pipeline)
            target = tmp_path / f"{label}.jsonl"
            run_batch_file(catalog, source, target, window=5)
            outputs[label] = target.read_bytes()
        finally:
            pipeline.close()
    assert outputs["serial"] == outputs["threads"]


def test_recommend_stream_matches_batch_lines(batch_checkpoint, tmp_path):
    records = corpus_records(10)
    pipeline = Pipeline.load(batch_checkpoint)
    try:
        streamed = list(pipeline.recommend_stream(records, k=10, window=4))
        source = tmp_path / "corpus.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records))
        target = tmp_path / "out.jsonl"
        catalog = ModelCatalog.for_pipeline(pipeline)
        run_batch_file(catalog, source, target, window=4)
        file_rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert streamed == file_rows
    finally:
        pipeline.close()
