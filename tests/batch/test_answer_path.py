"""One scoring path, two surfaces: serve JSON and ``repro batch`` agree on failures.

``RecommendationHandler`` and ``score_lines`` both score through
:func:`repro.io.catalog.answer`.  Each scenario feeds the same queries to
both surfaces and asserts the same ok/error outcome per position — one bad
query fails alone, on both — and identical herb lists for the good ones.
"""

import json

import pytest

from repro.batch.runner import score_lines
from repro.inference.engine import Recommendation
from repro.io.catalog import ModelCatalog
from repro.serving.handler import RecommendationHandler
from repro.serving.stats import ServerStats

GOOD = [0, 3]
POISON = [1, 2]


class VanishingCatalog(ModelCatalog):
    """Removes the ``ghost`` entry right after a query is routed to it."""

    def entry(self, name=None):
        found = super().entry(name)
        if name == "ghost":
            with self._lock:
                del self._entries["ghost"]
                self._order.remove("ghost")
        return found


def serve_outcomes(catalog, queries):
    handler = RecommendationHandler(catalog, k=5)
    return [json.loads(line) for line in handler([json.dumps(q) for q in queries])]


def batch_outcomes(catalog, queries):
    lines = [json.dumps(dict(q, id=i)) for i, q in enumerate(queries)]
    return [json.loads(line) for line in score_lines(catalog, lines, default_k=5)]


def poison_recommend(pipeline, monkeypatch):
    real_many, real_one = pipeline.recommend_many, pipeline.recommend

    def many(sets, k):
        if any(sorted(s) == POISON for s in sets):
            raise RuntimeError("pooled scoring exploded")
        return real_many(sets, k=k)

    def one(symptoms, k=10):
        if sorted(symptoms) == POISON:
            raise RuntimeError("poisoned query")
        return real_one(symptoms, k=k)

    monkeypatch.setattr(pipeline, "recommend_many", many)
    monkeypatch.setattr(pipeline, "recommend", one)


@pytest.mark.parametrize(
    "scenario, bad_query, reason",
    [
        ("poison", {"symptoms": POISON}, "poisoned query"),
        ("unknown-model", {"symptoms": GOOD, "model": "gamma"}, "unknown model 'gamma'"),
        ("unknown-symptom", {"symptoms": ["no_such_symptom"]}, "unknown symptom token"),
        ("entry-vanished", {"symptoms": GOOD, "model": "ghost"}, "unknown model 'ghost'"),
    ],
)
def test_bad_query_fails_alone_on_both_surfaces(
    scenario, bad_query, reason, batch_pipeline, monkeypatch
):
    if scenario == "poison":
        poison_recommend(batch_pipeline, monkeypatch)
    queries = [{"symptoms": GOOD}, bad_query, {"symptoms": [2, 4], "k": 3}]
    results = {}
    for surface, outcomes in (("serve", serve_outcomes), ("batch", batch_outcomes)):
        catalog = VanishingCatalog()
        catalog.add("main", batch_pipeline)
        if scenario == "entry-vanished":
            catalog.add("ghost", batch_pipeline)
        results[surface] = outcomes(catalog, queries)
    for surface, rows in results.items():
        assert ["error" in row for row in rows] == [False, True, False], surface
        assert reason in rows[1]["error"], surface
    for served, batched in zip(results["serve"], results["batch"]):
        assert served.get("herbs") == batched.get("herbs")


def test_non_finite_scores_become_error_lines_on_both_surfaces(
    batch_pipeline, monkeypatch
):
    """Serve JSON refuses a NaN score like batch does, instead of emitting bare NaN."""
    monkeypatch.setattr(
        batch_pipeline,
        "recommend_many",
        lambda sets, k: [Recommendation(herb_ids=(0,), scores=(float("nan"),)) for _ in sets],
    )
    catalog = ModelCatalog.for_pipeline(batch_pipeline, name="m")
    stats = ServerStats()
    handler = RecommendationHandler(catalog, k=5, stats=stats)
    served = handler([json.dumps({"symptoms": GOOD})])[0]
    assert "NaN" not in served
    assert "non-finite" in json.loads(served)["error"]
    assert stats.per_model() == {"m": {"requests": 1, "errors": 1}}
    assert "non-finite" in batch_outcomes(catalog, [{"symptoms": GOOD}])[0]["error"]


def test_canary_mirrors_batch_traffic_without_changing_output(
    batch_pipeline, batch_checkpoint
):
    catalog = ModelCatalog.for_pipeline(batch_pipeline, name="main")
    lines = [
        json.dumps({"id": i, "symptoms": [i % 30, (i * 7 + 3) % 30], "k": 1 + i % 5})
        for i in range(12)
    ]
    plain = score_lines(catalog, lines)
    canary = catalog.set_canary("main", batch_checkpoint, fraction=0.5)
    try:
        mirrored = score_lines(catalog, lines)
        report = canary.report()
    finally:
        catalog.clear_canary("main")
    assert mirrored == plain
    assert report["seen"] == 12
    assert report["mirrored"] == 6
    assert report["errors"] == 0
    assert report["match_rate"] == 1.0  # the candidate is the same checkpoint


@pytest.mark.parametrize(
    "body, reason",
    [
        ('"symptoms": [0, NaN]', "non-finite JSON literal NaN"),
        ('"symptoms": [0, true]', '"symptoms" entries must be tokens or integer ids'),
        ('"symptoms": [0, 1.5]', '"symptoms" entries must be tokens or integer ids'),
        ('"symptoms": [0], "model": ""', "model must be a non-empty string"),
        ('"symptoms": [0], "k": 0', "k must be a positive integer"),
    ],
)
def test_serve_json_and_batch_share_one_validator(body, reason, batch_catalog):
    served = RecommendationHandler(batch_catalog, k=5)(["{" + body + "}"])[0]
    batched = score_lines(batch_catalog, ['{"id": 1, ' + body + "}"])[0]
    assert reason in json.loads(served)["error"]
    assert reason in json.loads(batched)["error"]
