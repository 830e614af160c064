"""One scoring path, two surfaces: serve JSON and ``repro batch`` agree on failures.

``RecommendationHandler`` and ``score_lines`` both score through
:func:`repro.io.catalog.answer`.  Each scenario feeds the same queries to
both surfaces and asserts the same ok/error outcome per position — one bad
query fails alone, on both — and identical herb lists for the good ones.
"""

import json

import pytest

from repro.api import Pipeline
from repro.batch.runner import score_lines
from repro.inference.engine import Recommendation
from repro.io.catalog import ModelCatalog, Query, answer
from repro.serving.handler import RecommendationHandler
from repro.serving.stats import ServerStats

GOOD = [0, 3]
POISON = [1, 2]


def serve_outcomes(catalog, queries):
    handler = RecommendationHandler(catalog, k=5)
    return [json.loads(line) for line in handler([json.dumps(q) for q in queries])]


def batch_outcomes(catalog, queries):
    lines = [json.dumps(dict(q, id=i)) for i, q in enumerate(queries)]
    return [json.loads(line) for line in score_lines(catalog, lines, default_k=5)]


def poison_recommend(pipeline, monkeypatch):
    real = pipeline._recommend_ids

    def recommend_ids(sets, ks):
        if any(sorted(s) == POISON for s in sets):
            raise RuntimeError("pooled scoring exploded" if len(sets) > 1 else "poisoned query")
        return real(sets, ks)

    monkeypatch.setattr(pipeline, "_recommend_ids", recommend_ids)


@pytest.mark.parametrize(
    "scenario, bad_query, reason",
    [
        ("poison", {"symptoms": POISON}, "poisoned query"),
        ("unknown-model", {"symptoms": GOOD, "model": "gamma"}, "unknown model 'gamma'"),
        ("unknown-symptom", {"symptoms": ["no_such_symptom"]}, "unknown symptom token"),
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
        catalog = ModelCatalog()
        catalog.add("main", batch_pipeline)
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
        "_recommend_ids",
        lambda sets, ks: [Recommendation(herb_ids=(0,), scores=(float("nan"),)) for _ in sets],
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


def test_answer_routes_once_per_requested_model(batch_pipeline, monkeypatch):
    """A 1,024-query window for one model looks its entry up once, not per query."""
    catalog = ModelCatalog.for_pipeline(batch_pipeline, name="main")
    lookups = []
    real_entry = catalog.entry
    monkeypatch.setattr(
        catalog, "entry", lambda name=None: lookups.append(name) or real_entry(name)
    )
    window = [Query([i % 30, (i * 7 + 3) % 30], 1 + i % 5, None) for i in range(1024)]
    answers = answer(catalog, window)
    assert lookups == [None]
    assert all(result.error is None and result.model == "main" for result in answers)


def test_default_spellings_pool_and_unknown_models_fail_alone(batch_pipeline, monkeypatch):
    """``None`` and the default's own name score in one pooled call; ``gamma`` fails alone."""
    catalog = ModelCatalog.for_pipeline(batch_pipeline, name="main")
    models = [None, "main", "gamma", None, "main", "gamma", None]
    queries = [Query([i, i + 3], 2 + i, model) for i, model in enumerate(models)]
    expected = [batch_pipeline.recommend(query.symptoms, k=query.k) for query in queries]
    lookups, pooled = [], []
    real_entry, real_recommend_ids = catalog.entry, batch_pipeline._recommend_ids

    def recommend_ids(sets, ks):
        pooled.append([list(symptoms) for symptoms in sets])
        return real_recommend_ids(sets, ks)

    monkeypatch.setattr(
        catalog, "entry", lambda name=None: lookups.append(name) or real_entry(name)
    )
    monkeypatch.setattr(batch_pipeline, "_recommend_ids", recommend_ids)
    answers = answer(catalog, queries)
    assert lookups == [None, "main", "gamma"]
    assert pooled == [[list(q.symptoms) for q in queries if q.model != "gamma"]]  # in query order
    for query, result, recommendation in zip(queries, answers, expected):
        if query.model == "gamma":
            assert result.model is None
            assert result.error.startswith("unknown model 'gamma'")
        else:
            assert result.error is None and result.model == "main"
            assert (result.herb_ids, result.scores) == (
                recommendation.herb_ids,
                recommendation.scores,
            )


@pytest.fixture(scope="module")
def topic_pipeline():
    """HC-KGETM: a model the engine refuses, scored through its own ``score_sets``."""
    return Pipeline("HC-KGETM", scale="smoke", num_topics=4, gibbs_iterations=1).fit()


def test_score_sets_model_answers_like_recommend_many_on_both_surfaces(topic_pipeline):
    catalog = ModelCatalog.for_pipeline(topic_pipeline, name="topics")
    token = topic_pipeline.symptom_vocab.token_of(4)
    queries = [{"symptoms": [i % 30, (i * 7 + 3) % 30], "k": 1 + i % 6} for i in range(24)]
    queries.append({"symptoms": [token, 1], "k": 3})
    expected = topic_pipeline.recommend_many(
        [query["symptoms"] for query in queries], k=[query["k"] for query in queries]
    )
    herbs = [topic_pipeline.decode_herbs(recommendation) for recommendation in expected]
    batched = batch_outcomes(catalog, queries)
    assert [(row["model"], row["herbs"], row["herb_ids"], row["scores"]) for row in batched] == [
        ("topics", tokens, list(rec.herb_ids), list(rec.scores))
        for tokens, rec in zip(herbs, expected)
    ]
    served = serve_outcomes(catalog, queries)
    assert served == [
        {"model": "topics", "herbs": tokens, "scores": [round(s, 6) for s in rec.scores]}
        for tokens, rec in zip(herbs, expected)
    ]
    text_lines = [
        f"k={query['k']} " + " ".join(map(str, query["symptoms"])) for query in queries
    ]
    assert RecommendationHandler(catalog, k=5)(text_lines) == [" ".join(t) for t in herbs]
