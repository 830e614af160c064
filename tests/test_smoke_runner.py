"""``scripts/smoke.py``: how the runner's gates count canned answers.

No server starts here: canned answer lines stand in for what the serving
surfaces would send back, so these tests check the classifier that every
end-to-end scenario's verdict rests on.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "smoke.py"
spec = importlib.util.spec_from_file_location("smoke", SCRIPT)
smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(smoke)

TEXT = smoke.Request(("symptom_003", 14), 3, False)
JSON = smoke.Request((2, "symptom_007"), None, True)
BAD = smoke.Request(None, None, False, "k=0 0 3")
ORACLE = {
    TEXT: (("herb_001", "herb_007", "herb_002"), (0.5, 0.25, 0.125)),
    JSON: (("herb_004", "herb_000"), (0.30178371993463865, 0.2960411224185836)),
}
OTHER = {  # a second checkpoint: TEXT answers differently, JSON alike
    TEXT: (("herb_009", "herb_001", "herb_007"), (0.6, 0.5, 0.25)),
    JSON: ORACLE[JSON],
}
ORACLES = {"a": ORACLE, "b": OTHER}
TEXT_ANSWER = "herb_001 herb_007 herb_002"
JSON_ANSWER = json.dumps(
    {"model": "SMGCN", "herbs": ["herb_004", "herb_000"], "scores": [0.301784, 0.296041]}
)


def test_an_answer_matching_the_oracle_is_served():
    answers = [TEXT_ANSWER, JSON_ANSWER, "error: k must be a positive integer, got 'k=0'"]
    counts, failures = smoke.tally([[TEXT, JSON, BAD]], [answers], ORACLE)
    assert counts == {"served": 2, "rejected": 1}
    assert failures == []
    assert smoke.answered_exactly(counts, [[TEXT, JSON, BAD]]) == []


def test_json_scores_are_the_oracles_rounded_to_six_places():
    unrounded = json.dumps({"herbs": ["herb_004", "herb_000"], "scores": list(ORACLE[JSON][1])})
    assert smoke.verdict(JSON, unrounded, ORACLE) == "mismatch"
    assert smoke.verdict(JSON, unrounded, ORACLE, digits=None) == "served"  # repro batch
    assert smoke.verdict(JSON, JSON_ANSWER, ORACLE, digits=None) == "mismatch"


def test_an_overloaded_answer_is_shed():
    counts, failures = smoke.tally([[TEXT, JSON]], [[smoke.OVERLOADED, JSON_ANSWER]], ORACLE)
    assert counts == {"shed": 1, "served": 1}
    assert failures == []
    assert smoke.answered_exactly(counts, [[TEXT, JSON]]) != []  # no shedding where none is allowed


def test_one_overloaded_line_then_eof_is_a_refused_connection():
    counts, failures = smoke.tally([[TEXT, JSON, TEXT]], [[smoke.OVERLOADED]], ORACLE)
    assert counts == {"refused": 1}
    assert failures == []


def test_a_wrong_herb_list_is_a_mismatch():
    wrong = "herb_001 herb_002 herb_007"
    counts, failures = smoke.tally([[TEXT]], [[wrong]], ORACLE)
    assert counts == {"mismatch": 1}
    assert failures == [f"mismatch: 'k=3 symptom_003 14' -> {wrong!r}"]
    assert smoke.verdict(TEXT, "error: unknown symptom token", ORACLE) == "mismatch"


def test_a_short_answer_list_fails():
    counts, failures = smoke.tally([[TEXT, JSON, TEXT]], [[TEXT_ANSWER, JSON_ANSWER]], ORACLE)
    assert counts == {}
    assert failures == [f"connection answered 2/3 lines: {[TEXT_ANSWER, JSON_ANSWER]!r}"]
    counts, failures = smoke.tally([[TEXT]], [None], ORACLE)  # still open at the deadline
    assert failures == ["a connection hung: still open at the deadline"]


def test_a_malformed_line_answered_with_a_recommendation_fails():
    counts, failures = smoke.tally([[BAD]], [[TEXT_ANSWER]], ORACLE)
    assert counts == {"failure": 1}
    assert failures == [f"failure: 'k=0 0 3' -> {TEXT_ANSWER!r}"]
    assert smoke.verdict(BAD, '{"error": "bad JSON request"}', ORACLE) == "rejected"


def test_rollout_versions():
    v2_text = "herb_009 herb_001 herb_007"
    assert smoke.rollout_version("primary", TEXT, TEXT_ANSWER, ORACLES) == "v1"
    assert smoke.rollout_version("primary", TEXT, v2_text, ORACLES) == "v2"
    assert smoke.rollout_version("primary", JSON, JSON_ANSWER, ORACLES) == "either"
    assert smoke.rollout_version("primary", TEXT, "error: overloaded", ORACLES) == "failure"
    assert smoke.rollout_version("stable", TEXT, v2_text, ORACLES) == "stable"
    assert smoke.rollout_version("stable", TEXT, TEXT_ANSWER, ORACLES) == "failure"  # drifted


def test_a_rollout_seen_v1_then_v2_passes():
    counts, failures = smoke.rollout_tally([["v1", "stable", "either", "v2"], ["v1", "v2", "v2"]])
    assert failures == []
    assert counts["v1"] == 2 and counts["v2"] == 3


def test_a_rollout_that_never_serves_v1_fails():
    counts, failures = smoke.rollout_tally([["v2", "stable", "v2"], ["either", "v2"]])
    assert failures == ["primary never answered v1: the swap was not seen under traffic"]


def test_a_rollout_that_never_swaps_or_goes_back_fails():
    _, failures = smoke.rollout_tally([["v1", "stable", "v1"]])
    assert failures == ["primary never answered v2"]
    _, failures = smoke.rollout_tally([["v1", "v2"], ["v1", "v2", "v1"], ["failure", "v2"]])
    assert failures == ["1 failed or wrong answers", "connection 1 saw v1 after v2"]


def test_the_stream_is_seeded_and_renders_every_kind_of_line():
    tokens = [f"symptom_{i:03d}" for i in range(30)]
    stream = smoke.request_stream(tokens)
    assert stream == smoke.request_stream(tokens)
    assert sorted(r.raw for r in stream if r.symptoms is None) == sorted(smoke.MALFORMED)
    valid = [r for r in stream if r.symptoms is not None]
    assert any(r.k for r in valid) and any(r.k is None for r in valid)
    assert any(r.json for r in valid) and any(not r.json for r in valid)
    assert smoke.render(TEXT) == "k=3 symptom_003 14"
    assert smoke.render(TEXT, "primary") == "model=primary k=3 symptom_003 14"
    routed = {"symptoms": [2, "symptom_007"], "model": "stable"}
    assert json.loads(smoke.render(JSON, "stable")) == routed
    assert smoke.render(BAD, "primary") == "k=0 0 3"
