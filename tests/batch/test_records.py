"""Property-style tests for the JSONL record codec.

No hypothesis in the environment, so the properties run over seeded random
sweeps: hundreds of generated records (arbitrary unicode tokens, huge ids,
adversarial ks) plus mutation/garbage inputs, asserting the codec's two
contracts — decode(encode(record)) is the identity on valid records, and
*every* invalid input raises :class:`~repro.batch.records.RecordError` (the
runner's error-line trigger), never any other exception.
"""

import json
import math
import random
import string

import numpy as np
import pytest

from repro.batch.records import (
    RecordError,
    decode_record,
    encode_error,
    encode_result,
    load_json,
)
from repro.io.catalog import Query

# Token alphabet stressing the full unicode range: ASCII, JSON-special
# characters, combining marks, CJK, astral-plane emoji, bidi controls.
TRICKY_CHARS = (
    string.ascii_letters
    + string.digits
    + "_-."
    + '"\\/\b\f\n\r\t'
    + " éß́中医草薯☃\U0001f33f\U0001f9ea‏ "
)


def random_token(rng):
    return "".join(rng.choice(TRICKY_CHARS) for _ in range(rng.randint(1, 12)))


def random_record(rng):
    record = {
        "id": (
            rng.choice([rng.randint(-(10**20), 10**20), random_token(rng)])
        ),
        "symptoms": [
            rng.choice([rng.randint(-5, 10**9), random_token(rng)])
            for _ in range(rng.randint(1, 6))
        ],
    }
    if rng.random() < 0.7:
        record["k"] = rng.choice([1, 2, 17, 10**9, 10**18])
    if rng.random() < 0.5:
        record["model"] = random_token(rng)
    return record


class TestRoundTrip:
    def test_decode_is_inverse_of_json_encode(self):
        rng = random.Random(1234)
        for _ in range(300):
            payload = random_record(rng)
            line = json.dumps(payload)
            record_id, query = decode_record(line, default_k=7)
            assert isinstance(query, Query)
            assert record_id == payload["id"]
            assert query.symptoms == payload["symptoms"]
            assert query.k == payload.get("k", 7)
            assert query.model == payload.get("model")

    def test_symptoms_as_string(self):
        _, query = decode_record('{"id": 1, "symptoms": "a b  c"}')
        assert query.symptoms == "a b  c"

    def test_duplicate_ids_are_not_the_codec_business(self):
        # the codec validates records independently; duplicate ids across
        # lines are legal and pass through untouched
        a_id, _ = decode_record('{"id": "dup", "symptoms": [1]}')
        b_id, _ = decode_record('{"id": "dup", "symptoms": [2]}')
        assert a_id == b_id == "dup"

    def test_result_line_round_trips_and_is_deterministic(self):
        rng = random.Random(99)
        for _ in range(100):
            record_id = rng.choice([rng.randint(0, 10**12), random_token(rng)])
            herbs = [random_token(rng) for _ in range(rng.randint(0, 5))]
            herb_ids = [rng.randint(0, 10**6) for _ in herbs]
            scores = [rng.uniform(-1e6, 1e6) for _ in herbs]
            line = encode_result(record_id, "m", herbs, herb_ids, scores)
            again = encode_result(record_id, "m", herbs, herb_ids, scores)
            assert line == again  # byte-deterministic
            assert "\n" not in line  # one record stays one line
            parsed = json.loads(line)
            assert parsed["id"] == record_id
            assert parsed["herbs"] == herbs
            assert parsed["herb_ids"] == herb_ids
            assert parsed["scores"] == scores  # repr round-trip is exact


def dumps_reference(record_id, model, herbs, herb_ids, scores):
    """The result line as one ``json.dumps`` of the record's dict."""
    return json.dumps(
        {
            "id": record_id,
            "model": model,
            "herbs": list(herbs),
            "herb_ids": [int(h) for h in herb_ids],
            "scores": [float(s) for s in scores],
        },
        separators=(",", ":"),
        allow_nan=False,
    )


class TestResultBytes:
    """``encode_result`` writes exactly the bytes ``json.dumps`` would."""

    @pytest.mark.parametrize(
        "record_id",
        [
            'say "hi"',
            "back\\slash/",
            "ctl\x00\x1f\x7f\n\t\u2028",
            "中医\U0001f33f é",
            "",
            0,
            -7,
            2**63 + 5,
            -(2**70),
        ],
    )
    def test_ids(self, record_id):
        args = (record_id, "SMGCN", ["h1"], [0], [0.5])
        assert encode_result(*args) == dumps_reference(*args)

    def test_names_and_numpy_values(self):
        herbs = ['"q"', "\x01", "草\U0001f9ea", "plain"]
        ids = np.array([3, 0, 2**40, 7], dtype=np.int64)
        for dtype in (np.float32, np.float64):
            scores = np.array([0.1, -2.5, 1.0 / 3.0, 7e-3], dtype=dtype)
            args = ("rx", "mödel\n", herbs, ids, scores)
            assert encode_result(*args) == dumps_reference(*args)

    def test_special_floats(self):
        scores = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5, 1e22, 0.1, -1.5e300]
        herbs = [f"h{i}" for i in range(len(scores))]
        args = (1, "m", herbs, range(len(scores)), scores)
        assert encode_result(*args) == dumps_reference(*args)

    def test_empty_lists(self):
        assert encode_result("x", "m", [], [], []) == dumps_reference("x", "m", [], [], [])

    @pytest.mark.parametrize(
        "record_id, model, herbs",
        [(True, "m", ["h"]), (1.5, "m", ["h"]), ("x", None, ["h"]), ("x", "m", [None])],
    )
    def test_other_types_spelled_by_the_encoder(self, record_id, model, herbs):
        args = (record_id, model, herbs, [4], [0.25])
        assert encode_result(*args) == dumps_reference(*args)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_message(self, bad):
        with pytest.raises(RecordError) as exc_info:
            encode_result("rx", "m", ["a", "b"], [0, 1], np.array([1.0, bad]))
        assert str(exc_info.value) == f"non-finite score {bad!r} for herb list"


class TestLoadJson:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_refused(self, literal):
        with pytest.raises(ValueError, match=f"non-finite JSON literal {literal}"):
            load_json(f'{{"id": {literal}}}')
        with pytest.raises(ValueError, match=f"non-finite JSON literal {literal}"):
            load_json(f"[1, {literal}]".encode())

    @pytest.mark.parametrize(
        "line", ['{"a": [1, 2.5, "x"]}', b'{"a": 1}', "\ufeff{}", "{}  x", "", "[1,", 7]
    )
    def test_matches_json_loads(self, line):
        def outcome(parse):
            try:
                return "ok", parse(line)
            except (ValueError, TypeError) as error:
                return type(error), str(error)

        assert outcome(load_json) == outcome(json.loads)


class TestRejections:
    @pytest.mark.parametrize(
        "line",
        [
            "",
            "   ",
            "not json",
            "[1, 2]",
            "42",
            '"string"',
            "null",
            "true",
            '{"id": 1, "symptoms": [1]',  # truncated
            '{"id": 1}',  # no symptoms
            '{"symptoms": [1]}',  # no id
            '{"id": null, "symptoms": [1]}',
            '{"id": true, "symptoms": [1]}',
            '{"id": 1.5, "symptoms": [1]}',
            '{"id": [1], "symptoms": [1]}',
            '{"id": 1, "symptoms": []}',
            '{"id": 1, "symptoms": ""}',
            '{"id": 1, "symptoms": "   "}',
            '{"id": 1, "symptoms": [[1]]}',
            '{"id": 1, "symptoms": [1.5]}',
            '{"id": 1, "symptoms": [true]}',
            '{"id": 1, "symptoms": [null]}',
            '{"id": 1, "symptoms": {"a": 1}}',
            '{"id": 1, "symptoms": [1], "k": 0}',
            '{"id": 1, "symptoms": [1], "k": -3}',
            '{"id": 1, "symptoms": [1], "k": 2.0}',
            '{"id": 1, "symptoms": [1], "k": true}',
            '{"id": 1, "symptoms": [1], "k": "5"}',
            '{"id": 1, "symptoms": [1], "k": NaN}',
            '{"id": 1, "symptoms": [1], "k": Infinity}',
            '{"id": 1, "symptoms": [1], "model": ""}',
            '{"id": 1, "symptoms": [1], "model": 3}',
            '{"id": 1, "symptoms": [1], "extra": true}',
        ],
    )
    def test_malformed_records_raise_record_error_only(self, line):
        with pytest.raises(RecordError):
            decode_record(line)

    def test_garbage_sweep_raises_record_error_only(self):
        rng = random.Random(4321)
        alphabet = TRICKY_CHARS + "{}[]:,"
        for _ in range(500):
            garbage = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
            try:
                _, query = decode_record(garbage)
            except RecordError:
                continue  # the only exception the codec may raise
            assert isinstance(query, Query)  # rare accidental valid JSON

    def test_mutated_valid_records_never_raise_anything_else(self):
        rng = random.Random(777)
        for _ in range(300):
            line = list(json.dumps(random_record(rng)))
            for _ in range(rng.randint(1, 4)):  # random single-char mutations
                position = rng.randrange(len(line))
                line[position] = rng.choice(TRICKY_CHARS + "{}[]:,")
            try:
                decode_record("".join(line))
            except RecordError:
                pass

    def test_error_carries_recovered_id(self):
        with pytest.raises(RecordError) as exc_info:
            decode_record('{"id": "rx-1", "symptoms": [], "k": 3}')
        assert exc_info.value.record_id == "rx-1"

    def test_error_without_recoverable_id(self):
        with pytest.raises(RecordError) as exc_info:
            decode_record('{"symptoms": [1]}')
        assert exc_info.value.record_id is None


class TestNaNFreeGuarantee:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scores_refuse_to_encode(self, bad):
        with pytest.raises(RecordError) as exc_info:
            encode_result("rx", "m", ["h"], [0], [bad])
        assert exc_info.value.record_id == "rx"

    def test_non_finite_anywhere_in_the_list(self):
        scores = [1.0, 2.0, float("nan"), 3.0]
        with pytest.raises(RecordError):
            encode_result(1, "m", list("abcd"), range(4), scores)

    def test_emitted_lines_are_strict_json(self):
        rng = random.Random(5)
        for _ in range(50):
            scores = [rng.uniform(-10, 10) for _ in range(3)]
            line = encode_result(rng.randint(0, 99), "m", list("abc"), range(3), scores)
            parsed = json.loads(line)  # strict parser must accept every line
            assert all(math.isfinite(value) for value in parsed["scores"])


class TestErrorLines:
    def test_error_line_shape(self):
        assert json.loads(encode_error("rx-9", "boom")) == {"id": "rx-9", "error": "boom"}
        assert json.loads(encode_error(4, "boom"))["id"] == 4

    @pytest.mark.parametrize("bad_id", [None, True, 1.5, [1], {"a": 1}, object()])
    def test_unusable_ids_become_null(self, bad_id):
        assert json.loads(encode_error(bad_id, "boom"))["id"] is None

    def test_error_lines_are_single_lines(self):
        line = encode_error("a\nb", "reason\nwith newline")
        assert "\n" not in line
        assert json.loads(line)["error"] == "reason\nwith newline"
