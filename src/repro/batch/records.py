"""JSONL record codec for bulk offline scoring.

One input record is one JSON object per line::

    {"id": "rx-00042", "symptoms": ["symptom_003", 17], "k": 5, "model": "smgcn"}

``id`` is required (a string or an integer — it is echoed verbatim onto the
matching output line so downstream stages can join results back to their
inputs); ``symptoms`` is a list of tokens and/or integer ids, or one
whitespace-separated string; ``k`` and ``model`` are optional and default to
the run's ``--k`` and the catalog's default entry.

One output record is one JSON object per line, in input order::

    {"id": "rx-00042", "model": "smgcn", "herbs": [...], "herb_ids": [...], "scores": [...]}
    {"id": "rx-00043", "error": "unknown symptom token 'xyz'"}

The codec enforces the pipeline's two hard guarantees at the record level:

* a malformed line **always** becomes an ``error`` output line carrying the
  record's id when one could be recovered — never a traceback that aborts
  the stream (:class:`RecordError` is the only exception decoding raises);
* emitted scores are **NaN-free**: a non-finite score refuses to encode
  (``RecordError`` again — the runner turns it into an error line), so every
  result line is strict JSON that any downstream parser accepts.

Output bytes are deterministic: fixed key order, compact separators, ASCII
escapes — two runs over the same input are byte-identical, which is what the
checkpointed-resume machinery in :mod:`repro.batch.runner` relies on.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Sequence, Tuple, Union

from ..io.catalog import Query

__all__ = [
    "RecordError",
    "decode_record",
    "encode_result",
    "encode_error",
    "load_json",
    "request_fields",
]

#: The keys a serve JSON request may carry; a batch record adds ``id``.
REQUEST_FIELDS = frozenset({"symptoms", "k", "model"})
#: The only keys an input record may carry.
RECORD_FIELDS = REQUEST_FIELDS | {"id"}


class RecordError(ValueError):
    """A record that cannot be decoded, scored or encoded.

    Carries the offending record's ``id`` when it could be recovered, so the
    matching error line still joins back to the input.
    """

    def __init__(self, reason: str, record_id: Union[str, int, None] = None) -> None:
        super().__init__(reason)
        self.record_id = record_id


def _reject_constant(token: str) -> None:
    # json.loads would happily parse NaN/Infinity literals; they are not JSON
    # and would leak non-finite floats into ids/ks, so refuse them outright.
    raise ValueError(f"non-finite JSON literal {token}")


#: One decoder for every line: ``json.loads`` with a keyword argument builds
#: a new decoder and scanner per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def load_json(line: str) -> Any:
    """``json.loads`` that refuses ``NaN``/``Infinity``; raises ``ValueError``."""
    if isinstance(line, str) and not line.startswith("\ufeff"):
        return _DECODER.decode(line)
    # bytes, non-strings and a leading BOM keep json.loads' own handling and errors
    return json.loads(line, parse_constant=_reject_constant)


def request_fields(payload: Dict[str, Any], default_k: int) -> Query:
    """The validated :class:`~repro.io.catalog.Query` of one JSON request;
    raises ``ValueError``.

    The one validator behind both JSON surfaces: :func:`decode_record` for
    ``repro batch`` and the serving handler's JSON mode.
    """
    symptoms = payload.get("symptoms")
    if isinstance(symptoms, str):
        if not symptoms.strip():
            raise ValueError('"symptoms" must not be empty')
    elif isinstance(symptoms, list):
        if not symptoms:
            raise ValueError('"symptoms" must not be empty')
        for item in symptoms:
            if isinstance(item, bool) or not isinstance(item, (str, int)):
                raise ValueError(
                    f'"symptoms" entries must be tokens or integer ids, got {item!r}'
                )
    else:
        raise ValueError('record needs "symptoms": a list of tokens/ids or one string')
    k = payload.get("k", default_k)
    if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    model = payload.get("model")
    if model is not None and (not isinstance(model, str) or not model):
        raise ValueError(f"model must be a non-empty string, got {model!r}")
    return Query(symptoms, k, model)


def decode_record(line: str, default_k: int = 10) -> Tuple[Union[str, int], Query]:
    """``(id, query)`` of one validated input line; raises only :class:`RecordError`."""
    try:
        payload = load_json(line)
    except ValueError as error:
        raise RecordError(f"bad JSON record: {error}") from error
    if not isinstance(payload, dict):
        raise RecordError("record must be a JSON object")
    record_id = payload.get("id")
    if isinstance(record_id, bool) or not isinstance(record_id, (str, int)):
        # id unusable -> the error line carries id null
        raise RecordError('record needs "id": a string or an integer')
    unknown = set(payload) - RECORD_FIELDS
    if unknown:
        raise RecordError(
            f"unknown record fields: {', '.join(sorted(unknown))}", record_id
        )
    try:
        return record_id, request_fields(payload, default_k)
    except ValueError as error:
        raise RecordError(str(error), record_id) from error


#: Fixed key order (insertion), compact separators, ASCII escapes,
#: ``allow_nan=False``: the emitted bytes are a pure function of the values.
#: The encoder keeps no state between calls, so one serves every line.
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_encode_str = json.encoder.encode_basestring_ascii


def _encode_id(record_id: Union[str, int]) -> str:
    # exact types only: bool is an int whose repr is not JSON
    if type(record_id) is str:
        return _encode_str(record_id)
    if type(record_id) is int:
        return int.__repr__(record_id)
    raise TypeError("not a plain str or int id")


def encode_result(
    record_id: Union[str, int],
    model: str,
    herbs: Sequence[str],
    herb_ids: Sequence[int],
    scores: Sequence[float],
) -> str:
    """The result line for one scored record; refuses non-finite scores.

    The bytes equal ``_dumps`` of the record's dict.  The line is written
    piece by piece with the encoder's own primitives (ASCII-escaped strings,
    ``int.__repr__``, ``float.__repr__``), so no encoder is set up per line.
    """
    values = list(map(float, scores))
    for value in values:
        if not math.isfinite(value):
            raise RecordError(f"non-finite score {value!r} for herb list", record_id)
    ids = list(map(int, herb_ids))
    try:
        return "".join(
            (
                '{"id":',
                _encode_id(record_id),
                ',"model":',
                _encode_str(model),
                ',"herbs":[',
                ",".join(map(_encode_str, herbs)),
                '],"herb_ids":[',
                ",".join(map(int.__repr__, ids)),
                '],"scores":[',
                ",".join(map(float.__repr__, values)),
                "]}",
            )
        )
    except TypeError:  # an id or name of another type: the encoder spells it
        return _dumps(
            {"id": record_id, "model": model, "herbs": list(herbs), "herb_ids": ids, "scores": values}
        )


def encode_error(record_id: Union[str, int, None], reason: str) -> str:
    """The error line for one failed record (``id`` may be null)."""
    if isinstance(record_id, bool) or not isinstance(record_id, (str, int)):
        record_id = None
    return _dumps({"id": record_id, "error": str(reason)})
