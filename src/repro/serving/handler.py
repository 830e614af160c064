"""Line-protocol request handler: parse, route, batch-score, isolate failures.

One request is one line.  Plain-text requests are whitespace-separated
symptom tokens (or integer ids), optionally prefixed — in either order —
with ``k=N`` to override the server's default list length and ``model=NAME``
to route to a specific catalog entry::

    symptom_003 symptom_014
    k=5 symptom_003 17
    model=smgcn k=3 symptom_003

Lines starting with ``{`` are structured JSON requests::

    {"symptoms": ["symptom_003", 17], "k": 5, "model": "smgcn"}

One response is one line: herb tokens separated by spaces for text requests,
a ``{"model": ..., "herbs": [...], "scores": [...]}`` object for JSON ones,
or ``error: <reason>`` / ``{"error": ...}`` — so line N of output always
answers line N of input, even when request N was malformed.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Union

from ..api import Pipeline, is_int_token
from ..batch.records import REQUEST_FIELDS, load_json, request_fields
from ..io.catalog import Answer, ModelCatalog, Query, answer
from .stats import ServerStats

__all__ = ["RecommendationHandler"]


class RecommendationHandler:
    """Answer batches of request lines through the catalog's shared scoring path.

    This is the ``handler`` a :class:`~repro.serving.batcher.MicroBatcher`
    flushes into.  It accepts either a single :class:`~repro.api.Pipeline`
    (wrapped into a one-entry catalog, the historical contract) or a
    :class:`~repro.io.catalog.ModelCatalog`.  The handler only parses lines
    and formats answers: routing, leasing, vocabulary parsing, pooled scoring
    with per-request retry and canary mirroring all happen in
    :func:`~repro.io.catalog.answer`, the same path ``repro batch`` uses.  A
    line that fails to parse, route or score answers with ``error:`` /
    ``{"error": ...}`` and never affects its batchmates.
    """

    def __init__(
        self,
        pipeline: Union[Pipeline, ModelCatalog],
        k: int = 10,
        stats: Optional[ServerStats] = None,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if isinstance(pipeline, ModelCatalog):
            self._catalog = pipeline
        else:
            self._catalog = ModelCatalog.for_pipeline(pipeline)
        self._default_k = k
        self._stats = stats

    @property
    def catalog(self) -> ModelCatalog:
        return self._catalog

    # ------------------------------------------------------------------
    # Batch entry point (MicroBatcher handler contract)
    # ------------------------------------------------------------------
    def __call__(self, lines: Sequence[str]) -> List[str]:
        responses: List[Optional[str]] = [None] * len(lines)
        positions: List[int] = []
        json_modes: List[bool] = []
        queries: List[Query] = []
        for index, line in enumerate(lines):
            line = line.strip()
            json_mode = line.startswith("{")
            try:
                queries.append(self._parse_json(line) if json_mode else self._parse_text(line))
            except ValueError as error:
                responses[index] = self._fail(str(error), json_mode=json_mode)
                continue
            positions.append(index)
            json_modes.append(json_mode)
        results = answer(self._catalog, queries)
        for index, json_mode, result in zip(positions, json_modes, results):
            responses[index] = self._respond(result, json_mode)
        return responses

    # ------------------------------------------------------------------
    # Protocol pieces
    # ------------------------------------------------------------------
    def _parse_text(self, line: str) -> Query:
        """One text request: ``k=``/``model=`` prefixes, then symptoms; raises ``ValueError``."""
        tokens = line.split()
        k: Optional[int] = None
        model: Optional[str] = None
        while tokens:
            if k is None and tokens[0].startswith("k="):
                k = self._parse_k(tokens[0][2:], tokens[0])
            elif model is None and tokens[0].startswith("model="):
                model = tokens[0][len("model=") :]
                if not model:
                    raise ValueError("model= must name a catalog entry")
            else:
                break
            tokens = tokens[1:]
        return Query(tokens, k if k is not None else self._default_k, model)

    def _parse_json(self, line: str) -> Query:
        try:
            payload = load_json(line)
        except ValueError as error:
            raise ValueError(f"bad JSON request: {error}") from error
        if not isinstance(payload, dict):
            raise ValueError("JSON request must be an object")
        unknown = set(payload) - REQUEST_FIELDS
        if unknown:
            raise ValueError(f"unknown JSON request fields: {', '.join(sorted(unknown))}")
        return request_fields(payload, self._default_k)

    @staticmethod
    def _parse_k(raw_k: str, token: str) -> int:
        if not is_int_token(raw_k) or int(raw_k) <= 0:
            raise ValueError(f"k must be a positive integer, got {token!r}")
        return int(raw_k)

    def _respond(self, result: Answer, json_mode: bool) -> str:
        """The response line for one answered request; records its stats."""
        if result.error is not None:
            return self._fail(result.error, model=result.model, json_mode=json_mode)
        if not json_mode:
            response = " ".join(result.herbs)
        else:
            scores = [round(float(s), 6) for s in result.scores]
            payload = {"model": result.model, "herbs": list(result.herbs), "scores": scores}
            try:
                response = json.dumps(payload, allow_nan=False)
            except ValueError:  # a non-finite score: refuse rather than emit bare NaN
                return self._fail(
                    f"non-finite score in {scores!r}", model=result.model, json_mode=True
                )
        if self._stats is not None:
            self._stats.record_model_request(result.model)
        return response

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------
    def _fail(
        self, reason: str, model: Optional[str] = None, json_mode: bool = False
    ) -> str:
        if self._stats is not None:
            self._stats.record_error(model=model)
        if json_mode:
            return json.dumps({"error": reason})
        return f"error: {reason}"
