"""Answer checkers: every answer the benchmark times is checked here, untimed.

Each checker returns ``True``/a count of failures instead of raising, so a
run reports how many of its operations failed.  ``canonical_topk`` is an
independent reference for the program's ranking (score descending, herb id
ascending), built on ``np.partition`` + ``np.lexsort`` rather than the
stable argsort the program uses; ``scores_match`` checks the program's score
matrix against a plain ``queries @ herbs.T`` before it is used as a reference.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class Expected(NamedTuple):
    """One reference answer from single-request ``Pipeline.recommend``."""

    model: str
    herbs: List[str]
    herb_ids: Tuple[int, ...]
    scores: Tuple[float, ...]


def reference_answers(checkpoint, queries: Iterable[Tuple[tuple, int]]) -> Dict[tuple, Expected]:
    """``(symptom tokens, k) -> Expected`` for every distinct query."""
    from repro.api import Pipeline

    pipeline = Pipeline.load(checkpoint)
    try:
        expected: Dict[tuple, Expected] = {}
        for tokens, k in queries:
            if (tokens, k) not in expected:
                answer = pipeline.recommend(list(tokens), k=k)
                herbs = pipeline.decode_herbs(answer)
                expected[(tokens, k)] = Expected(
                    pipeline.model_name, herbs, answer.herb_ids, answer.scores
                )
        return expected
    finally:
        pipeline.close()


def serve_answer_ok(
    response: Optional[str], json_mode: bool, herbs: Sequence[str], scores: Sequence[float]
) -> bool:
    """One serve response against the expected list, at its wire precision.

    Text answers are herb tokens; JSON answers carry scores rounded to six
    places, so the expected scores are rounded the same way.
    """
    if response is None:
        return False
    if not json_mode:
        return response == " ".join(herbs)
    try:
        payload = json.loads(response)
    except ValueError:
        return False
    return (
        isinstance(payload, dict)
        and "error" not in payload
        and payload.get("herbs") == list(herbs)
        and payload.get("scores") == [round(float(s), 6) for s in scores]
    )


def batch_line_ok(
    line: str,
    record_id,
    model: str,
    herbs: Sequence[str],
    herb_ids: Sequence[int],
    scores: Sequence[float],
) -> bool:
    """One ``repro batch`` result line against the expected list (repr-exact)."""
    try:
        payload = json.loads(line)
    except ValueError:
        return False
    return payload == {
        "id": record_id,
        "model": model,
        "herbs": list(herbs),
        "herb_ids": [int(h) for h in herb_ids],
        "scores": [float(s) for s in scores],
    }


def losses_identical(first: Sequence[float], second: Sequence[float]) -> bool:
    """Bit-for-bit equality of two loss histories (all finite)."""
    return len(first) == len(second) and all(
        math.isfinite(a) and float(a).hex() == float(b).hex() for a, b in zip(first, second)
    )


#: Relative tolerance of ``scores_match``: the program sums each dot product
#: in its own tile order, which moves the last few bits only; a float32
#: round trip moves the seventh digit.
SCORE_RTOL = 1e-10


def scores_match(matrix: np.ndarray, queries: np.ndarray, herbs: np.ndarray) -> bool:
    """Whether ``matrix`` is ``queries @ herbs.T``, up to summation order.

    The reference is computed here in one gemm, independently of the
    program's tile scorer, so a wrong tile (a lower precision, a wrong
    offset, a skipped tail) fails the comparison instead of moving the
    program's answer and its reference the same way.
    """
    reference = queries @ herbs.T
    if matrix.shape != reference.shape or not np.all(np.isfinite(matrix)):
        return False
    scale = float(np.abs(reference).max(initial=0.0))
    return bool(np.allclose(matrix, reference, rtol=SCORE_RTOL, atol=SCORE_RTOL * scale))


def canonical_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """``(rows, k)`` herb ids per row, ordered by score desc then id asc."""
    k = min(k, scores.shape[1])
    kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1]
    out = np.empty((scores.shape[0], k), dtype=np.int64)
    for row in range(scores.shape[0]):
        candidates = np.flatnonzero(scores[row] >= kth[row])
        order = np.lexsort((candidates, -scores[row, candidates]))[:k]
        out[row] = candidates[order]
    return out


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    left = np.ascontiguousarray(left, dtype=np.float64)
    right = np.ascontiguousarray(right, dtype=np.float64)
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def exact_failures(
    ids: np.ndarray, scores: np.ndarray, matrix: np.ndarray, k: int
) -> int:
    """Rows of an exact top-k answer that differ from the reference ranking.

    ``matrix`` is the full ``(rows, herbs)`` score matrix of the same call;
    listed scores must be its entries bit for bit.
    """
    reference = canonical_topk(matrix, k)
    failed = 0
    for row in range(matrix.shape[0]):
        if not (
            np.array_equal(ids[row], reference[row])
            and _same_bits(scores[row], matrix[row, reference[row]])
        ):
            failed += 1
    return failed


def approx_failures(
    rows: List[Tuple[np.ndarray, np.ndarray]], matrix: np.ndarray, k: int
) -> Tuple[int, int]:
    """``(failed rows, hits)`` of an approximate top-k answer.

    A row fails when its list has the wrong length, repeats a herb, is not
    in canonical order, or lists a score that is not bit-identical to the
    exact score.  ``hits`` counts listed herbs that the exact top-k also
    lists (recall's numerator).
    """
    reference = canonical_topk(matrix, k)
    failed = hits = 0
    for row, (ids, scores) in enumerate(rows):
        ids = np.asarray(ids, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        ordered = np.lexsort((ids, -scores))
        if (
            ids.size != reference.shape[1]
            or ids.size != scores.size
            or ids.min() < 0
            or ids.max() >= matrix.shape[1]
            or np.unique(ids).size != ids.size
            or not np.array_equal(ordered, np.arange(ids.size))
            or not _same_bits(scores, matrix[row, ids])
        ):
            failed += 1
        hits += len(set(ids.tolist()) & set(reference[row].tolist()))
    return failed, hits
