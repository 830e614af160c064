"""Spans recorded from outside the program, for the traced (``--trace 1``) run.

The benchmark never edits the program.  A span is recorded by replacing a
public function, method or module-level name with a wrapper for the length
of a ``patched`` block; spans stay in memory and are summarised at the end.
End-to-end runs install one wrapper only: ``batch_default`` reads two clocks
around each ``score_lines`` window to tell I/O waits from stolen CPU.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from common import median


class Spans:
    """Named ``(start, end)`` intervals on the ``perf_counter`` clock."""

    def __init__(self) -> None:
        self.records: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    def wrap(self, name: str, function: Callable) -> Callable:
        records = self.records[name]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                records.append((start, time.perf_counter()))

        return traced

    def durations(self, name: str) -> List[float]:
        return [end - start for start, end in self.records[name]]

    def median_ms(self, name: str) -> float:
        return median(self.durations(name)) * 1e3

    def total(self, name: str) -> float:
        return sum(self.durations(name))


@contextmanager
def patched(owner: object, attribute: str, replacement: object) -> Iterator[None]:
    """Temporarily replace ``owner.attribute`` (a module global, method, ...)."""
    had_own = attribute in vars(owner)
    original = vars(owner).get(attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


def replay_layers(pipeline, calls: Sequence[Tuple[List, List[int]]]) -> Dict[str, List[float]]:
    """Self time per layer of recorded scoring calls, replayed one at a time.

    Each recorded call (queries, ks) runs through ``Pipeline.recommend_many``,
    then ``InferenceEngine.recommend_batch`` on the parsed ids, then
    ``encode_syndrome``.  A layer's self time is its time minus the layer
    below it on the same input: api = vocabulary parse and result plumbing,
    select = tile scoring, top-k selection and result building, encode =
    syndrome pooling and MLP.  Returns per-call seconds for each layer.
    """
    from repro.api import parse_symptom_tokens

    engine = pipeline.engine
    model = pipeline.model
    vocab = pipeline.symptom_vocab
    layers: Dict[str, List[float]] = {"api": [], "select": [], "encode": []}
    for queries, ks in calls:
        sets = [tuple(parse_symptom_tokens(query, vocab)) for query in queries]
        start = time.perf_counter()
        pipeline.recommend_many(queries, k=ks)
        api_end = time.perf_counter()
        engine.recommend_batch(sets, k=ks)
        engine_end = time.perf_counter()
        model.encode_syndrome(sets)
        encode_end = time.perf_counter()
        api, engine_s, encode = api_end - start, engine_end - api_end, encode_end - engine_end
        layers["api"].append(api - engine_s)
        layers["select"].append(engine_s - encode)
        layers["encode"].append(encode)
    return layers
