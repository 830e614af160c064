"""High-level facade: train, evaluate, serve and persist models in a few lines.

:class:`Pipeline` wires the experiment corpus, the trainer, the evaluator and
the cached-propagation :class:`~repro.inference.engine.InferenceEngine`
together behind one object::

    from repro.api import Pipeline

    pipeline = Pipeline("SMGCN", scale="smoke").fit()
    print(pipeline.evaluate().metrics["p@5"])
    print(pipeline.recommend("symptom_003 symptom_014", k=5))
    pipeline.save("smgcn.npz")

    # Later — possibly in another process: milliseconds, no retraining.
    served = Pipeline.load("smgcn.npz")
    print(served.recommend("symptom_003 symptom_014", k=5))

Models are resolved by their registered name (see
:data:`repro.models.MODEL_REGISTRY`), and persistence goes through the
single-file checkpoint format of :mod:`repro.io.checkpoint`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from .evaluation.evaluator import EvaluationResult, Evaluator
from .evaluation.metrics import top_k_indices
from .experiments.datasets import experiment_evaluator, experiment_split, get_profile
from .experiments.runners import train_registered_model
from .inference.engine import InferenceEngine, Recommendation, ranked_prefixes
from .inference.options import FIELD_NAMES, EngineOptions
from .io.checkpoint import load_checkpoint, save_checkpoint, validate_checkpoint_path
from .models import MODEL_REGISTRY
from .models.base import GraphHerbRecommender
from .training import TrainerConfig

__all__ = ["Pipeline", "parse_symptom_tokens"]


def parse_symptom_tokens(raw: Union[str, Sequence[Union[int, str]]], vocab) -> List[int]:
    """Map symptom tokens and/or integer ids onto vocabulary ids.

    Accepts a whitespace-separated string or a sequence mixing ids and
    tokens; raises ``ValueError`` for unknown tokens, out-of-range ids or an
    empty query.
    """
    tokens = raw.split() if isinstance(raw, str) else list(raw)
    if not tokens:
        raise ValueError("no symptoms given")
    ids: List[int] = []
    for token in tokens:
        if isinstance(token, (int, np.integer)) or (
            isinstance(token, str) and token.lstrip("-").isdigit()
        ):
            symptom_id = int(token)
            if not 0 <= symptom_id < len(vocab):
                raise ValueError(f"symptom id {symptom_id} out of range [0, {len(vocab)})")
            ids.append(symptom_id)
        elif token in vocab:
            ids.append(vocab.id_of(token))
        else:
            raise ValueError(f"unknown symptom token {token!r}")
    return ids


class _SymptomIds(tuple):
    """Symptom ids already parsed against a pipeline's vocabulary.

    Internal to the serving and batch scoring core
    (:func:`repro.io.catalog.answer`), which parses each query once, so a
    bad query fails alone, and hands the ids on in this type;
    :meth:`Pipeline.recommend_many` passes them to the engine as they are
    instead of parsing them again.  Not part of the public API: every other
    query is parsed and checked.
    """

    __slots__ = ()


class Pipeline:
    """Train once, serve forever: one object from corpus to recommendations.

    ``options`` is the serving engine's :class:`~repro.inference.options.
    EngineOptions`; its field names are also accepted as keywords
    (``Pipeline("SMGCN", retrieval="approx")``) and folded in.  Every other
    keyword overrides a field of the model's config.
    """

    def __init__(
        self,
        model: str = "SMGCN",
        scale: str = "default",
        seed: int = 0,
        trainer_config: Optional[TrainerConfig] = None,
        options: Optional[EngineOptions] = None,
        **overrides,
    ) -> None:
        self._entry = MODEL_REGISTRY.get(model)  # fail fast on unknown names
        self.model_name = model
        self.scale = scale
        self.seed = seed
        self.trainer_config = trainer_config
        # engine knobs and model-config overrides share **overrides; they are
        # told apart by EngineOptions' field names (no model config reuses one)
        knobs = {name: overrides.pop(name) for name in FIELD_NAMES if name in overrides}
        self.options = dataclasses.replace(options or EngineOptions(), **knobs)
        self.model_overrides = overrides
        self._model = None
        self._history = None
        self._engine: Optional[InferenceEngine] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    @property
    def model(self):
        return self._require_model()

    @property
    def history(self):
        """The training loss history (``None`` for self-fitting baselines)."""
        return self._history

    @property
    def symptom_vocab(self):
        return self._train_split().symptom_vocab

    @property
    def herb_vocab(self):
        return self._train_split().herb_vocab

    def _train_split(self):
        train, _ = experiment_split(self.scale)
        return train

    def _require_model(self):
        if self._model is None:
            raise RuntimeError("Pipeline is not fitted; call fit() or load() first")
        return self._model

    # ------------------------------------------------------------------
    # Training / evaluation
    # ------------------------------------------------------------------
    def fit(self) -> "Pipeline":
        """Train the configured model on the scale's training split."""
        self._model, self._history = train_registered_model(
            self.model_name,
            scale=self.scale,
            trainer_config=self.trainer_config,
            seed=self.seed,
            **self.model_overrides,
        )
        if self._engine is not None:  # release backend workers before dropping
            self._engine.close()
        self._engine = None
        return self

    def evaluate(self, evaluator: Optional[Evaluator] = None) -> EvaluationResult:
        """Ranking metrics on the scale's test split (or a custom evaluator)."""
        evaluator = evaluator if evaluator is not None else experiment_evaluator(self.scale)
        return evaluator.evaluate(self._require_model(), name=self.model_name)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def engine(self) -> InferenceEngine:
        """A warmed-up inference engine over the fitted neural model.

        Built from the pipeline's :attr:`options`, so sharded scoring, pooled
        backends and approximate retrieval flow through every
        ``recommend``/``score`` call (and the serving layer above).
        """
        model = self._require_model()
        if not isinstance(model, GraphHerbRecommender):
            raise TypeError(
                f"{self.model_name!r} is not a neural graph model; "
                "call recommend()/score() directly instead"
            )
        if self._engine is None:
            self._engine = InferenceEngine(model, self.options).warm_up()
        return self._engine

    def close(self) -> None:
        """Release serving resources (backend workers, shared memory, sockets).

        Safe to call on an unfitted pipeline and idempotent; the pipeline can
        keep serving afterwards (pooled backends re-open lazily).
        """
        if self._engine is not None:
            self._engine.close()

    def score(self, symptom_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Herb-score matrix for already-encoded symptom-id sets."""
        model = self._require_model()
        if isinstance(model, GraphHerbRecommender):
            return self.engine.score_batch(symptom_sets)
        return model.score_sets(symptom_sets)

    def recommend(
        self, symptoms: Union[str, Sequence[Union[int, str]]], k: int = 10
    ) -> Recommendation:
        """Top-``k`` herbs for one symptom set (tokens and/or integer ids)."""
        return self.recommend_many([symptoms], k=k)[0]

    def recommend_many(
        self,
        queries: Sequence[Union[str, Sequence[Union[int, str]]]],
        k: Union[int, Sequence[int]] = 10,
    ) -> List[Recommendation]:
        """Top-``k`` herbs for many symptom sets through one batched scoring pass.

        ``queries`` mixes token strings and id sequences; ``k`` is one integer
        or one per query.  The whole batch is answered from a single pooling
        matmul (per chunk) instead of one model call per query — this is the
        passthrough the micro-batching serving layer drains its queue through.
        Answers are bit-identical to calling :meth:`recommend` per query.
        """
        queries = list(queries)
        ks = [k] * len(queries) if isinstance(k, (int, np.integer)) else list(k)
        if len(ks) != len(queries):
            raise ValueError(f"got {len(ks)} k values for {len(queries)} queries")
        if any(kk <= 0 for kk in ks):
            raise ValueError("k must be positive")
        if not queries:
            return []
        vocab = self.symptom_vocab
        sets = [
            query if type(query) is _SymptomIds else tuple(parse_symptom_tokens(query, vocab))
            for query in queries
        ]
        model = self._require_model()
        if isinstance(model, GraphHerbRecommender):
            return self.engine.recommend_batch(sets, k=ks)
        scores = model.score_sets(sets)
        top = top_k_indices(scores, max(ks))
        return ranked_prefixes(top, np.take_along_axis(scores, top, axis=1), ks)

    def recommend_stream(self, records, k: int = 10, window: int = 1024):
        """Stream JSONL prescription records through the pipeline, lazily.

        ``records`` is any iterable mixing JSONL strings/bytes and dicts of
        the batch record schema (``{"id": ..., "symptoms": [...], "k": N}``
        — see ``docs/BATCH.md``); the generator yields one result dict per
        record **in input order** while holding at most ``window`` records
        in memory, so corpora of any size stream with bounded RSS.  A
        malformed or unscorable record yields ``{"id": ..., "error": ...}``
        instead of raising — record failures never abort the stream.  Blank
        lines are skipped.  ``k`` is the default list length for records
        without their own ``"k"``.

        This is the in-process face of ``repro batch``: results are
        bit-identical to per-record :meth:`recommend` calls (and to the
        batch CLI's output lines), whatever the window or backend placement.
        """
        import json

        from .batch.runner import stream_results
        from .io.catalog import ModelCatalog

        if k <= 0:
            raise ValueError("k must be positive")
        self._require_model()  # fail fast, not one error line per record
        catalog = ModelCatalog.for_pipeline(self)
        for line in stream_results(catalog, records, default_k=k, window=window):
            yield json.loads(line)

    def decode_herbs(self, recommendation: Recommendation) -> List[str]:
        """Herb tokens for a :class:`Recommendation`'s ids."""
        return [self.herb_vocab.token_of(herb_id) for herb_id in recommendation.herb_ids]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the fitted model to a single-file checkpoint bundle."""
        return save_checkpoint(
            self._require_model(),
            path,
            self._train_split(),
            name=self.model_name,
            scale=self.scale,
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        scale: Optional[str] = None,
        options: Optional[EngineOptions] = None,
        **knobs,
    ) -> "Pipeline":
        """Rebuild a pipeline from a checkpoint in milliseconds — no training.

        ``scale`` defaults to the scale recorded in the checkpoint header; the
        loader refuses checkpoints whose vocabulary fingerprints do not match
        the target corpus.  The bundle is opened once — the header resolves
        the corpus in-flight.  The loaded pipeline carries the checkpoint's
        seed and config as its own, so a later ``fit()`` retrains the same
        architecture rather than a default one.  ``options`` and option-named
        keywords configure the serving engine as in the constructor: they are
        serving knobs, not checkpoint properties.

        The path is validated up front (exists, regular file, ``.npz``) so a
        typo fails with one clear :class:`~repro.io.checkpoint.CheckpointError`
        before any corpus is built or serving resource spawned.
        """
        options = dataclasses.replace(options or EngineOptions(), **knobs)
        path = validate_checkpoint_path(path)

        resolved = {}

        def resolve(header):
            resolved["scale"] = scale if scale is not None else (header.scale or "default")
            get_profile(resolved["scale"])  # validate before building datasets
            train, _ = experiment_split(resolved["scale"])
            return train

        model, header = load_checkpoint(path, resolve_dataset=resolve)
        overrides = {
            field.name: getattr(model.config, field.name)
            for field in dataclasses.fields(model.config)
            if field.init
        }
        seed = overrides.pop("seed", 0)
        pipeline = cls(
            header.model_name,
            scale=resolved["scale"],
            seed=seed,
            options=options,
            **overrides,
        )
        pipeline._model = model
        return pipeline
