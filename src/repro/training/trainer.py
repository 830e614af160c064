"""Mini-batch training loop for the neural graph recommenders.

Implements the optimisation protocol of Section IV-E: Adam, mini-batches over
prescriptions, L2 regularisation via weight decay, and one of the supported
objectives:

* ``multilabel`` — frequency-weighted multi-label MSE (the paper's Eq. 13-15);
* ``multilabel_unweighted`` — the same without the frequency weights (ablation);
* ``bpr`` — pair-wise BPR over sampled positive/negative herbs (Table VIII);
* ``logloss`` — element-wise binary cross-entropy over the multi-hot targets.

The loop runs the **training fast path**:

* the fused in-place Adam from :mod:`repro.nn.optim` (no per-step temporaries);
* a :class:`~repro.nn.GradientBufferPool` shared across batches, so backward
  passes recycle their accumulation buffers instead of reallocating them —
  after the first batch the autograd step allocates nothing;
* **pair-sliced BPR scoring**: with ``bpr_scoring="pair"`` (the default) the
  BPR objective scores only the sampled positive/negative herbs via
  :meth:`GraphHerbRecommender.score_pairs` — ``O(batch * samples * dim)``
  instead of materialising the full ``O(batch * herbs * dim)`` score matrix.
  ``bpr_scoring="full"`` restores the seed's full-vocabulary recipe exactly.

Everything the fast path changes is bit-transparent *per recipe*: losses and
final parameters are compared byte-for-byte against the frozen seed
implementation in :mod:`repro.training.reference` by
``tests/training/test_fast_path_parity.py``.  Per-phase wall-clock is recorded
by :class:`~repro.training.profiler.TrainProfiler` when ``profile`` or
``verbose`` is set and serialised with the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..data.loaders import Batch, batch_iterator
from ..data.prescriptions import PrescriptionDataset
from ..evaluation.evaluator import Evaluator
from ..models.base import GraphHerbRecommender
from ..nn import (
    Adam,
    GradientBufferPool,
    Tensor,
    binary_cross_entropy_with_logits,
    bpr_loss,
    herb_frequency_weights,
    weighted_multilabel_mse,
)
from .config import TrainerConfig
from .profiler import EpochProfile, TrainProfiler

__all__ = ["TrainingHistory", "Trainer"]

#: Shared no-op profiler used when a caller does not pass one.
_NULL_PROFILER = TrainProfiler(enabled=False)


@dataclass
class TrainingHistory:
    """Per-epoch loss (and optional validation metrics) of one training run."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_metrics: List[Dict[str, float]] = field(default_factory=list)
    #: Per-epoch phase timings; populated when the trainer ran with
    #: ``profile=True`` (or ``verbose=True``), empty otherwise.
    epoch_profiles: List[EpochProfile] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_losses)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs were run")
        return self.epoch_losses[-1]

    def improved(self) -> bool:
        """True when the last epoch's loss is lower than the first epoch's."""
        if len(self.epoch_losses) < 2:
            return True
        return self.epoch_losses[-1] < self.epoch_losses[0]

    def total_training_seconds(self) -> float:
        """Wall-clock across profiled epochs (0.0 when profiling was off)."""
        return sum(profile.total_seconds for profile in self.epoch_profiles)

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch_losses": list(self.epoch_losses),
            "validation_metrics": [dict(m) for m in self.validation_metrics],
            "epoch_profiles": [profile.to_dict() for profile in self.epoch_profiles],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TrainingHistory":
        return cls(
            epoch_losses=[float(x) for x in data.get("epoch_losses", [])],
            validation_metrics=[dict(m) for m in data.get("validation_metrics", [])],
            epoch_profiles=[
                EpochProfile.from_dict(p) for p in data.get("epoch_profiles", [])
            ],
        )


class Trainer:
    """Train a :class:`GraphHerbRecommender` on a prescription corpus."""

    #: Rounds of vectorized rejection sampling for BPR negatives before the
    #: exact complement-sampling fallback kicks in.
    MAX_NEGATIVE_RESAMPLE_ROUNDS = 16

    def __init__(self, config: Optional[TrainerConfig] = None) -> None:
        self.config = config if config is not None else TrainerConfig()

    def fit(
        self,
        model: GraphHerbRecommender,
        train_dataset: PrescriptionDataset,
        validation_evaluator: Optional[Evaluator] = None,
    ) -> TrainingHistory:
        """Run the configured epochs; returns the loss history.

        A non-finite batch loss, or a non-finite gradient after a finite loss,
        raises ``FloatingPointError`` before that batch's optimiser step, so
        the weights stay as the previous step left them.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(
            model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
        )
        herb_weights = herb_frequency_weights(train_dataset.herb_frequencies())
        named_parameters = list(model.named_parameters())
        history = TrainingHistory()
        # One pool for the whole run: after the warm-up batch every gradient
        # buffer is recycled, so steady-state steps allocate nothing.
        pool = GradientBufferPool()
        profiler = TrainProfiler(enabled=config.profile or config.verbose)
        model.train()
        for epoch in range(config.epochs):
            profiler.start_epoch(epoch)
            epoch_loss = 0.0
            num_batches = 0
            for batch in batch_iterator(
                train_dataset,
                batch_size=config.batch_size,
                shuffle=config.shuffle,
                rng=rng,
            ):
                optimizer.zero_grad(buffer_pool=pool)
                loss = self._batch_loss(model, batch, herb_weights, rng, profiler)
                batch_loss = float(loss.data)
                where = f"epoch {epoch + 1}, batch {num_batches + 1}"
                if not np.isfinite(batch_loss):  # before the step: weights stay finite
                    raise FloatingPointError(f"{where}: {config.loss} loss is {batch_loss}")
                with profiler.phase("backward"):
                    loss.backward(buffer_pool=pool)
                for name, param in named_parameters:
                    if param.grad is not None and not np.isfinite(param.grad).all():
                        raise FloatingPointError(f"{where}: gradient of {name} is not finite")
                with profiler.phase("step"):
                    optimizer.step()
                epoch_loss += batch_loss
                num_batches += 1
            mean_loss = epoch_loss / max(num_batches, 1)
            history.epoch_losses.append(mean_loss)
            if (
                validation_evaluator is not None
                and config.eval_every is not None
                and (epoch + 1) % config.eval_every == 0
            ):
                with profiler.phase("eval"):
                    result = validation_evaluator.evaluate(model)
                history.validation_metrics.append(dict(result.metrics))
                model.train()
            profile = profiler.end_epoch(
                num_batches=num_batches, pool_counters=pool.counters()
            )
            if profile is not None:
                history.epoch_profiles.append(profile)
            if config.verbose:  # pragma: no cover - logging only
                line = f"[Trainer] epoch {epoch + 1}/{config.epochs} loss={mean_loss:.4f}"
                if profile is not None:
                    line += f" | {profile.summary_line()}"
                print(line)
        model.eval()
        return history

    # ------------------------------------------------------------------
    # Loss dispatch
    # ------------------------------------------------------------------
    def _batch_loss(
        self,
        model: GraphHerbRecommender,
        batch: Batch,
        herb_weights: np.ndarray,
        rng: np.random.Generator,
        profiler: Optional[TrainProfiler] = None,
    ) -> Tensor:
        profiler = profiler if profiler is not None else _NULL_PROFILER
        loss_name = self.config.loss
        if loss_name == "bpr":
            return self._bpr_batch_loss(model, batch, rng, profiler)
        with profiler.phase("forward"):
            scores = model(batch.symptom_sets)
            if loss_name == "multilabel":
                return weighted_multilabel_mse(scores, batch.herb_targets, herb_weights)
            if loss_name == "multilabel_unweighted":
                return weighted_multilabel_mse(scores, batch.herb_targets, None)
            if loss_name == "logloss":
                return binary_cross_entropy_with_logits(scores, batch.herb_targets)
        raise ValueError(f"unsupported loss {loss_name!r}")  # pragma: no cover - guarded by config

    # ------------------------------------------------------------------
    # BPR: shared pair sampler + pair-sliced / full-vocabulary scoring
    # ------------------------------------------------------------------
    def _bpr_batch_loss(
        self,
        model: GraphHerbRecommender,
        batch: Batch,
        rng: np.random.Generator,
        profiler: Optional[TrainProfiler] = None,
    ) -> Tensor:
        """Sample (positive, negative) herb pairs per prescription and apply BPR.

        Rows with no herbs cannot supply a positive and rows whose herbs cover
        the whole vocabulary admit no negative; both are skipped instead of
        crashing / looping forever.

        With ``bpr_scoring="pair"`` only the ``2 * negative_samples`` sampled
        herbs per row are scored (:meth:`GraphHerbRecommender.score_pairs`);
        ``"full"`` materialises the complete score matrix and gathers from it,
        reproducing the seed's numerics bit-for-bit.  Both paths consume the
        random stream identically — the sampler is shared — so switching the
        recipe never changes which pairs are drawn.
        """
        profiler = profiler if profiler is not None else _NULL_PROFILER
        num_herbs = model.num_herbs
        samples = self.config.negative_samples
        pair_scoring = self.config.bpr_scoring == "pair"
        with profiler.phase("sampling"):
            herb_arrays = [np.asarray(h, dtype=np.int64) for h in batch.herb_sets]
            valid_rows = np.array(
                [
                    row
                    for row, herbs in enumerate(herb_arrays)
                    if 0 < herbs.size and np.unique(herbs).size < num_herbs
                ],
                dtype=np.int64,
            )
        scores: Optional[Tensor] = None
        if not pair_scoring:
            # Seed recipe: the full matrix is formed before sampling (the
            # sampler does not depend on it, so the order only matters for
            # keeping this path line-for-line comparable with the reference).
            with profiler.phase("forward"):
                scores = model(batch.symptom_sets)
        if valid_rows.size == 0:
            # No sampleable pair in the batch: a zero loss that still touches
            # the graph so backward() has gradients (all zero) to propagate.
            with profiler.phase("forward"):
                if scores is None:
                    scores = model(batch.symptom_sets)
                return (scores * 0.0).sum()

        with profiler.phase("sampling"):
            positive_ids, negative_ids = self._sample_bpr_pairs(
                herb_arrays, valid_rows, num_herbs, samples, rng
            )

        if pair_scoring:
            with profiler.phase("forward"):
                # Columns [0, samples) hold the positives, [samples, 2*samples)
                # the negatives; one score_pairs call runs the graph
                # propagation once for both sides.
                herb_ids = np.concatenate(
                    [
                        positive_ids.reshape(valid_rows.size, samples),
                        negative_ids.reshape(valid_rows.size, samples),
                    ],
                    axis=1,
                )
                subset = [batch.symptom_sets[row] for row in valid_rows]
                pair_scores = model.score_pairs(subset, herb_ids)
                flat = pair_scores.reshape(-1)
                width = 2 * samples
                base = np.arange(valid_rows.size, dtype=np.int64)[:, None] * width
                column = np.arange(samples, dtype=np.int64)[None, :]
                positive_scores = flat.gather_rows((base + column).ravel())
                negative_scores = flat.gather_rows((base + samples + column).ravel())
                return bpr_loss(positive_scores, negative_scores)

        with profiler.phase("forward"):
            row_ids = np.repeat(valid_rows, samples)
            flat = scores.reshape(-1)
            positive_scores = flat.gather_rows(row_ids * num_herbs + positive_ids)
            negative_scores = flat.gather_rows(row_ids * num_herbs + negative_ids)
            return bpr_loss(positive_scores, negative_scores)

    def _sample_bpr_pairs(
        self,
        herb_arrays: List[np.ndarray],
        valid_rows: np.ndarray,
        num_herbs: int,
        samples: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw flat ``(valid_rows * samples,)`` positive/negative herb ids.

        Sampling is vectorized over the batch: rejection is retried a bounded
        number of rounds and any still-colliding draw falls back to exact
        sampling from the row's complement set.  The draw sequence is the
        seed's, unchanged — both scoring recipes (and the reference trainer)
        consume the generator identically.
        """
        pools = [herb_arrays[row] for row in valid_rows]
        lengths = np.array([pool.size for pool in pools], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths[:-1])])
        flat_pool = np.concatenate(pools)
        # Positives: one uniform draw per (row, sample) from the row's herbs.
        draw = (rng.random((valid_rows.size, samples)) * lengths[:, None]).astype(np.int64)
        positive_ids = flat_pool[(offsets[:, None] + draw)].ravel()

        # Negatives: uniform over the vocabulary with bounded rejection.
        member = np.zeros((valid_rows.size, num_herbs), dtype=bool)
        member[np.repeat(np.arange(valid_rows.size), lengths), flat_pool] = True
        negative_ids = rng.integers(0, num_herbs, size=(valid_rows.size, samples))
        local_rows = np.arange(valid_rows.size)[:, None]
        for _ in range(self.MAX_NEGATIVE_RESAMPLE_ROUNDS):
            colliding = member[local_rows, negative_ids]
            if not colliding.any():
                break
            redraw = rng.integers(0, num_herbs, size=int(colliding.sum()))
            negative_ids[colliding] = redraw
        colliding = member[local_rows, negative_ids]
        if colliding.any():
            for row, col in zip(*np.nonzero(colliding)):
                complement = np.flatnonzero(~member[row])
                negative_ids[row, col] = int(rng.choice(complement))
        return positive_ids, negative_ids.ravel()
