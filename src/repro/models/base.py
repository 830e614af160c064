"""Common interfaces shared by every herb recommender in this package.

Two families of models exist:

* neural graph models (SMGCN and the GNN baselines) — subclasses of
  :class:`GraphHerbRecommender`, trained by :class:`repro.training.Trainer`;
* count/topic-model baselines (popularity, HC-KGETM) — they only need to
  implement :class:`HerbRecommender`'s scoring protocol and provide their own
  ``fit``.

The evaluation harness talks exclusively to the :class:`HerbRecommender`
protocol: ``score_sets`` maps a list of symptom-id sets to a matrix of herb
scores, from which top-k recommendations and the ranking metrics follow.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Module, Tensor, no_grad
from ..utils.cache import LazyValue

__all__ = [
    "HerbRecommender",
    "GraphHerbRecommender",
    "WeightSnapshot",
    "SCORING_BLOCK",
    "HERB_BLOCK",
    "score_herb_tiles",
]

#: Fixed row-block size for the evaluation/serving scoring path.  Every
#: ``score_sets`` call is padded to a multiple of this many rows so that the
#: dense matmuls (syndrome MLP, final herb inner product) always run with the
#: same shape.  BLAS kernels pick different summation orders for different
#: shapes (gemv vs gemm, blocking), so without the padding the same request
#: scores differently at the 1e-17 level depending on its batchmates — enough
#: to flip near-tied top-k orderings between batched and sequential serving.
#: With a fixed block, a request's row is computed by the identical sequence
#: of float ops no matter how it was batched, making micro-batched responses
#: bit-identical to single-request ones.
SCORING_BLOCK = 64

#: Fixed column-block size for the herb inner product — the same determinism
#: trick as :data:`SCORING_BLOCK`, applied to the herb axis.  The final
#: ``syndrome @ herb_embeddings.T`` runs as a grid of
#: ``(SCORING_BLOCK, dim) @ (dim, HERB_BLOCK)`` tiles, so the floating-point
#: recipe for any single score depends only on its tile's contents — not on
#: the total vocabulary width handed to one matmul.  Because the sharded
#: scorer (:class:`repro.inference.sharding.ShardedHerbIndex`) cuts the
#: vocabulary on these same tile boundaries, splitting the herb matrix
#: across shards reproduces the unsharded scores bit for bit.  Unlike the
#: row axis, the herb axis is static per model, so the trailing partial tile
#: needs no zero padding: its (possibly narrower) shape is the same on every
#: call and in every tile-aligned shard layout.
HERB_BLOCK = 256


def _pad_rows(matrix: np.ndarray, block: int) -> np.ndarray:
    """Zero-pad ``matrix`` with rows up to the next multiple of ``block``."""
    remainder = (-matrix.shape[0]) % block
    if remainder == 0:
        return matrix
    pad = np.zeros((remainder, matrix.shape[1]), dtype=matrix.dtype)
    return np.vstack([matrix, pad])


def score_herb_tiles(
    syndrome: np.ndarray,
    herb_matrix: np.ndarray,
    row_block: int = SCORING_BLOCK,
    herb_block: int = HERB_BLOCK,
) -> np.ndarray:
    """Inner-product scoring over a fixed ``(row_block, herb_block)`` tile grid.

    ``syndrome`` is ``(num_rows, dim)`` with ``num_rows`` already padded to a
    multiple of ``row_block`` (see
    :meth:`GraphHerbRecommender.encode_syndrome`); ``herb_matrix`` is
    ``(num_herbs, dim)``.  Every output element comes from one
    ``(row_block, dim) @ (dim, herb_block)`` gemm — the trailing column tile
    may be narrower, which is fine because the herb axis is static per model
    (see :data:`HERB_BLOCK`) — so the result is invariant to how the
    vocabulary was split into tile-aligned shards: the invariant both the
    unsharded and the sharded scoring paths are built on.

    Returns the ``(num_rows, num_herbs)`` score matrix (the caller owns the
    row trim).  Each gemm writes straight into its window of that matrix,
    so a call allocates nothing else of its size: separate tiles plus
    their concatenation would double the peak, and freeing both at the
    heap top makes glibc return the pages to the OS in some runs and not
    others, so the next call's page faults, and its time, vary by run.
    The whole tiles go through one stacked ``np.matmul`` (tile by row
    group, both axes views), which calls the same BLAS gemm per tile and
    row group as a Python loop over them would, without the loop's
    per-gemm interpreter cost; the narrower trailing tile is a second call.
    """
    if syndrome.shape[0] % row_block:
        raise ValueError(
            f"syndrome rows ({syndrome.shape[0]}) must be a multiple of row_block ({row_block})"
        )
    herb_matrix = np.ascontiguousarray(herb_matrix)
    num_herbs, dim = herb_matrix.shape
    groups = syndrome.shape[0] // row_block
    scores = np.empty(
        (syndrome.shape[0], num_herbs),
        dtype=np.result_type(syndrome.dtype, herb_matrix.dtype),
    )
    if num_herbs == 0 or groups == 0:
        return scores
    row_groups = syndrome.reshape(groups, row_block, dim)
    grouped = scores.reshape(groups, row_block, num_herbs)
    full = num_herbs - num_herbs % herb_block
    if full:
        tiles = full // herb_block
        np.matmul(
            row_groups[None],  # (1, groups, row_block, dim)
            herb_matrix[:full].reshape(tiles, herb_block, dim).transpose(0, 2, 1)[:, None],
            out=grouped[:, :, :full]
            .reshape(groups, row_block, tiles, herb_block)
            .transpose(2, 0, 1, 3),  # (tiles, groups, row_block, herb_block)
        )
    if full < num_herbs:
        np.matmul(row_groups, herb_matrix[full:].T, out=grouped[:, :, full:])
    return scores


#: Process-wide counter behind snapshot keys: two snapshots never share a key
#: unless they genuinely are the same export of the same model state.
_SNAPSHOT_TAGS = itertools.count(1)


@dataclass(frozen=True, eq=False)
class WeightSnapshot:
    """An immutable, parameter-version-stamped export of the scoring weights.

    This is the unit of weight distribution: shard tasks
    (:class:`~repro.inference.backends.ShardTask`) never carry weights
    themselves — they reference a snapshot by ``key``, and a compute backend
    is responsible for making the snapshot's ``herb_embeddings`` available
    wherever tasks execute (in-process by reference, across machines via
    the ``.npz`` wire codec in :mod:`repro.io.checkpoint`).

    ``key`` is unique per (model instance, parameter version): any optimiser
    step or ``load_state_dict`` bumps the parameter version, so a new export
    gets a new key and every cached attachment of the old one is identifiable
    as stale.  The embedding matrix is a **read-only view** of the model's
    cached propagation — exporting is zero-copy.
    """

    key: str
    #: The exporting model's ``parameter_version()`` fingerprint.
    version: Tuple[int, int]
    #: ``(num_herbs, dim)`` read-only, C-contiguous, float64.
    herb_embeddings: np.ndarray = field(repr=False)
    #: The exporting model's fixed scoring row block (see :data:`SCORING_BLOCK`).
    row_block: int = SCORING_BLOCK
    #: The float32 herb copy the exact top-k screen scores against, made on
    #: the first screened ``topk`` task, never at export, and shared by every
    #: thread that scores this snapshot; a shard worker's decoded snapshot
    #: holds its own (see :func:`repro.inference.backends.execute_shard_task`).
    float32_copy: LazyValue = field(default_factory=LazyValue, repr=False, compare=False)

    @property
    def num_herbs(self) -> int:
        return int(self.herb_embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.herb_embeddings.shape[1])

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        row_block: int = SCORING_BLOCK,
        version: Tuple[int, int] = (0, 0),
        key: Optional[str] = None,
    ) -> "WeightSnapshot":
        """Wrap a bare herb-embedding matrix (benchmarks, tests, raw arrays)."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        view = matrix.view()
        view.flags.writeable = False
        if key is None:
            key = f"anon{next(_SNAPSHOT_TAGS)}-v{version[0]}.{version[1]}"
        return cls(key=key, version=tuple(version), herb_embeddings=view, row_block=row_block)


class HerbRecommender(abc.ABC):
    """Protocol every herb recommender exposes to the evaluator."""

    @property
    @abc.abstractmethod
    def num_herbs(self) -> int:
        """Size of the herb vocabulary being scored."""

    @abc.abstractmethod
    def score_sets(self, symptom_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Return an ``(len(symptom_sets), num_herbs)`` matrix of herb scores."""

    def recommend(self, symptom_set: Sequence[int], k: int = 20) -> List[int]:
        """Greedy top-``k`` herb ids for one symptom set (paper's inference rule).

        Ranked in the canonical (score desc, id asc) order of ``top_k_indices``.
        """
        from ..evaluation.metrics import top_k_indices  # evaluation imports this module

        return top_k_indices(self.score_sets([tuple(symptom_set)]), k)[0].tolist()


class GraphHerbRecommender(Module, HerbRecommender):
    """Base class for the neural graph recommenders.

    Subclasses implement :meth:`encode`, producing one embedding per symptom
    and one per herb; the shared prediction layer (syndrome induction +
    inner product with all herb embeddings) is implemented here so that every
    model is compared under exactly the same interaction-modelling regime, as
    in the paper's "fair comparison" protocol.
    """

    def __init__(self, num_symptoms: int, num_herbs: int) -> None:
        super().__init__()
        if num_symptoms <= 0 or num_herbs <= 0:
            raise ValueError("vocabulary sizes must be positive")
        self._num_symptoms = num_symptoms
        self._num_herbs = num_herbs
        self._encode_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._encode_cache_version: Optional[Tuple[int, int]] = None
        self._propagation_count = 0  # instrumentation: total full-graph propagations

    # ------------------------------------------------------------------
    # Protocol properties
    # ------------------------------------------------------------------
    @property
    def num_symptoms(self) -> int:
        return self._num_symptoms

    @property
    def num_herbs(self) -> int:
        return self._num_herbs

    # ------------------------------------------------------------------
    # To be provided by subclasses
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset, config=None) -> "GraphHerbRecommender":
        """Build the model (and its graphs) from a training corpus.

        Every registered model implements this builder; it is the construction
        path the model registry and the checkpoint loader go through, so the
        entire architecture must be reproducible from ``(dataset, config)``
        alone — learned state is restored separately via ``load_state_dict``.
        """
        raise NotImplementedError(f"{cls.__name__} does not implement from_dataset")

    @abc.abstractmethod
    def encode(self) -> Tuple[Tensor, Tensor]:
        """Return ``(symptom_embeddings, herb_embeddings)`` for all nodes."""

    @abc.abstractmethod
    def induce_syndrome(self, symptom_embeddings: Tensor, symptom_sets: Sequence[Sequence[int]]) -> Tensor:
        """Pool per-set symptom embeddings into syndrome representations."""

    # ------------------------------------------------------------------
    # Shared prediction layer
    # ------------------------------------------------------------------
    def forward(self, symptom_sets: Sequence[Sequence[int]]) -> Tensor:
        """Scores for every herb given each symptom set (Eq. 13's ``g``)."""
        symptom_embeddings, herb_embeddings = self.encode()
        syndrome = self.induce_syndrome(symptom_embeddings, symptom_sets)
        return syndrome @ herb_embeddings.T

    def score_pairs(self, symptom_sets: Sequence[Sequence[int]], herb_ids) -> Tensor:
        """Training-mode scores for a per-row *slice* of the herb vocabulary.

        ``herb_ids`` is an integer array of shape ``(len(symptom_sets), K)``;
        the result is a ``(len(symptom_sets), K)`` tensor whose entry
        ``[i, k]`` is the inner product of row ``i``'s syndrome embedding with
        herb ``herb_ids[i, k]``'s embedding — the same quantity
        ``forward(symptom_sets)[i, herb_ids[i, k]]`` denotes, contracted only
        against the gathered herb rows.  For pair-sampled objectives (BPR)
        this turns the ``O(B * H * d)`` full-vocabulary score matrix into
        ``O(B * K * d)`` work while the graph propagation still runs once.

        The autograd graph is recorded exactly as in :meth:`forward` up to the
        final contraction, so gradients flow into the propagation and the
        syndrome MLP; the backward of the contraction scatter-adds only into
        the gathered syndrome/herb rows.

        Floating-point note: the contraction is an elementwise
        multiply-and-sum rather than the full matrix product, so individual
        scores may differ from ``forward``'s at the last-ulp level (BLAS picks
        a different summation order) — same contract as the tiled serving
        path.  Training paths that need the seed's exact full-matrix numerics
        use the ``bpr_scoring="full"`` escape hatch instead.
        """
        herb_ids = np.asarray(herb_ids, dtype=np.int64)
        if herb_ids.ndim != 2:
            raise ValueError(f"herb_ids must be 2-D (rows, K), got shape {herb_ids.shape}")
        if herb_ids.shape[0] != len(symptom_sets):
            raise ValueError(
                f"herb_ids has {herb_ids.shape[0]} rows for {len(symptom_sets)} symptom sets"
            )
        if herb_ids.size and (herb_ids.min() < 0 or herb_ids.max() >= self.num_herbs):
            raise IndexError(f"herb ids out of range [0, {self.num_herbs})")
        symptom_embeddings, herb_embeddings = self.encode()
        syndrome = self.induce_syndrome(symptom_embeddings, symptom_sets)
        num_rows, per_row = herb_ids.shape
        row_ids = np.repeat(np.arange(num_rows, dtype=np.int64), per_row)
        syndrome_rows = syndrome.gather_rows(row_ids)
        herb_rows = herb_embeddings.gather_rows(herb_ids.reshape(-1))
        return (syndrome_rows * herb_rows).sum(axis=1).reshape(num_rows, per_row)

    # ------------------------------------------------------------------
    # Cached graph propagation (serving / evaluation hot path)
    # ------------------------------------------------------------------
    def parameter_version(self) -> Tuple[int, int]:
        """A cheap fingerprint of the trainable state: ``(count, sum of versions)``.

        Optimiser steps and ``load_state_dict`` bump each parameter's version,
        so any in-place update changes the fingerprint without hashing data.
        """
        count = 0
        total = 0
        for param in self.parameters():
            count += 1
            total += getattr(param, "version", 0)
        return (count, total)

    def invalidate_cache(self) -> None:
        """Drop the cached node embeddings (next scoring call re-propagates)."""
        self._encode_cache = None
        self._encode_cache_version = None

    def precompute(self) -> Tuple[np.ndarray, np.ndarray]:
        """Run one full-graph propagation in eval mode and cache the result.

        Returns ``(symptom_embeddings, herb_embeddings)`` as plain arrays.
        The cache is keyed by :meth:`parameter_version`, so it survives any
        number of scoring calls and invalidates as soon as an optimiser step
        (or an explicit :meth:`train`/:meth:`invalidate_cache`) mutates state.
        """
        was_training = self.training
        self._apply_training_flag(False)
        try:
            with no_grad():
                symptom_embeddings, herb_embeddings = self.encode()
        finally:
            self._apply_training_flag(was_training)
        self._propagation_count += 1
        cache = (symptom_embeddings.data.copy(), herb_embeddings.data.copy())
        self._encode_cache = cache
        self._encode_cache_version = self.parameter_version()
        return cache

    def cached_encode(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cached ``(symptom, herb)`` embedding arrays, refreshed if stale."""
        if self._encode_cache is not None and self._encode_cache_version == self.parameter_version():
            return self._encode_cache
        return self.precompute()

    def export_snapshot(self) -> "WeightSnapshot":
        """Zero-copy, parameter-version-stamped export of the scoring weights.

        Returns a :class:`WeightSnapshot` whose ``herb_embeddings`` is a
        read-only view of the cached propagation (refreshed here if stale) —
        no copy is made.  ``precompute`` always allocates fresh arrays, so a
        snapshot stays valid and immutable even after the model trains on:
        later exports see new arrays under new keys, never mutations of this
        one.
        """
        _, herb_embeddings = self.cached_encode()
        version = self.parameter_version()
        if not hasattr(self, "_snapshot_tag"):
            object.__setattr__(self, "_snapshot_tag", next(_SNAPSHOT_TAGS))
        view = herb_embeddings.view()
        view.flags.writeable = False
        return WeightSnapshot(
            key=f"m{self._snapshot_tag}-v{version[0]}.{version[1]}",
            version=version,
            herb_embeddings=view,
            row_block=max(1, int(self.scoring_block)),
        )

    @property
    def propagation_count(self) -> int:
        """How many full-graph propagations :meth:`precompute` has run."""
        return self._propagation_count

    def train(self, mode: bool = True) -> "GraphHerbRecommender":
        """Entering training mode marks the cached propagation dirty."""
        if mode:
            self.invalidate_cache()
        return super().train(mode)

    #: Overridable per instance/subclass; see :data:`SCORING_BLOCK`.
    scoring_block: int = SCORING_BLOCK

    def encode_syndrome(self, symptom_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Eval-mode syndrome embeddings, row-padded to :attr:`scoring_block`.

        The first half of the scoring pipeline: pool each symptom set over the
        cached propagation and run the syndrome MLP, in fixed row blocks (the
        final block filled with a dummy ``(0,)`` set) so every block's matmuls
        have the same shape regardless of batching.  Returns a
        ``(padded_rows, dim)`` array whose first ``len(symptom_sets)`` rows
        are the real syndromes — callers that go on to score shards of the
        vocabulary (:class:`repro.inference.sharding.ShardedHerbIndex`) reuse
        this one result for every shard.
        """
        _, herb_embeddings = self.cached_encode()
        if len(symptom_sets) == 0:
            return np.zeros((0, herb_embeddings.shape[1]), dtype=np.float64)
        block = max(1, int(self.scoring_block))
        padded = list(symptom_sets) + [(0,)] * (-len(symptom_sets) % block)
        symptom_embeddings, _ = self.cached_encode()
        was_training = self.training
        self._apply_training_flag(False)
        rows = []
        try:
            with no_grad():
                for start in range(0, len(padded), block):
                    syndrome = self.induce_syndrome(
                        Tensor(symptom_embeddings), padded[start : start + block]
                    )
                    rows.append(syndrome.data)
        finally:
            self._apply_training_flag(was_training)
        return rows[0] if len(rows) == 1 else np.vstack(rows)

    def score_sets(self, symptom_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Evaluation-mode scoring: no dropout, no autograd graph.

        Served from the cached propagation: the expensive full-graph
        ``encode()`` runs at most once while the parameters are frozen, no
        matter how many batches are scored.  Only the per-batch syndrome
        induction (pooling + MLP) is recomputed here.

        Determinism comes from a fixed tile grid in both axes.  Rows are
        padded to :attr:`scoring_block` (see :data:`SCORING_BLOCK`: BLAS
        picks shape-dependent summation orders, so without padding a
        request's scores would wobble at the 1e-17 level with its batchmates
        — enough to flip near-tied top-k orderings between batched and
        sequential serving).  Herb columns are scored in fixed
        :data:`HERB_BLOCK` tiles for the same reason applied to the herb
        axis, which is what makes column-sharded scoring
        (:class:`~repro.inference.sharding.ShardedHerbIndex`) bit-identical
        to this call.
        """
        num_sets = len(symptom_sets)
        if num_sets == 0:
            return np.zeros((0, self.num_herbs), dtype=np.float64)
        syndrome = self.encode_syndrome(symptom_sets)
        _, herb_embeddings = self.cached_encode()
        scores = score_herb_tiles(
            syndrome, herb_embeddings, row_block=max(1, int(self.scoring_block))
        )
        return np.array(scores[:num_sets], dtype=np.float64)
