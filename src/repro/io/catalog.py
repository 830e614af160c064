"""Multi-model serving catalog with zero-downtime checkpoint rollout.

A production fleet never serves one frozen model: checkpoints roll
continuously and several variants (SMGCN, its ablations, the baselines)
share one worker fleet.  :class:`ModelCatalog` owns N named entries — each a
``(checkpoint path, serving pipeline/engine, version history)`` record — and
gives every layer above it one contract:

* **routing** — :meth:`ModelCatalog.lease` pins a request to the entry's
  *current* pipeline for the duration of one scoring call;
* **rollout** — :meth:`ModelCatalog.publish` builds the new pipeline from a
  checkpoint, warms its propagation/shard index *off to the side*, then
  swaps the entry atomically.  In-flight requests drain on the old
  generation; the last lease out closes it, releasing old weight snapshots
  through the engine's index cache / ``release_snapshot`` path — so
  rollouts never grow memory and never drop or corrupt a request;
* **answering** — :func:`answer` is the one request-scoring path behind
  ``repro serve`` and ``repro batch``: it takes one :class:`Query` type from
  both, routes once per requested model, leases each entry, parses, scores
  each entry's queries in one pooled call, retries per query when that call
  fails, and mirrors answered queries to a canary;
* **observation** — per-entry version history, a shadow/canary mode that
  mirrors a configurable fraction of traffic to a candidate build and
  reports score/latency deltas without affecting responses, and
  :class:`CheckpointWatcher`, which polls checkpoint files (mtime/size, then
  content fingerprint) and publishes changed ones automatically.

The bit-identity invariant is preserved *per entry*: the same published
version answers identically before, during and after a rollout of any other
entry, because entries share nothing but the catalog dict.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ContextManager, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..data.vocab import Vocabulary
from ..inference.options import EngineOptions
from ..utils.cache import VersionedCache
from .checkpoint import (
    CheckpointError,
    checkpoint_fingerprint,
    validate_checkpoint_path,
)

__all__ = [
    "Answer",
    "CanaryState",
    "CatalogEntry",
    "CatalogError",
    "CheckpointWatcher",
    "MAX_VERSION_HISTORY",
    "ModelCatalog",
    "ModelVersion",
    "Query",
    "answer",
    "warm_pipeline",
]

#: What an entry is served with: ``(scale, EngineOptions)``.  A ``None``
#: scale loads each checkpoint at the scale recorded in its header.
Serving = Tuple[Optional[str], EngineOptions]

#: How many :class:`ModelVersion` records an entry keeps.  Rollout tooling
#: wants recent history (what rolled, when, from which file); unbounded
#: history on a server rolling every few minutes would grow forever.
MAX_VERSION_HISTORY = 16


class CatalogError(RuntimeError):
    """A catalog operation cannot be performed (unknown model, bad rollout)."""


@dataclass(frozen=True)
class ModelVersion:
    """One published generation of a catalog entry."""

    ordinal: int
    checkpoint_path: Optional[str]
    fingerprint: Optional[str]
    published_at: float

    def describe(self) -> Dict[str, Any]:
        return {
            "ordinal": self.ordinal,
            "checkpoint": self.checkpoint_path,
            "fingerprint": self.fingerprint,
            "published_at": self.published_at,
        }


class CanaryState:
    """Shadow a fraction of one entry's traffic onto a candidate pipeline.

    The candidate answers the *same* symptom sets as the primary, off the
    response path: the client always receives the primary's answer, while the
    canary accumulates agreement and delta statistics — exact top-k match
    rate, mean |top-1 score delta|, and mean per-request latency for both
    sides — read back via :meth:`report`.

    Mirroring is deterministic, not random: request ``n`` is mirrored when
    ``floor(n * fraction)`` increments, so a fraction of ``0.25`` mirrors
    exactly every fourth request and reports are reproducible.
    """

    def __init__(
        self,
        pipeline,
        fraction: float,
        checkpoint_path: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise CatalogError(f"canary fraction must lie in (0, 1], got {fraction}")
        self.pipeline = pipeline
        self.fraction = float(fraction)
        self.checkpoint_path = checkpoint_path
        self.fingerprint = fingerprint
        self._lock = threading.Lock()
        self._seen = 0
        self._mirrored = 0
        self._errors = 0
        self._matches = 0
        self._score_delta_total = 0.0
        self._primary_ms_total = 0.0
        self._shadow_ms_total = 0.0

    def take(self) -> bool:
        """Whether the next request should be mirrored (deterministic)."""
        with self._lock:
            self._seen += 1
            return int(self._seen * self.fraction) > int((self._seen - 1) * self.fraction)

    def record(
        self, matched: bool, score_delta: float, primary_ms: float, shadow_ms: float
    ) -> None:
        with self._lock:
            self._mirrored += 1
            self._matches += int(matched)
            self._score_delta_total += abs(float(score_delta))
            self._primary_ms_total += float(primary_ms)
            self._shadow_ms_total += float(shadow_ms)

    def record_error(self) -> None:
        with self._lock:
            self._errors += 1

    def mirror(self, query: "Query", primary: "Answer", primary_ms: float) -> None:
        """Score ``query`` on the candidate and record how it compares.

        Never raises: a candidate failure is only counted.
        """
        try:
            started = time.perf_counter()
            shadow = self.pipeline.recommend(query.symptoms, k=query.k)
            shadow_ms = (time.perf_counter() - started) * 1000.0
        except Exception:  # noqa: BLE001 — a canary must never hurt serving
            self.record_error()
            return
        shadow_herbs = [self.pipeline.herb_vocab.token_of(h) for h in shadow.herb_ids]
        self.record(
            matched=list(primary.herbs) == shadow_herbs,
            score_delta=(shadow.scores[0] if shadow.scores else 0.0)
            - (primary.scores[0] if primary.scores else 0.0),
            primary_ms=primary_ms,
            shadow_ms=shadow_ms,
        )

    def report(self) -> Dict[str, Any]:
        with self._lock:
            mirrored = self._mirrored
            report = {
                "checkpoint": self.checkpoint_path,
                "fraction": self.fraction,
                "seen": self._seen,
                "mirrored": mirrored,
                "errors": self._errors,
                "match_rate": (self._matches / mirrored) if mirrored else None,
                "mean_score_delta": (
                    self._score_delta_total / mirrored if mirrored else None
                ),
                "mean_primary_ms": (
                    self._primary_ms_total / mirrored if mirrored else None
                ),
                "mean_shadow_ms": (
                    self._shadow_ms_total / mirrored if mirrored else None
                ),
            }
        return report


class CatalogEntry:
    """One named model slot: current pipeline, draining predecessors, history."""

    def __init__(self, name: str, pipeline, version: ModelVersion, serving: Serving) -> None:
        self.name = name
        #: version ordinal -> pipeline: the current generation, plus retired
        #: ones still finishing leased requests, each closed by its last
        #: lease out.
        self.generations = VersionedCache(1, on_retire=lambda _, pipeline: pipeline.close())
        self.generations.put(version.ordinal, pipeline)
        self.versions: List[ModelVersion] = [version]
        #: ``(scale, EngineOptions)`` a rollout re-applies to ``Pipeline.load``
        #: so the new generation serves at the same scale with the same knobs.
        self.serving = serving
        #: the :class:`CanaryState` mirrored to, keyed by itself; a replaced
        #: or cleared canary closes its candidate after its last mirror.
        self.canaries = VersionedCache(1, on_retire=lambda _, canary: canary.pipeline.close())
        self.last_error: Optional[str] = None

    # -- reads ----------------------------------------------------------
    @property
    def pipeline(self):
        """The current generation's pipeline (peek — no lease taken)."""
        return self.generations.peek()

    @property
    def version(self) -> ModelVersion:
        return self.versions[-1]

    @property
    def draining(self) -> int:
        """Retired generations still finishing in-flight requests."""
        return self.generations.draining

    @property
    def canary(self) -> Optional[CanaryState]:
        return self.canaries.peek()

    def lease(self) -> ContextManager[Any]:
        """Pin the current pipeline for one scoring call.

        A rollout swapping the entry mid-call leaves this lease scoring on
        the old generation; the generation is closed (snapshots released)
        only once its last lease checks back in.
        """
        return self.generations.lease()

    def describe(self) -> Dict[str, Any]:
        """One JSON-able status record (the ``models`` control line's unit)."""
        pipeline = self.pipeline
        info: Dict[str, Any] = {
            "name": self.name,
            "model": pipeline.model_name,
            "scale": pipeline.scale,
            "version": self.version.ordinal,
            "checkpoint": self.version.checkpoint_path,
            "fingerprint": self.version.fingerprint,
            "draining": self.draining,
        }
        engine = getattr(pipeline, "_engine", None)
        if engine is not None:
            info.update(engine.backend_status())
        if self.canary is not None:
            info["canary"] = self.canary.report()
        if self.last_error is not None:
            info["last_error"] = self.last_error
        return info

    # -- swap / teardown ------------------------------------------------
    def _swap(self, pipeline, version: ModelVersion) -> None:
        """Make ``pipeline`` the current generation; the old one drains."""
        self.generations.put(version.ordinal, pipeline)
        self.versions.append(version)
        del self.versions[:-MAX_VERSION_HISTORY]
        self.last_error = None

    def close(self) -> None:
        """Release every generation's and the canary's serving resources (terminal)."""
        self.generations.close()
        self.canaries.close()


def warm_pipeline(pipeline):
    """``pipeline``, with a neural model's propagation and shard index built
    so it never warms up on live traffic."""
    from ..models.base import GraphHerbRecommender

    if isinstance(pipeline.model, GraphHerbRecommender):
        pipeline.engine  # noqa: B018 — building the engine warms it
    return pipeline


class ModelCatalog:
    """N named, versioned, hot-swappable serving entries behind one surface."""

    def __init__(self, serving_defaults: Serving = (None, EngineOptions())) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, CatalogEntry] = {}
        self._order: List[str] = []
        self._default_name: Optional[str] = None
        #: ``(scale, EngineOptions)`` for entries ``publish`` creates; a
        #: ``None`` scale means the checkpoint's own.
        self.serving_defaults = serving_defaults
        #: serializes rollouts: two concurrent publishes must not both build
        #: engines for the same entry and race the swap.
        self._publish_lock = threading.Lock()

    # -- construction ---------------------------------------------------
    @classmethod
    def for_pipeline(
        cls,
        pipeline,
        name: Optional[str] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ) -> "ModelCatalog":
        """Wrap one ready pipeline as a single-entry catalog (legacy serve path)."""
        catalog = cls()
        catalog.add(name or pipeline.model_name, pipeline, checkpoint_path=checkpoint_path)
        return catalog

    def add(
        self,
        name: str,
        pipeline,
        checkpoint_path: Optional[Union[str, Path]] = None,
        default: bool = False,
    ) -> CatalogEntry:
        """Register a ready pipeline under ``name`` (version 1 of the entry)."""
        fingerprint = None
        if checkpoint_path is not None:
            checkpoint_path = str(checkpoint_path)
            try:
                fingerprint = checkpoint_fingerprint(checkpoint_path)
            except OSError:
                fingerprint = None
        version = ModelVersion(
            ordinal=1,
            checkpoint_path=checkpoint_path,
            fingerprint=fingerprint,
            published_at=time.time(),
        )
        entry = CatalogEntry(name, pipeline, version, (pipeline.scale, pipeline.options))
        with self._lock:
            if name in self._entries:
                raise CatalogError(f"model {name!r} is already in the catalog")
            self._entries[name] = entry
            self._order.append(name)
            if default or self._default_name is None:
                self._default_name = name
        return entry

    # -- reads ----------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return list(self._order)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def default_name(self) -> Optional[str]:
        with self._lock:
            return self._default_name

    def entry(self, name: Optional[str] = None) -> CatalogEntry:
        """The named entry (``None`` -> the default); raises :class:`CatalogError`."""
        with self._lock:
            resolved = name if name is not None else self._default_name
            if resolved is None:
                raise CatalogError("the catalog is empty")
            entry = self._entries.get(resolved)
        if entry is None:
            raise CatalogError(
                f"unknown model {resolved!r}; serving: {', '.join(self.names()) or '(none)'}"
            )
        return entry

    def lease(self, name: Optional[str] = None) -> ContextManager[Any]:
        """Lease the named entry's current pipeline for one scoring call."""
        return self.entry(name).lease()

    def describe(self) -> List[Dict[str, Any]]:
        """Status of every entry, default first marked — the ``models`` line."""
        default = self.default_name
        records = []
        for name in self.names():
            try:
                record = self.entry(name).describe()
            except CatalogError:  # removed concurrently
                continue
            record["default"] = name == default
            records.append(record)
        return records

    # -- rollout --------------------------------------------------------
    def publish(self, name: str, checkpoint_path: Union[str, Path]) -> ModelVersion:
        """Atomically roll ``name`` onto the checkpoint at ``checkpoint_path``.

        Builds and warms the new pipeline *before* touching the entry, then
        swaps it in one step: requests leased before the swap finish on the
        old generation (closed when the last one drains, releasing its
        snapshots through the engine cache), requests leased after it score on
        the new one.  Nothing is ever answered by a half-built engine.

        Publishing an unknown ``name`` adds a new entry served with the
        catalog's ``serving_defaults`` ``(scale, EngineOptions)``.  Failures
        (missing/corrupt/mismatched checkpoint) raise
        :class:`~repro.io.checkpoint.CheckpointError` / :class:`CatalogError`
        and leave the entry serving exactly what it served before.
        """
        with self._publish_lock:
            path = validate_checkpoint_path(checkpoint_path)
            fingerprint = checkpoint_fingerprint(path)
            with self._lock:
                entry = self._entries.get(name)
            serving = entry.serving if entry is not None else self.serving_defaults
            try:
                pipeline = self.load_pipeline(path, serving)
            except Exception as error:
                if entry is not None:
                    entry.last_error = f"{type(error).__name__}: {error}"
                raise
            version = ModelVersion(
                ordinal=entry.version.ordinal + 1 if entry is not None else 1,
                checkpoint_path=str(path),
                fingerprint=fingerprint,
                published_at=time.time(),
            )
            if entry is None:
                entry = CatalogEntry(name, pipeline, version, serving)
                with self._lock:
                    self._entries[name] = entry
                    self._order.append(name)
                    if self._default_name is None:
                        self._default_name = name
            else:
                entry._swap(pipeline, version)
            return version

    def load_pipeline(self, path: Union[str, Path], serving: Optional[Serving] = None):
        """A warmed pipeline for checkpoint ``path``, served with ``serving``
        ``(scale, EngineOptions)`` or else the catalog's ``serving_defaults``."""
        # lazy import: repro.api imports repro.io.checkpoint, so a module-level
        # import here would be circular through the package __init__
        from ..api import Pipeline

        scale, options = serving or self.serving_defaults
        return warm_pipeline(Pipeline.load(path, scale=scale, options=options))

    # -- canary ---------------------------------------------------------
    def set_canary(
        self, name: str, checkpoint_path: Union[str, Path], fraction: float = 0.1
    ) -> CanaryState:
        """Start mirroring ``fraction`` of ``name``'s traffic to a candidate."""
        entry = self.entry(name)
        with self._publish_lock:
            path = validate_checkpoint_path(checkpoint_path)
            fingerprint = checkpoint_fingerprint(path)
            pipeline = self.load_pipeline(path, entry.serving)
            canary = CanaryState(
                pipeline, fraction, checkpoint_path=str(path), fingerprint=fingerprint
            )
            entry.canaries.put(canary, canary)
        return canary

    def clear_canary(self, name: str) -> Optional[Dict[str, Any]]:
        """Stop mirroring; returns the canary's final report (or ``None``).

        The candidate closes once the mirrors already running on it finish.
        """
        entry = self.entry(name)
        canary = entry.canary
        if canary is None:
            return None
        report = canary.report()
        entry.canaries.discard(canary)
        return report

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Close every entry (current + draining generations + canaries)."""
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            entry.close()


class Query(NamedTuple):
    """One request for :func:`answer`, as serve and batch both parse it.

    ``symptoms`` holds tokens and/or integer ids, or one whitespace-separated
    string; ``model`` names a catalog entry (``None`` routes to the default).
    """

    symptoms: Union[str, Sequence[Union[str, int]]]
    k: int
    model: Optional[str]


class Answer(NamedTuple):
    """One query's outcome from :func:`answer`: herbs best first, or an error.

    ``model`` names the entry that answered; it is ``None`` when the query
    could not be routed to one.  ``herbs`` are decoded under the same lease
    that scored ``herb_ids``.
    """

    model: Optional[str]
    herbs: Sequence[str] = ()
    herb_ids: Sequence[int] = ()
    scores: Sequence[float] = ()
    error: Optional[str] = None


def answer(catalog: ModelCatalog, queries: Sequence[Query]) -> List[Answer]:
    """One :class:`Answer` per query, in order; never raises for a query.

    Errors are isolated per query at every step:

    * routing — queries are grouped by requested model and each distinct
      name is looked up once; names resolving to one entry (``None`` and the
      default entry's own name) share its group.  An unknown model fails
      only its own queries, without touching any model;
    * parsing — symptoms are parsed once, against the leased generation's
      vocabulary, so a rollout can never mix vocabularies within a call; the
      ids reach the model without a second parse;
    * scoring — each entry's queries score in one pooled call; if that call
      fails they are retried one by one, so only the poisoned queries answer
      with an error and other entries are never affected.

    When an entry has a canary attached, its share of the answered queries is
    mirrored to the candidate after the answers are decided, so canary
    behaviour (crashes included) never changes an answer.
    """
    answers: List[Optional[Answer]] = [None] * len(queries)
    by_name: Dict[Optional[str], List[int]] = {}
    for index, query in enumerate(queries):
        by_name.setdefault(query.model, []).append(index)
    groups: Dict[str, Tuple[CatalogEntry, List[int]]] = {}
    for name, members in by_name.items():
        try:
            entry = catalog.entry(name)
        except CatalogError as error:
            failed = Answer(None, error=str(error))
            for index in members:
                answers[index] = failed
            continue
        # names of one entry (None and its own name) share a group, in query order
        group = groups.setdefault(entry.name, (entry, []))[1]
        group.extend(members)
        group.sort()
    for entry, members in groups.values():
        with entry.lease() as pipeline:
            _answer_entry(entry, pipeline, queries, members, answers)
    return answers


def _answer_entry(
    entry: CatalogEntry,
    pipeline,
    queries: Sequence[Query],
    members: List[int],
    answers: List[Optional[Answer]],
) -> None:
    """Parse, score and decode one entry's queries on one leased generation."""
    from ..api import parse_symptom_tokens  # lazy: repro.api imports repro.io

    vocab = pipeline.symptom_vocab
    valid: List[int] = []
    sets: List[List[int]] = []
    for index in members:
        try:
            sets.append(parse_symptom_tokens(queries[index].symptoms, vocab))
        except ValueError as error:
            answers[index] = Answer(entry.name, error=str(error))
            continue
        valid.append(index)
    if not valid:
        return
    ks = [queries[index].k for index in valid]
    started = time.perf_counter()
    try:
        results = pipeline._recommend_ids(sets, ks)
    except Exception:  # noqa: BLE001 — retry per query to find the poison
        results = []
        for index, symptom_ids, k in zip(valid, sets, ks):
            try:
                results.append(pipeline._recommend_ids([symptom_ids], [k])[0])
            except Exception as error:  # noqa: BLE001
                results.append(None)
                answers[index] = Answer(entry.name, error=str(error))
    primary_ms = (time.perf_counter() - started) * 1000.0
    herb_vocab = pipeline.herb_vocab
    if isinstance(herb_vocab, Vocabulary):
        decode = herb_vocab.decode
    else:  # any object with token_of serves as a vocabulary
        decode = lambda ids: [herb_vocab.token_of(h) for h in ids]  # noqa: E731
    answered = []
    for index, result in zip(valid, results):
        if result is not None:
            herbs = decode(result.herb_ids)
            answers[index] = Answer(entry.name, herbs, result.herb_ids, result.scores)
            answered.append(index)
    if entry.canary is None:  # the common case: no lease to take
        return
    # leased: a canary cleared or replaced meanwhile closes after this mirror
    with entry.canaries.lease() as canary:
        for index in answered if canary is not None else ():
            if canary.take():
                canary.mirror(queries[index], answers[index], primary_ms / len(answered))


class _Watch:
    __slots__ = ("name", "path", "stat", "fingerprint")

    def __init__(self, name: str, path: Path, stat, fingerprint: Optional[str]) -> None:
        self.name = name
        self.path = path
        self.stat = stat
        self.fingerprint = fingerprint


class CheckpointWatcher:
    """Poll checkpoint files and publish changed ones into the catalog.

    Polling is two-stage so steady state costs one ``stat`` per file: only an
    mtime/size change triggers a content fingerprint, and only a *new*
    fingerprint triggers :meth:`ModelCatalog.publish` — touching a file, or
    rewriting identical bytes, rolls nothing.  A publish that fails (e.g. the
    trainer is mid-write and the bundle is truncated) is retried on the next
    content change; the failure is recorded on the entry (``last_error``),
    never raised out of the poll loop.

    ``poll_once`` is public and the loop thread optional, so tests drive the
    watcher deterministically without sleeps.
    """

    def __init__(self, catalog: ModelCatalog, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.catalog = catalog
        self.interval_s = float(interval_s)
        self._lock = threading.Lock()
        self._watches: Dict[str, _Watch] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- configuration --------------------------------------------------
    def watch(self, name: str, path: Union[str, Path]) -> None:
        """Track ``path`` for entry ``name``; the current bytes are the baseline."""
        path = Path(path)
        stat = self._stat(path)
        fingerprint: Optional[str] = None
        try:
            fingerprint = checkpoint_fingerprint(path)
        except OSError:
            pass  # file may not exist yet; first appearance publishes
        with self._lock:
            self._watches[name] = _Watch(name, path, stat, fingerprint)

    def watched(self) -> Dict[str, str]:
        with self._lock:
            return {name: str(watch.path) for name, watch in self._watches.items()}

    @staticmethod
    def _stat(path: Path):
        try:
            stat = path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    # -- polling --------------------------------------------------------
    def poll_once(self) -> List[str]:
        """One poll pass; returns the entry names that were republished."""
        published: List[str] = []
        with self._lock:
            watches = list(self._watches.values())
        for watch in watches:
            stat = self._stat(watch.path)
            if stat is None or stat == watch.stat:
                continue
            watch.stat = stat
            try:
                fingerprint = checkpoint_fingerprint(watch.path)
            except OSError:
                continue  # raced a writer/unlink; next poll sees a new stat
            if fingerprint == watch.fingerprint:
                continue
            watch.fingerprint = fingerprint
            try:
                self.catalog.publish(watch.name, watch.path)
            except Exception:  # noqa: BLE001 — a torn/corrupt bundle can fail
                # anywhere in the loader (BadZipFile, CheckpointError, ...);
                # it is recorded on the entry as last_error, and a new content
                # change (e.g. the writer finishing the bundle) retries
                continue
            published.append(watch.name)
        return published

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "CheckpointWatcher":
        if self._thread is not None:
            raise RuntimeError("CheckpointWatcher is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="checkpoint-watcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 — the watcher must outlive bad polls
                pass

    def __enter__(self) -> "CheckpointWatcher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
