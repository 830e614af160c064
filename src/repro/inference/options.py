"""Every serving knob of :class:`~repro.inference.engine.InferenceEngine`, declared once.

:class:`EngineOptions` names each knob, gives it a default, validates it and
maps it to its command-line flag.  The CLI builds one from parsed flags
(:meth:`EngineOptions.from_args`), :class:`~repro.api.Pipeline` and
:class:`~repro.io.catalog.ModelCatalog` carry it whole, and the engine is its
only consumer — so adding a knob touches this dataclass and the code that
acts on it, nothing in between.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple, Union

from .backends import ComputeBackend, check_backend_spec

__all__ = ["EngineOptions", "FIELD_NAMES", "RETRIEVAL_MODES", "check_minimum"]

#: ``EngineOptions.retrieval`` values: ``"exact"`` scans every herb (the
#: oracle); ``"approx"`` is the two-stage :class:`~repro.inference.retrieval.
#: ApproxHerbIndex` (float32 first pass, exact re-rank, per-request fallback).
RETRIEVAL_MODES = ("exact", "approx")


def _knob(
    field_default: Any,
    flag: Optional[str] = None,
    help_text: Optional[str] = None,
    minimum: Optional[int] = None,
    **argparse_kwargs: Any,
) -> Any:
    """A dataclass field that also knows its flag; ``minimum`` makes it an integer knob.

    A field without a flag is library-only: no command takes it.
    """
    if minimum is not None:
        argparse_kwargs.setdefault("type", int)
    metadata = {"flag": flag, "help": help_text, "minimum": minimum, "argparse": argparse_kwargs}
    return field(default=field_default, metadata=metadata)


@dataclass(frozen=True)
class EngineOptions:
    """The inference engine's serving knobs, validated on construction.

    Each field's help text (its flag's ``--help``) says what it does;
    ``backend`` also takes a :class:`~repro.inference.backends.ComputeBackend`
    instance.  ``batch_size`` (symptom sets per scoring chunk: it bounds
    memory, never answers) is library-only, so it has no flag.

    Every error message names the field and its flag.  The integer ranges
    are :func:`check_minimum`'s and the backend rules
    :func:`~repro.inference.backends.check_backend_spec`'s; the index and
    backend constructors that take the same knobs run those checks too.
    The library accepts knobs that the chosen path ignores (an exact engine
    with approx knobs stays the exact oracle);
    only :meth:`from_args` refuses such flags.  Callers taking both
    ``options`` and field-name keywords fold them in with
    ``dataclasses.replace(options or EngineOptions(), **knobs)``, which
    validates the result once; an unknown name raises ``TypeError``.
    """

    batch_size: int = _knob(1024, minimum=1)
    num_shards: int = _knob(
        1,
        "--shards",
        "split the herb embeddings into this many column shards for "
        "scoring/top-k; answers stay bit-identical (default: 1)",
        minimum=1,
    )
    backend: Union[str, ComputeBackend, None] = _knob(
        None,
        "--backend",
        "compute backend for shard scoring: 'numpy' (serial BLAS, the "
        "default), 'threads' (thread pool), 'remote' (shard-worker servers "
        "via --worker-addr), or any registered backend name",
    )
    num_workers: Optional[int] = _knob(
        None,
        "--workers",
        "worker count for --backend threads (default: the schedulable CPU "
        "count)",
        type=int,
    )
    worker_addrs: Tuple[str, ...] = _knob(
        (),
        "--worker-addr",
        "address of a running `repro shard-worker` (repeat once per "
        "worker; requires --backend remote)",
        action="append",
        default=None,  # an append action must not start from a shared default
        metavar="HOST:PORT",
    )
    retrieval: str = _knob(
        "exact",
        "--retrieval",
        "top-k retrieval mode: 'exact' scans every herb per request "
        "(default, the bit-exact oracle); 'approx' runs a float32 "
        "first pass keeping candidate_factor*k survivors and re-scores them "
        "with the exact fixed-tile arithmetic, falling back to exact per "
        "request whenever the pool cannot certify k results",
        choices=RETRIEVAL_MODES,
    )
    candidate_factor: int = _knob(
        4,
        "--candidate-factor",
        "survivor-pool multiplier for --retrieval approx: the first "
        "pass keeps candidate-factor*k herbs per request (default: 4)",
        minimum=1,
    )
    num_lists: Optional[int] = _knob(
        None,
        "--num-lists",
        "IVF coarse-partition size for --retrieval approx: k-means the "
        "herb embeddings into this many lists so each query scans only the "
        "--nprobe closest ones (default: a power of two near sqrt(herbs); "
        "none for a small vocabulary, which is answered exactly)",
        minimum=2,
    )
    nprobe: Optional[int] = _knob(
        None,
        "--nprobe",
        "how many IVF lists to probe per request (default: the list "
        "count // 16, at least 1; clamped to the number of lists)",
        minimum=1,
    )

    def __post_init__(self) -> None:
        # the CLI's append action and library callers pass lists (or None);
        # a tuple keeps the frozen options comparable and hashable by value
        object.__setattr__(self, "worker_addrs", tuple(self.worker_addrs or ()))
        for name in _MINIMUMS:
            check_minimum(name, getattr(self, name), label=_label)
        if self.retrieval not in RETRIEVAL_MODES:
            raise ValueError(
                f"{_label('retrieval')} must be one of {RETRIEVAL_MODES}, got {self.retrieval!r}"
            )
        check_backend_spec(self.backend, self.num_workers, self.worker_addrs, label=_label)

    # ------------------------------------------------------------------
    # Command-line adapter
    # ------------------------------------------------------------------
    @classmethod
    def add_arguments(cls, parser: argparse.ArgumentParser) -> None:
        """Register one flag per field that has one on ``parser``."""
        for knob in dataclasses.fields(cls):
            if knob.metadata["flag"] is not None:
                extra = {"default": knob.default, "help": knob.metadata["help"]}
                parser.add_argument(knob.metadata["flag"], **{**extra, **knob.metadata["argparse"]})

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "EngineOptions":
        """Options from parsed flags; ``ValueError`` names the offending flag.

        On top of the field checks, flags that would have no effect are
        refused rather than silently ignored: the backend knobs need two or
        more shards or the approx path, a remote backend takes no ``--workers``
        (one worker per address), and the approx knobs need
        ``--retrieval approx``.
        """
        options = cls(**{name: getattr(args, _dest(flag)) for name, flag in _FLAGS.items() if flag})
        # every request runs its shard tasks on the backend, but one exact
        # shard is one task per chunk, which no pool can spread; approx
        # retrieval keeps the knobs for its exact fallback rows
        uses_backend = options.num_shards > 1 or options.retrieval == "approx"
        backend_set = options.backend not in (None, "numpy") or options.num_workers is not None
        if not uses_backend and (backend_set or options.worker_addrs):
            raise ValueError(
                "--backend/--workers/--worker-addr only take effect with "
                "--shards >= 2 or --retrieval approx"
            )
        if options.worker_addrs and options.num_workers is not None:
            raise ValueError("--workers conflicts with --worker-addr (one worker per address)")
        approx_knobs = ("candidate_factor", "num_lists", "nprobe")
        if options.retrieval == "exact" and any(
            getattr(options, name) != getattr(cls(), name) for name in approx_knobs
        ):
            raise ValueError(
                "--candidate-factor/--num-lists/--nprobe only take effect "
                "with --retrieval approx"
            )
        return options


#: Every option's field name, in declaration order.
FIELD_NAMES = tuple(knob.name for knob in dataclasses.fields(EngineOptions))
_FLAGS = {knob.name: knob.metadata["flag"] for knob in dataclasses.fields(EngineOptions)}
_MINIMUMS = {
    knob.name: knob.metadata["minimum"]
    for knob in dataclasses.fields(EngineOptions)
    if knob.metadata["minimum"] is not None
}


def check_minimum(name: str, value: Optional[int], label: Callable[[str], str] = str) -> None:
    """Refuse an integer knob below its field's ``minimum``: the one home of these rules.

    :class:`EngineOptions` checks every integer field here, and the index
    constructors that take the same knob
    (:class:`~repro.inference.sharding.ShardedHerbIndex`'s ``num_shards``,
    :class:`~repro.inference.retrieval.ApproxHerbIndex`'s approx knobs) check
    theirs; ``None`` (a value derived later) passes.  ``label(name)`` names
    the knob in the message.
    """
    least = _MINIMUMS[name]
    if value is not None and value < least:
        bound = "a positive integer" if least == 1 else f">= {least}"
        raise ValueError(f"{label(name)} must be {bound}")


def _label(name: str, value: Any = None) -> str:
    """``num_shards (--shards)``; with a value, ``backend='remote' (--backend remote)``."""
    flag = _FLAGS[name]
    if value is not None:
        return f"{name}={value!r} ({flag} {value})"
    return f"{name} ({flag})" if flag else name


def _dest(flag: str) -> str:
    """The argparse attribute a flag parses into."""
    return flag.lstrip("-").replace("-", "_")
