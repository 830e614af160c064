"""Streaming JSONL batch scorer: bounded memory, input order, checkpointed resume.

The runner turns the interactive serving stack — :class:`~repro.io.catalog.
ModelCatalog` entries over :class:`~repro.inference.engine.InferenceEngine`
backends — into an offline pipeline: JSON-lines prescriptions in, one JSON
result line per record out, in input order, composing with standard unix
tooling on stdin/stdout or over files with durable progress.

Three layers, each usable on its own:

* :func:`score_lines` — one window of raw lines: decode each record, score
  them all through :func:`repro.io.catalog.answer` (the request-scoring path
  ``repro serve`` shares: route, lease, pooled scoring, per-record retry on
  poison), encode each answer.  A malformed or unscorable record answers
  with an ``error`` line and its neighbours are untouched.
* :func:`stream_results` — a generator over any iterable of lines/records
  holding at most ``window`` records in memory (this is what
  :meth:`repro.api.Pipeline.recommend_stream` wraps).
* :func:`run_batch_file` / :func:`run_batch_files` — file/stdin endpoints
  with byte-offset tracking, per-window ``fsync`` + atomic checkpoint
  (see :mod:`repro.batch.checkpoint`), ``--resume`` that truncates the
  output back to the durable watermark and re-scores only what was never
  made durable, and a per-file work queue fanning a multi-file corpus
  across ``jobs`` streams that share one engine (whose compute backend may
  itself fan shard tasks across a thread pool or remote worker fleets).

Scoring is bit-deterministic (fixed tile grid, canonical ranking) and the
codec's bytes are a pure function of the records, so resumed output is
byte-identical to an uninterrupted run — and independent of ``window``,
``jobs`` and backend placement.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..io.catalog import ModelCatalog, Query, answer
from .checkpoint import (
    BatchCheckpoint,
    CheckpointStateError,
    checkpoint_path_for,
    hash_input_prefix,
)
from .records import RecordError, decode_record, encode_error, encode_result

__all__ = [
    "BatchError",
    "BatchStats",
    "FileResult",
    "run_batch_file",
    "run_batch_files",
    "score_lines",
    "stream_results",
]

DEFAULT_WINDOW = 1024


class BatchError(RuntimeError):
    """An operational failure of a batch run (I/O, resume mismatch)."""


@dataclass
class BatchStats:
    """Counters for one batch stream (or, merged, a whole multi-file run)."""

    records: int = 0  #: records scored or failed *by this run*
    ok: int = 0
    errors: int = 0
    blank_lines: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    resumed_records: int = 0  #: records already durable before this run
    files: int = 0
    elapsed_s: float = 0.0
    checkpoints: int = 0

    @property
    def records_per_s(self) -> float:
        return self.records / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def merge(self, other: "BatchStats") -> "BatchStats":
        self.records += other.records
        self.ok += other.ok
        self.errors += other.errors
        self.blank_lines += other.blank_lines
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        self.resumed_records += other.resumed_records
        self.files += other.files
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)  # streams overlap
        self.checkpoints += other.checkpoints
        return self

    def to_text(self) -> str:
        parts = [
            f"batch: {self.records} records ({self.ok} ok, {self.errors} errors)",
            f"in {self.elapsed_s:.2f}s — {self.records_per_s:.1f} rec/s",
        ]
        if self.files:
            parts.append(f"{self.files} file(s)")
        if self.resumed_records:
            parts.append(f"{self.resumed_records} already durable (resumed)")
        if self.blank_lines:
            parts.append(f"{self.blank_lines} blank line(s) skipped")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# Window scoring (shared by every front-end)
# ----------------------------------------------------------------------
def score_lines(
    catalog: ModelCatalog,
    lines: Sequence[str],
    default_k: int = 10,
    stats: Optional[BatchStats] = None,
) -> List[str]:
    """One output line per input line, in order; never raises for a record.

    Decodes each line, scores the records through
    :func:`~repro.io.catalog.answer` (the scoring path ``repro serve`` shares)
    and encodes each answer.  A record that fails to decode, route, parse,
    score or encode answers with an error line; its neighbours are untouched.
    """
    out: List[str] = [""] * len(lines)
    positions: List[int] = []
    record_ids: List[Union[str, int]] = []
    queries: List[Query] = []
    errors = 0
    for index, line in enumerate(lines):
        try:
            record_id, query = decode_record(line, default_k=default_k)
        except RecordError as error:
            out[index] = encode_error(error.record_id, str(error))
            errors += 1
            continue
        positions.append(index)
        record_ids.append(record_id)
        queries.append(query)
    for index, record_id, result in zip(positions, record_ids, answer(catalog, queries)):
        reason = result.error
        if reason is None:
            try:
                out[index] = encode_result(
                    record_id, result.model, result.herbs, result.herb_ids, result.scores
                )
                continue
            except RecordError as error:  # non-finite score — NaN-free guarantee
                reason = str(error)
        out[index] = encode_error(record_id, reason)
        errors += 1
    if stats is not None:
        stats.records += len(lines)
        stats.errors += errors
        stats.ok += len(lines) - errors
    return out


# ----------------------------------------------------------------------
# Iterator front-end (the Pipeline.recommend_stream core)
# ----------------------------------------------------------------------
def stream_results(
    catalog: ModelCatalog,
    records: Iterable[Union[str, bytes, dict]],
    default_k: int = 10,
    window: int = DEFAULT_WINDOW,
    stats: Optional[BatchStats] = None,
) -> Iterator[str]:
    """Yield one result line per record, holding at most ``window`` in memory.

    ``records`` may mix JSONL strings/bytes and already-built dicts (dicts are
    encoded through the same codec, so they obey the same validation).  Blank
    lines are skipped, not answered.
    """
    import json

    if window <= 0:
        raise ValueError("window must be positive")
    buffer: List[str] = []
    for record in records:
        if isinstance(record, dict):
            line = json.dumps(record, separators=(",", ":"))
        elif isinstance(record, (bytes, bytearray)):
            line = record.decode("utf-8", errors="replace").strip()
        else:
            line = str(record).strip()
        if not line:
            if stats is not None:
                stats.blank_lines += 1
            continue
        buffer.append(line)
        if len(buffer) >= window:
            yield from score_lines(catalog, buffer, default_k=default_k, stats=stats)
            buffer = []
    if buffer:
        yield from score_lines(catalog, buffer, default_k=default_k, stats=stats)


# ----------------------------------------------------------------------
# File / stdin endpoints
# ----------------------------------------------------------------------
def _read_window(stream: IO[bytes], window: int) -> Tuple[List[bytes], bool]:
    """Up to ``window`` raw lines; the final line may lack its newline."""
    lines: List[bytes] = []
    while len(lines) < window:
        raw = stream.readline()
        if not raw:
            return lines, True
        lines.append(raw)
    return lines, False


def run_batch_file(
    catalog: ModelCatalog,
    input_path: Optional[Union[str, Path]],
    output_path: Optional[Union[str, Path]],
    *,
    window: int = DEFAULT_WINDOW,
    default_k: int = 10,
    resume: bool = False,
    progress: Optional[Callable[[BatchStats], None]] = None,
    _output_filter: Optional[Callable[[IO[bytes]], IO[bytes]]] = None,
) -> BatchStats:
    """Stream one input (file or stdin) to one output (file or stdout).

    With a real input file *and* a real output file the run is checkpointed:
    each window's result lines are appended, flushed and fsynced before the
    sidecar advances, so a SIGKILL at any point loses at most one window of
    un-checkpointed work — ``resume=True`` truncates the output back to the
    durable watermark and re-scores exactly the rest, emitting output
    byte-identical to an uninterrupted run.  ``resume`` on an already
    complete run is a no-op that leaves the output untouched.

    ``_output_filter`` is a test seam: it wraps the opened binary output
    stream (the crash-injection harness uses it to die mid-write like a
    SIGKILL would).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    stats = BatchStats(files=1)
    started = time.monotonic()
    use_stdin = input_path is None or str(input_path) == "-"
    use_stdout = output_path is None or str(output_path) == "-"
    checkpointed = not use_stdin and not use_stdout
    if resume and not checkpointed:
        raise BatchError("--resume needs a real input file and a real output file")

    state = BatchCheckpoint(
        input_path="" if use_stdin else str(Path(input_path).resolve())
    )
    sidecar: Optional[Path] = None
    if checkpointed:
        sidecar = checkpoint_path_for(output_path)
        if resume:
            loaded = _load_resume_state(sidecar, input_path)
            if loaded is not None:
                state = loaded
                stats.resumed_records = state.records_done
                if state.complete:
                    stats.elapsed_s = time.monotonic() - started
                    return stats
        elif sidecar.exists():
            sidecar.unlink()  # a fresh run must not leave a stale watermark

    in_stream, out_stream, close_streams = _open_streams(
        input_path, output_path, use_stdin, use_stdout, state
    )
    if _output_filter is not None and not use_stdout:
        out_stream = _output_filter(out_stream)
    try:
        while True:
            raw_lines, eof = _read_window(in_stream, window)
            if raw_lines:
                texts = [
                    raw.decode("utf-8", errors="replace").strip() for raw in raw_lines
                ]
                payload = [text for text in texts if text]
                stats.blank_lines += len(texts) - len(payload)
                if payload:
                    out_lines = score_lines(
                        catalog, payload, default_k=default_k, stats=stats
                    )
                    data = ("\n".join(out_lines) + "\n").encode("utf-8")
                    _write_durably(out_stream, data, use_stdout)
                    state.output_offset += len(data)
                    state.records_done += len(payload)
                    stats.bytes_out += len(data)
                state.input_offset += sum(len(raw) for raw in raw_lines)
                stats.bytes_in += sum(len(raw) for raw in raw_lines)
                if checkpointed:
                    _advance_checkpoint(state, sidecar, input_path)
                    stats.checkpoints += 1
                if progress is not None:
                    stats.elapsed_s = time.monotonic() - started
                    progress(stats)
            if eof:
                break
        if checkpointed:
            state.complete = True
            _advance_checkpoint(state, sidecar, input_path)
            stats.checkpoints += 1
    finally:
        close_streams()
    stats.elapsed_s = time.monotonic() - started
    return stats


def _load_resume_state(
    sidecar: Path, input_path: Union[str, Path]
) -> Optional[BatchCheckpoint]:
    """The verified watermark to resume from, or ``None`` to start fresh."""
    if not sidecar.exists():
        return None  # the interrupted run died before its first checkpoint
    try:
        state = BatchCheckpoint.load(sidecar)
        state.verify_input(input_path)
    except CheckpointStateError as error:
        raise BatchError(str(error)) from error
    return state


def _open_streams(
    input_path: Optional[Union[str, Path]],
    output_path: Optional[Union[str, Path]],
    use_stdin: bool,
    use_stdout: bool,
    state: BatchCheckpoint,
) -> Tuple[IO[bytes], Any, Callable[[], None]]:
    # everything opened here closes again if a later step raises
    with contextlib.ExitStack() as stack:
        if use_stdin:
            in_stream: IO[bytes] = sys.stdin.buffer
        else:
            try:
                in_stream = stack.enter_context(open(input_path, "rb"))
            except OSError as error:
                raise BatchError(f"cannot read input {input_path}: {error}") from error
            if state.input_offset:
                in_stream.seek(state.input_offset)
        if use_stdout:
            out_stream: Any = sys.stdout
        else:
            try:
                if state.output_offset:
                    out_stream = stack.enter_context(open(output_path, "r+b"))
                    size = out_stream.seek(0, os.SEEK_END)
                    if size < state.output_offset:
                        raise BatchError(
                            f"resumed output {output_path} is shorter ({size} bytes) than "
                            f"the checkpointed watermark ({state.output_offset}); the "
                            "output changed since the interrupted run"
                        )
                    # discard everything past the durable watermark — un-fsynced
                    # tails and torn final lines from the crash die here
                    out_stream.truncate(state.output_offset)
                    out_stream.seek(state.output_offset)
                else:
                    out_stream = stack.enter_context(open(output_path, "wb"))
            except OSError as error:
                raise BatchError(f"cannot write output {output_path}: {error}") from error
        opened = stack.pop_all()

    def close_streams() -> None:
        opened.close()
        if use_stdout:
            out_stream.flush()

    return in_stream, out_stream, close_streams


def _write_durably(out_stream: Any, data: bytes, use_stdout: bool) -> None:
    if use_stdout:
        out_stream.write(data.decode("utf-8"))
        out_stream.flush()
        return
    out_stream.write(data)
    out_stream.flush()
    os.fsync(out_stream.fileno())


def _advance_checkpoint(
    state: BatchCheckpoint, sidecar: Path, input_path: Union[str, Path]
) -> None:
    state.input_prefix_sha256 = hash_input_prefix(input_path, state.input_offset)
    state.save(sidecar)


# ----------------------------------------------------------------------
# Multi-file fan-out
# ----------------------------------------------------------------------
@dataclass
class FileResult:
    """Outcome of one input file in a multi-file run."""

    input_path: Path
    output_path: Path
    stats: Optional[BatchStats] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_batch_files(
    catalog: ModelCatalog,
    tasks: Sequence[Tuple[Union[str, Path], Union[str, Path]]],
    *,
    jobs: int = 1,
    window: int = DEFAULT_WINDOW,
    default_k: int = 10,
    resume: bool = False,
    progress: Optional[Callable[[BatchStats], None]] = None,
) -> List[FileResult]:
    """Fan ``(input, output)`` pairs across a per-file work queue.

    ``jobs`` streams run concurrently, all scoring through the shared
    catalog/engine — with ``--backend threads|remote`` the heavy shard
    matmuls fan out across the worker fleet while each stream keeps its own
    bounded window, output file and checkpoint sidecar.  A file that fails
    (I/O, resume mismatch) is reported in its :class:`FileResult`; the other
    files are unaffected.  Results come back in task order.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")

    def run_one(task: Tuple[Union[str, Path], Union[str, Path]]) -> FileResult:
        input_path, output_path = task
        result = FileResult(Path(input_path), Path(output_path))
        try:
            result.stats = run_batch_file(
                catalog,
                input_path,
                output_path,
                window=window,
                default_k=default_k,
                resume=resume,
                progress=progress,
            )
        except BatchError as error:
            result.error = str(error)
        return result

    if jobs == 1 or len(tasks) <= 1:
        return [run_one(task) for task in tasks]
    with ThreadPoolExecutor(
        max_workers=min(jobs, len(tasks)), thread_name_prefix="repro-batch"
    ) as pool:
        return list(pool.map(run_one, tasks))
