"""Single-file model checkpoints: one ``.npz`` bundle with a JSON header.

A checkpoint persists everything needed to rebuild a trained recommender
without retraining:

* the model's ``state_dict`` arrays (one npz member per parameter, under the
  ``state/`` prefix);
* a JSON header (npz member ``__checkpoint_header__``) carrying the registered
  model name, the serialized config (``SerializableConfig.to_dict``), the
  dataset scale it was trained on, the vocabulary sizes and SHA-256
  fingerprints of the symptom/herb vocabularies.

Loading resolves the model name through :data:`repro.models.MODEL_REGISTRY`,
rebuilds the architecture from ``(dataset, config)`` via the registered
builder and restores the learned state — refusing to load when the target
dataset's vocabularies (or any array shape) do not match what the checkpoint
was trained against.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..data.prescriptions import PrescriptionDataset
from ..models.registry import MODEL_REGISTRY, ModelEntry

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointHeader",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
    "validate_checkpoint_path",
    "checkpoint_fingerprint",
    "vocab_fingerprint",
    "pack_npz_bytes",
    "unpack_npz_bytes",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
]

CHECKPOINT_FORMAT_VERSION = 1

_HEADER_KEY = "__checkpoint_header__"
_STATE_PREFIX = "state/"


class CheckpointError(RuntimeError):
    """A checkpoint cannot be written or (safely) loaded."""


def validate_checkpoint_path(path: Union[str, Path]) -> Path:
    """Cheap sanity checks on a checkpoint path, before anything expensive.

    Raises a one-line :class:`CheckpointError` naming the path when it does
    not exist, is not a file, or is not a ``.npz`` bundle — so CLI
    entry points can refuse a typo'd path *before* binding sockets, spawning
    worker pools or training anything.  Returns the path on success.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path}: no such file")
    if not path.is_file():
        raise CheckpointError(f"checkpoint {path}: not a regular file")
    if path.suffix != ".npz":
        raise CheckpointError(f"checkpoint {path}: not a .npz checkpoint bundle")
    return path


def checkpoint_fingerprint(path: Union[str, Path]) -> str:
    """SHA-256 of a checkpoint file's bytes — the rollout identity of a build.

    The catalog and the checkpoint watcher use this to decide whether a path
    holds *new* weights (an mtime bump alone can be a touch or an in-place
    rewrite of identical bytes) and to stamp version history entries.
    """
    digest = hashlib.sha256()
    with open(Path(path), "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The shared npz codec: one JSON header member + named arrays.
#
# Checkpoint files, weight-snapshot wire frames and shard-task frames
# (repro.inference.distributed) are all the same physical format, so a
# single pack/unpack pair is the only place that knows how headers and
# arrays share a bundle.
# ----------------------------------------------------------------------
def pack_npz_bytes(header: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize ``header`` (JSON-able) plus named arrays into one npz blob."""
    if _HEADER_KEY in arrays:
        raise CheckpointError(f"array name {_HEADER_KEY!r} is reserved for the header")
    payload: Dict[str, np.ndarray] = {_HEADER_KEY: np.array(json.dumps(dict(header), sort_keys=True))}
    for name, value in arrays.items():
        payload[name] = np.asarray(value)
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


#: numpy parses each npz member's header with ``ast.literal_eval``, and
#: CPython 3.11 keeps the AST constructor's recursion depth in
#: interpreter-wide state, so two threads decoding at once can fail with
#: ``SystemError: AST constructor recursion depth mismatch``.  Shard workers
#: and the remote backend's fan-out decode frames on several threads.
_DECODE_LOCK = threading.Lock()


def unpack_npz_bytes(data: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Invert :func:`pack_npz_bytes`; returns ``(header, arrays)``."""
    try:
        with _DECODE_LOCK, np.load(io.BytesIO(data), allow_pickle=False) as bundle:
            if _HEADER_KEY not in bundle:
                raise CheckpointError("not a repro npz bundle (missing header)")
            try:
                header = json.loads(str(bundle[_HEADER_KEY][()]))
            except json.JSONDecodeError as error:
                raise CheckpointError(f"corrupt npz bundle header: {error}") from error
            arrays = {key: bundle[key] for key in bundle.files if key != _HEADER_KEY}
    except (OSError, ValueError) as error:
        raise CheckpointError(f"corrupt npz bundle: {error}") from error
    return header, arrays


_SNAPSHOT_KIND = "weight-snapshot"


def snapshot_to_bytes(snapshot) -> bytes:
    """Wire/disk form of a :class:`~repro.models.base.WeightSnapshot`.

    The same npz codec the checkpoints use, so a serialized snapshot is
    inspectable with the same tooling; this is what crosses the TCP link to
    remote shard workers.
    """
    header = {
        "kind": _SNAPSHOT_KIND,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "key": snapshot.key,
        "version": [int(v) for v in snapshot.version],
        "row_block": int(snapshot.row_block),
    }
    return pack_npz_bytes(header, {"herb_embeddings": snapshot.herb_embeddings})


def snapshot_from_bytes(data: bytes):
    """Rebuild a :class:`~repro.models.base.WeightSnapshot` from its wire form."""
    from ..models.base import WeightSnapshot

    header, arrays = unpack_npz_bytes(data)
    if header.get("kind") != _SNAPSHOT_KIND:
        raise CheckpointError(
            f"expected a {_SNAPSHOT_KIND!r} bundle, got kind={header.get('kind')!r}"
        )
    if "herb_embeddings" not in arrays:
        raise CheckpointError("weight-snapshot bundle misses the herb_embeddings array")
    try:
        return WeightSnapshot.from_matrix(
            arrays["herb_embeddings"],
            row_block=int(header["row_block"]),
            version=tuple(int(v) for v in header["version"]),
            key=str(header["key"]),
        )
    except KeyError as error:
        raise CheckpointError(f"weight-snapshot header misses field {error}") from error


def vocab_fingerprint(vocab) -> str:
    """SHA-256 fingerprint of a vocabulary's tokens in id order."""
    digest = hashlib.sha256()
    digest.update(str(len(vocab)).encode("utf-8"))
    for token in vocab:
        digest.update(b"\x00")
        digest.update(token.encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class CheckpointHeader:
    """The JSON metadata stored alongside the state arrays."""

    format_version: int
    model_name: str
    model_class: str
    config: Dict[str, Any]
    scale: Optional[str]
    num_symptoms: int
    num_herbs: int
    symptom_vocab_fingerprint: str
    herb_vocab_fingerprint: str
    state_keys: Tuple[str, ...]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "format_version": self.format_version,
            "model_name": self.model_name,
            "model_class": self.model_class,
            "config": self.config,
            "scale": self.scale,
            "num_symptoms": self.num_symptoms,
            "num_herbs": self.num_herbs,
            "symptom_vocab_fingerprint": self.symptom_vocab_fingerprint,
            "herb_vocab_fingerprint": self.herb_vocab_fingerprint,
            "state_keys": list(self.state_keys),
        }

    @classmethod
    def from_json(cls, text: str) -> "CheckpointHeader":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(f"corrupt checkpoint header: {error}") from error
        try:
            return cls(
                format_version=int(payload["format_version"]),
                model_name=str(payload["model_name"]),
                model_class=str(payload["model_class"]),
                config=dict(payload["config"]),
                scale=payload.get("scale"),
                num_symptoms=int(payload["num_symptoms"]),
                num_herbs=int(payload["num_herbs"]),
                symptom_vocab_fingerprint=str(payload["symptom_vocab_fingerprint"]),
                herb_vocab_fingerprint=str(payload["herb_vocab_fingerprint"]),
                state_keys=tuple(payload["state_keys"]),
            )
        except KeyError as error:
            raise CheckpointError(f"checkpoint header misses field {error}") from error


def _resolve_entry(model, name: Optional[str]) -> ModelEntry:
    if name is not None:
        entry = MODEL_REGISTRY.get(name)
        if type(model) is not entry.model_class:
            raise CheckpointError(
                f"model {name!r} is registered for {entry.model_class.__name__}, "
                f"got a {type(model).__name__}"
            )
        return entry
    try:
        return MODEL_REGISTRY.entry_for_model(model)
    except KeyError as error:
        raise CheckpointError(str(error)) from error


def save_checkpoint(
    model,
    path: Union[str, Path],
    dataset: PrescriptionDataset,
    *,
    name: Optional[str] = None,
    scale: Optional[str] = None,
) -> Path:
    """Write ``model`` to ``path`` as a single ``.npz`` bundle.

    ``dataset`` must be the training split the model was built on — its
    vocabularies are fingerprinted into the header so a later load can refuse
    a mismatched corpus.  ``name`` defaults to the registry entry of the
    model's class; pass it explicitly for ablation variants.  ``scale``
    (e.g. ``"smoke"``) lets loaders rebuild the right dataset without being
    told.
    """
    entry = _resolve_entry(model, name)
    if model.num_herbs != dataset.num_herbs or model.num_symptoms != dataset.num_symptoms:
        raise CheckpointError(
            "dataset vocabulary sizes do not match the model: dataset has "
            f"{dataset.num_symptoms} symptoms / {dataset.num_herbs} herbs, model has "
            f"{model.num_symptoms} / {model.num_herbs}"
        )
    config = getattr(model, "config", None)
    if config is None or not hasattr(config, "to_dict"):
        raise CheckpointError(
            f"{type(model).__name__} has no serialisable config; cannot checkpoint"
        )
    state = model.state_dict()
    header = CheckpointHeader(
        format_version=CHECKPOINT_FORMAT_VERSION,
        model_name=entry.name if name is None else name,
        model_class=type(model).__name__,
        config=config.to_dict(),
        scale=scale,
        num_symptoms=dataset.num_symptoms,
        num_herbs=dataset.num_herbs,
        symptom_vocab_fingerprint=vocab_fingerprint(dataset.symptom_vocab),
        herb_vocab_fingerprint=vocab_fingerprint(dataset.herb_vocab),
        state_keys=tuple(sorted(state)),
    )
    arrays = {_STATE_PREFIX + key: np.asarray(value) for key, value in state.items()}
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pack_npz_bytes(header.to_payload(), arrays))
    return path


def _parse_header(data) -> CheckpointHeader:
    if _HEADER_KEY not in data:
        raise CheckpointError("not a repro checkpoint (missing header)")
    header = CheckpointHeader.from_json(str(data[_HEADER_KEY][()]))
    if header.format_version > CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{header.format_version} is newer than the supported "
            f"v{CHECKPOINT_FORMAT_VERSION}"
        )
    return header


def read_checkpoint_header(path: Union[str, Path]) -> CheckpointHeader:
    """Read only the JSON header of a checkpoint (cheap — no state arrays)."""
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
        return _parse_header(data)


def load_checkpoint(
    path: Union[str, Path],
    dataset: Optional[PrescriptionDataset] = None,
    *,
    resolve_dataset=None,
) -> Tuple[Any, CheckpointHeader]:
    """Rebuild the checkpointed model against ``dataset`` and restore its state.

    Instead of a ready dataset, callers may pass ``resolve_dataset``, a
    callable mapping the parsed :class:`CheckpointHeader` to the dataset —
    this lets the header's recorded scale pick the corpus without opening and
    parsing the bundle twice.

    Raises :class:`CheckpointError` when the dataset's vocabularies do not
    fingerprint-match the ones the checkpoint was trained on, or when any
    state array fails the model's shape checks.
    """
    if (dataset is None) == (resolve_dataset is None):
        raise ValueError("pass exactly one of dataset or resolve_dataset")
    # numpy opens a path itself and leaks it when the bundle fails to parse
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
        header = _parse_header(data)
        if header.model_name not in MODEL_REGISTRY:
            raise CheckpointError(
                f"checkpoint was written by unregistered model {header.model_name!r}"
            )
        if dataset is None:
            dataset = resolve_dataset(header)
        if (dataset.num_symptoms, dataset.num_herbs) != (header.num_symptoms, header.num_herbs):
            raise CheckpointError(
                f"vocabulary size mismatch: checkpoint has "
                f"{header.num_symptoms} symptoms / {header.num_herbs} herbs, dataset has "
                f"{dataset.num_symptoms} / {dataset.num_herbs}"
            )
        if vocab_fingerprint(dataset.symptom_vocab) != header.symptom_vocab_fingerprint:
            raise CheckpointError(
                "symptom vocabulary fingerprint mismatch: refusing to load the "
                "checkpoint against a different corpus"
            )
        if vocab_fingerprint(dataset.herb_vocab) != header.herb_vocab_fingerprint:
            raise CheckpointError(
                "herb vocabulary fingerprint mismatch: refusing to load the "
                "checkpoint against a different corpus"
            )
        entry = MODEL_REGISTRY.get(header.model_name)
        config = entry.config_class.from_dict(header.config)
        model = entry.build(dataset, config)
        state = {
            key[len(_STATE_PREFIX) :]: data[key]
            for key in data.files
            if key.startswith(_STATE_PREFIX)
        }
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise CheckpointError(f"checkpoint state does not fit the rebuilt model: {error}") from error
    return model, header
