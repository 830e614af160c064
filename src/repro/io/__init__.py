"""Persistence layer: checkpoints on disk, plus the serving catalog that
rolls them out (multi-model tenancy, zero-downtime hot reload)."""

from .catalog import (
    Answer,
    CanaryState,
    CatalogEntry,
    CatalogError,
    CheckpointWatcher,
    MAX_VERSION_HISTORY,
    ModelCatalog,
    ModelVersion,
    answer,
)
from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointHeader,
    checkpoint_fingerprint,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
    validate_checkpoint_path,
    vocab_fingerprint,
)

__all__ = [
    "Answer",
    "CHECKPOINT_FORMAT_VERSION",
    "CanaryState",
    "CatalogEntry",
    "CatalogError",
    "CheckpointError",
    "CheckpointHeader",
    "CheckpointWatcher",
    "MAX_VERSION_HISTORY",
    "ModelCatalog",
    "ModelVersion",
    "answer",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
    "checkpoint_fingerprint",
    "validate_checkpoint_path",
    "vocab_fingerprint",
]
