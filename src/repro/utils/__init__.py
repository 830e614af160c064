"""Small shared utilities (seeding, the versioned cache)."""

from .cache import MAX_CACHED_VERSIONS, VersionedCache
from .seeding import SeedSequenceFactory, new_rng, seed_everything

__all__ = ["MAX_CACHED_VERSIONS", "new_rng", "seed_everything", "SeedSequenceFactory", "VersionedCache"]
