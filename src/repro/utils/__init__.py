"""Small shared utilities (seeding)."""

from .seeding import SeedSequenceFactory, new_rng, seed_everything

__all__ = ["new_rng", "seed_everything", "SeedSequenceFactory"]
