"""Named random substreams derived from a single root seed.

Every source of randomness in a run (demand, fleet placement, clustering,
Monte Carlo sampling) draws from its own named substream so components can be
re-seeded independently without perturbing each other.
"""

import hashlib

import numpy as np

__all__ = ["subseed", "substream"]


def subseed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for the named substream."""
    digest = hashlib.blake2b(f"{root_seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(root_seed: int, name: str) -> np.random.Generator:
    """A generator seeded by (root_seed, name), deterministic across processes."""
    return np.random.default_rng(subseed(root_seed, name))
