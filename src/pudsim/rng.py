"""Named, reproducible random substreams.

Every stochastic component draws from its own substream derived from one
root seed plus a string label, so adding draws to one component never
shifts the sequence seen by another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(root_seed: int, label: str) -> np.random.Generator:
    """Generator for (root_seed, label); stable across runs and platforms."""
    seq = np.random.SeedSequence(entropy=root_seed, spawn_key=(_label_key(label),))
    return np.random.Generator(np.random.PCG64(seq))


_MASK = 0xFFFFFFFFFFFFFFFF
# the largest root seed: `stable_hash` reads only a seed's low 64 bits, so
# a larger one would repeat a smaller one's draws
MAX_SEED = _MASK
_SEED_KEY = 0x9E3779B97F4A7C15
_PART_MUL = 0xBF58476D1CE4E5B9
_MIX_MUL = 0x94D049BB133111EB


def stable_hash(seed: int, *parts: int) -> int:
    """Deterministic 64-bit mix of a seed and integer parts.

    Used where a single reproducible value per (seed, row, ...) is needed
    without the cost of constructing a Generator.
    """
    h = (seed & _MASK) ^ _SEED_KEY
    for p in parts:
        h ^= (p & _MASK) * _PART_MUL & _MASK
        h = (h ^ (h >> 31)) * _MIX_MUL & _MASK
    return h ^ (h >> 29)


def stable_hash_each(seed: int, *parts) -> np.ndarray:
    """`stable_hash(seed, *p)` for every element of the broadcast integer
    parts (arrays or scalars), as a uint64 array.

    uint64 arithmetic wraps modulo 2**64, which is the masking the scalar
    version does by hand; arrays keep numpy from warning about it.
    """
    h = np.uint64((seed & _MASK) ^ _SEED_KEY)
    for p in parts:
        h = h ^ (np.atleast_1d(p).astype(np.uint64) * np.uint64(_PART_MUL))
        h = (h ^ (h >> np.uint64(31))) * np.uint64(_MIX_MUL)
    return h ^ (h >> np.uint64(29))
