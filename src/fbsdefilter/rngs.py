"""Deterministic counter-based random streams.

Every random draw in the package comes from a stream addressed by
``(seed, purpose, *indices)``.  Each address maps to an independent Philox
generator keyed by a hash of the address, so any subset of the work can run
in any order, or in parallel, and still produce the numbers a serial run
would produce.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


# Philox's counter at the start of every stream; an array is taken as is,
# where the default 0 would go through numpy's int-to-array conversion.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def _digest(seed: int, purpose: str, indices: tuple) -> bytes:
    tag = f"{int(seed)}|{purpose}|" + "|".join([str(int(i)) for i in indices])
    return hashlib.blake2b(tag.encode("ascii"), digest_size=16).digest()


class _Key(ISeedSequence):
    """Hands a ready Philox key to the generator as its seed state.

    ``Philox(key=...)`` builds, and then ignores, an OS-entropy
    ``SeedSequence`` (most of its construction time); a seed sequence that
    returns the key gives the same generator, counter zero, without it.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


def substream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Independent generator for the stream named (seed, purpose, *indices)."""
    key = np.frombuffer(_digest(seed, purpose, indices), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key), counter=_ZERO_COUNTER))


def derive_seed(seed: int, purpose: str, *indices: int) -> int:
    """64-bit child seed for an independent unit of work (e.g. a replication)."""
    return int.from_bytes(_digest(seed, purpose, indices)[:8], "little")
