"""Deterministic counter-based random streams.

Every random draw in the package comes from a stream addressed by
``(seed, purpose, *indices)``.  Each address maps to an independent Philox
generator keyed by a hash of the address, so any subset of the work can run
in any order, or in parallel, and still produce the numbers a serial run
would produce.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


# Philox's counter at the start of every stream; an array is taken as is,
# where the default 0 would go through numpy's int-to-array conversion.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


# Prefix hashers kept by _prefix_hasher: a step's streams share a few
# prefixes, one per (seed, purpose, step).
PREFIX_CACHE_SIZE = 64


@functools.lru_cache(maxsize=PREFIX_CACHE_SIZE)
def _prefix_hasher(seed: int, purpose: str, leading: tuple):
    """blake2b already fed the tag of an address up to its last index.

    The tag is ``"{seed}|{purpose}|"`` followed by the indices joined by
    ``"|"``; this is its part before the last index, ``leading`` being the
    indices before it.  Callers copy it and must not update it.
    """
    tag = f"{int(seed)}|{purpose}|" + "".join([f"{int(i)}|" for i in leading])
    return hashlib.blake2b(tag.encode("ascii"), digest_size=16)


def _digest(seed: int, purpose: str, indices: tuple) -> bytes:
    if not indices:
        return _prefix_hasher(seed, purpose, ()).digest()
    hasher = _prefix_hasher(seed, purpose, indices[:-1]).copy()
    hasher.update(b"%d" % int(indices[-1]))
    return hasher.digest()


class _Key(ISeedSequence):
    """Hands a ready Philox key to the generator as its seed state.

    ``Philox(key=...)`` builds, and then ignores, an OS-entropy
    ``SeedSequence`` (most of its construction time); a seed sequence that
    returns the key gives the same generator, counter zero, without it.
    The key is the digest's two native-order 64-bit words as a memoryview,
    which Philox reads like the ``uint64`` array of ``np.frombuffer`` at a
    fraction of that call's cost.
    """

    def __init__(self, digest: bytes):
        self.key = memoryview(digest).cast("Q")

    def generate_state(self, n_words: int, dtype=np.uint32) -> memoryview:
        return self.key


def substream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Independent generator for the stream named (seed, purpose, *indices)."""
    key = _Key(_digest(seed, purpose, indices))
    return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))


def derive_seed(seed: int, purpose: str, *indices: int) -> int:
    """64-bit child seed for an independent unit of work (e.g. a replication)."""
    return int.from_bytes(_digest(seed, purpose, indices)[:8], "little")
