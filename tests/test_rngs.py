import numpy as np
import pytest

from fbsdefilter.rngs import PREFIX_CACHE_SIZE, _digest, derive_seed, substream


def _mixed_draws(rng: np.random.Generator) -> list:
    """Doubles, normals, a bounded integer and 32-bit words, in one sequence.

    Three 32-bit draws in total (one inside ``integers(17)``) leave half of a
    64-bit word stored in the generator (``has_uint32`` set).
    """
    return [rng.random(), rng.standard_normal((3, 2)), rng.integers(17),
            rng.integers(2 ** 32, dtype=np.uint32, size=2)]


def test_substream_is_the_philox_keyed_by_the_address_digest():
    # substream skips the entropy seeding of Philox(key=...); the generator
    # it builds must still start in, and draw from, the same state
    for pid in substream(0, "rng-identity-order").permutation(64).tolist():
        key = np.frombuffer(_digest(9, "rng-identity", (3, pid)), dtype=np.uint64)
        want_rng = np.random.Generator(np.random.Philox(key=key))
        rng = substream(9, "rng-identity", 3, pid)
        assert repr(rng.bit_generator.state) == repr(want_rng.bit_generator.state)
        for a, b in zip(_mixed_draws(rng), _mixed_draws(want_rng)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), pid
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["state"]["counter"].any()
        assert repr(state) == repr(want_rng.bit_generator.state)


# Digests and child seeds of three addresses, recorded once: every artifact
# depends on the tag format, so a change to it (say, dropping the trailing
# "|" of an address with no indices) must fail here, not only change data.
GOLDEN_ADDRESSES = [
    ((7, "init", ()), "fe81e6b19997c31ef78095ab90ff0be4", 2216782127966880254),
    ((9, "rng-identity", (3, 41)), "f74aec3b6765e7f04ad716cfb1753c52",
     17358954782784244471),
    ((2 ** 40 + 5, "predict-backward", (np.int64(12), np.int64(1999))),
     "369d68b9d7b4daad59ab2b57782153ef", 12527524152106065206),
]


@pytest.mark.parametrize("address, digest, child_seed", GOLDEN_ADDRESSES,
                         ids=["no-indices", "two-indices", "int64-indices"])
def test_stream_addresses_match_recorded_values(address, digest, child_seed):
    seed, purpose, indices = address
    assert _digest(seed, purpose, indices).hex() == digest
    assert derive_seed(seed, purpose, *indices) == child_seed


def _fresh_key_draws(seed, purpose, indices) -> bytes:
    """Draws of the Philox keyed by the address digest, built without substream."""
    key = np.frombuffer(_digest(seed, purpose, indices), dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return b"".join(np.asarray(d).tobytes() for d in _mixed_draws(rng))


def _substream_draws(seed, purpose, indices) -> bytes:
    return b"".join(np.asarray(d).tobytes()
                    for d in _mixed_draws(substream(seed, purpose, *indices)))


@pytest.mark.parametrize("address", [address for address, _, _ in GOLDEN_ADDRESSES],
                         ids=["no-indices", "two-indices", "int64-indices"])
def test_cached_prefix_gives_the_fresh_key_draws(address):
    # twice: the second call takes the address's prefix from the cache
    for _ in range(2):
        assert _substream_draws(*address) == _fresh_key_draws(*address)


def test_interleaved_addresses_beyond_the_cache_give_the_fresh_key_draws():
    # forward and backward streams interleaved over permuted ids, as a filter
    # step asks for them, across more prefixes (steps) than the cache holds,
    # then the first steps again after their prefixes were evicted
    ids = substream(0, "rng-cache-order").permutation(8).tolist()
    steps = list(range(PREFIX_CACHE_SIZE + 5)) + [0, 1]
    for k in steps:
        for pid in ids:
            for purpose in ("predict-forward", "predict-backward"):
                address = (2 ** 33 + 1, purpose, (k, pid))
                assert _substream_draws(*address) == _fresh_key_draws(*address), address
