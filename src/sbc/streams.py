"""Deterministic, splittable random streams.

Every stream is derived from (master_seed, replication index, purpose tag),
so a run is reproducible no matter how replications are scheduled across
workers.  The underlying bit generator is Philox, a counter-based generator
whose whole state is a 128-bit key and a counter (Salmon et al. 2011), so
streams with different keys are independent and a stream is fixed by its
key alone.

A stream's key is what numpy's ``SeedSequence(entropy=master_seed,
spawn_key=(replication, tag code))`` would hand Philox.  :func:`philox_keys`
computes it with a numpy port of that hash, for a whole block of
replications at once: building one ``SeedSequence`` per stream costs tens of
microseconds of fixed per-call overhead, which dominated a cheap
replication.  The master seed's words are mixed once and cached; only the
two spawn words are mixed per row, on uint32 arrays (numpy scalars warn on
the wrap-around the hash relies on).  The port is tested against
``SeedSequence`` itself on random seeds, replications and tags, and against
draws frozen from the ``SeedSequence`` implementation.

``numpy.random`` is imported only when a stream is built, so importing this
module stays cheap.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# A replication is one 32-bit spawn word, which keeps every key's entropy the
# same length (a larger index would add a word).
_MAX_REPLICATION = 2**32 - 1


@lru_cache(maxsize=None)
def _tag_code(tag: str) -> int:
    """Stable 32-bit code for a purpose tag (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.blake2b(tag.encode("utf-8"), digest_size=4).digest(), "big")


def _hash(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's multiply-xorshift hash; returns the value and next constant."""
    h_next = (h * mult) & _MASK32
    value = (value ^ h) * h_next
    return value ^ (value >> 16), h_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _mix_words(pool: list, h: int, words) -> tuple[list, int]:
    """Mix each word into every pool word, as SeedSequence does past the pool size."""
    for word in words:
        for dst in range(_POOL_SIZE):
            value, h = _hash(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool, h


def _uint32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint32).reshape(-1)


@lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> tuple[tuple[np.ndarray, ...], int]:
    """The entropy pool and hash constant after mixing the master seed's words.

    The seed's 32-bit words (least significant first) are padded with zeros
    to the pool size, as SeedSequence pads them whenever a spawn key follows.
    """
    words = []
    while True:
        words.append(_uint32(master_seed & _MASK32))
        master_seed >>= 32
        if not master_seed:
            break
    words += [_uint32(0)] * (_POOL_SIZE - len(words))
    h = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, h = _hash(word, h, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    pool, h = _mix_words(pool, h, words[_POOL_SIZE:])
    return tuple(pool), h


def philox_keys(master_seed: int, replications, tag: str) -> np.ndarray:
    """The (R, 2) uint64 Philox keys of the streams (master_seed, replications[r], tag).

    Row r equals ``SeedSequence(entropy=master_seed, spawn_key=(replications[r],
    _tag_code(tag))).generate_state(2, np.uint64)``.
    """
    if int(master_seed) < 0:
        raise ValueError("master_seed must be non-negative")
    reps = np.asarray(replications, dtype=np.int64).reshape(-1)
    if reps.size and (reps.min() < 0 or reps.max() > _MAX_REPLICATION):
        raise ValueError(f"replications must lie in [0, {_MAX_REPLICATION}]")
    pool, h = _seed_pool(int(master_seed))
    pool, _ = _mix_words(list(pool), h, (reps.astype(np.uint32), _uint32(_tag_code(tag))))
    h = _INIT_B
    state = []
    for word in pool:
        value, h = _hash(word, h, _MULT_B)
        state.append(value.astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


@lru_cache(maxsize=None)
def _generator_factory():
    """A function from a Philox key to a Generator; imports numpy.random on first use."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        """Seeds Philox with a precomputed key (what SeedSequence's state would be)."""

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or dtype is not np.uint64:  # what Philox asks for
                raise ValueError("a fixed key provides only Philox's two 64-bit words")
            return self.key

    # Philox's default counter is 0; passed as an array it skips a slower
    # conversion from a Python int (about 40% of building the generator).
    counter = np.zeros(4, dtype=np.uint64)
    counter.flags.writeable = False
    return lambda key: Generator(Philox(seed=FixedKey(key), counter=counter))


class RandomStream:
    """Single-owner source of randomness for one purpose within one replication.

    Streams must never be shared between concurrent consumers; derive a fresh
    one per (replication, tag) instead.  ``key`` is the stream's Philox key
    when the caller has derived it already (see :meth:`block`).
    """

    def __init__(self, master_seed: int, replication: int = 0, tag: str = "root", *,
                 key: np.ndarray | None = None):
        if key is None:
            key = philox_keys(master_seed, [replication], tag)[0]
        self.master_seed = int(master_seed)
        self.replication = int(replication)
        self.tag = tag
        self.gen = _generator_factory()(key)

    @classmethod
    def block(cls, master_seed: int, replications, tag: str) -> list[RandomStream]:
        """The streams (master_seed, i, tag) for every i in replications, keyed in one pass."""
        replications = [int(i) for i in replications]
        keys = philox_keys(master_seed, replications, tag)
        return [cls(master_seed, i, tag, key=key) for i, key in zip(replications, keys)]

    @property
    def stream_id(self) -> str:
        return f"{self.master_seed}/{self.replication}/{self.tag}"

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def standard_normal(self, size=None):
        return self.gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def __repr__(self) -> str:
        return f"RandomStream({self.stream_id})"
