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

Building a ``Generator(Philox)`` costs tens of microseconds of fixed
overhead, so streams of one tag share one :class:`SharedGenerator`, per
block or across a caller's blocks (:meth:`RandomStream.block`): each
stream's constructor re-keys it through the bit generator's public ``state``
setter (its key, counter 0 and an empty buffer), which gives exactly the
draws of a freshly built one.  Such a stream is valid until the generator's
next stream is made, so they are used one at a time and in order; a
superseded stream raises on a draw rather than draw another stream's
numbers.  A standalone :class:`RandomStream` has a generator of its own.

``numpy.random`` is imported only when a stream is built, so importing this
module stays cheap.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterator

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


class _Superseded:
    """The generator of a block stream once its block has made the next stream."""

    def __getattr__(self, name):
        raise RuntimeError("this stream was superseded: a block's streams share one "
                           "generator and are valid one at a time, in order")


_SUPERSEDED = _Superseded()


class SharedGenerator:
    """One ``Generator(Philox)``, re-keyed for each stream that takes it in turn.

    A Philox stream is fixed by its key and counter alone, so setting the
    key, counter 0 and an empty buffer through the bit generator's public
    ``state`` setter gives exactly the draws of a freshly built generator,
    at a fraction of the cost of building one.
    """

    __slots__ = ("gen", "_bit_generator", "_state", "_owner")

    def __init__(self):
        from numpy.random import Generator, Philox

        self.gen = Generator(Philox(key=0))
        self._bit_generator = self.gen.bit_generator
        self._state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._owner = None

    def take(self, stream: RandomStream, key):
        """The generator, re-keyed to ``key`` for ``stream``; its previous taker can no
        longer draw."""
        if self._owner is not None:
            self._owner.gen = _SUPERSEDED
        self._owner = stream
        self._state["state"]["key"] = key
        self._bit_generator.state = self._state
        return self.gen


class RandomStream:
    """Single-owner source of randomness for one purpose within one replication.

    Streams must never be shared between concurrent consumers; derive a fresh
    one per (replication, tag) instead.  A standalone stream has its own
    generator.  The streams of one :meth:`block` share one, re-keyed by each
    stream's constructor, so each is valid from its creation until the block
    makes the next: they are used one at a time and in order, and drawing
    from a superseded stream raises RuntimeError.  ``key`` is the stream's
    Philox key, two 64-bit words, when the caller has derived it already.
    """

    __slots__ = ("replication", "gen")

    def __init__(self, master_seed: int, replication: int = 0, tag: str = "root", *,
                 key=None, shared: SharedGenerator | None = None):
        if key is None:
            key = philox_keys(master_seed, [replication], tag)[0].tolist()
        self.replication = int(replication)
        self.gen = (SharedGenerator() if shared is None else shared).take(self, key)

    @classmethod
    def block(cls, master_seed: int, replications, tag: str, keys: np.ndarray | None = None,
              shared: SharedGenerator | None = None) -> Iterator[RandomStream]:
        """The streams (master_seed, i, tag) for every i in replications, in order, sharing
        one generator; each is made when the previous one is done.

        ``keys`` are the streams' (R, 2) Philox keys when the caller has derived
        them already; otherwise they are derived here, in one pass, before the
        first stream is made (so a replication out of range raises at the call).
        ``shared`` is the generator to re-key, when the caller keeps one per tag.
        """
        replications = [int(i) for i in replications]
        if keys is None:
            keys = philox_keys(master_seed, replications, tag)
        shared = SharedGenerator() if shared is None else shared
        return (cls(master_seed, i, tag, key=key, shared=shared)
                for i, key in zip(replications, keys.tolist()))

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def standard_normal(self, size=None):
        return self.gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)
