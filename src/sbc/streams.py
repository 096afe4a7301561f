"""Deterministic, splittable random streams.

Every stream is derived from (master_seed, replication index, purpose tag),
so a run is reproducible no matter how replications are scheduled across
workers.  The underlying bit generator is Philox, a counter-based generator
whose whole state is a 128-bit key and a 256-bit counter (Salmon et al.
2011).  Each (master_seed, tag) pair has one key, numpy's
``SeedSequence(master_seed, spawn_key=(tag code,)).generate_state(2,
np.uint64)``, and replication i's stream is that key's generator at counter
``[0, 0, 0, i]``, which equals ``Philox(key).advance(i * 2**192)``: each
replication owns a block of 2**192 counter values, numpy's documented
parallel use of Philox.

Building a ``Generator(Philox)`` costs tens of microseconds of fixed
overhead, so :class:`Streams` keeps one :class:`SharedGenerator` per tag,
and each stream's constructor moves it to its replication's counter block
through the bit generator's public ``state`` setter (counter word 3 set to
the replication, the other words 0, and an empty buffer), which gives
exactly the draws of a freshly built generator.  Such a stream is valid
until the generator's next stream is made, so they are used one at a time
and in order; a superseded stream raises on a draw rather than draw another
stream's numbers.  A standalone :class:`RandomStream` has a generator of its
own.

``numpy.random`` is imported only when a stream is built, so importing this
module stays cheap.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterator

import numpy as np

# The largest replication index, far beyond any run.
_MAX_REPLICATION = 2**32 - 1


@lru_cache(maxsize=None)
def _tag_code(tag: str) -> int:
    """Stable 32-bit code for a purpose tag (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.blake2b(tag.encode("utf-8"), digest_size=4).digest(), "big")


def _replication(i) -> int:
    i = int(i)
    if not 0 <= i <= _MAX_REPLICATION:
        raise ValueError(f"a replication must lie in [0, {_MAX_REPLICATION}]")
    return i


class _Superseded:
    """The generator of a shared stream once its generator has made the next stream."""

    def __getattr__(self, name):
        raise RuntimeError("this stream was superseded: a tag's streams share one "
                           "generator and are valid one at a time, in order")


_SUPERSEDED = _Superseded()


class SharedGenerator:
    """The ``Generator(Philox)`` of one (master_seed, tag) pair, moved to each stream's
    counter block in turn.

    A Philox stream is fixed by its key and counter alone, so setting the
    counter and an empty buffer through the bit generator's public ``state``
    setter gives exactly the draws of a freshly built generator, at a
    fraction of the cost of building one.
    """

    __slots__ = ("gen", "_bit_generator", "_state", "_owner")

    def __init__(self, master_seed: int, tag: str):
        from numpy.random import Generator, Philox, SeedSequence

        key = SeedSequence(master_seed, spawn_key=(_tag_code(tag),)).generate_state(2, np.uint64)
        self.gen = Generator(Philox(key=key))
        self._bit_generator = self.gen.bit_generator
        self._state = {"bit_generator": "Philox", "state": {"counter": None, "key": key.tolist()},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._owner = None

    def take(self, stream: RandomStream, replication: int):
        """The generator, at the start of ``replication``'s counter block, for ``stream``;
        its previous taker can no longer draw."""
        if self._owner is not None:
            self._owner.gen = _SUPERSEDED
        self._owner = stream
        self._state["state"]["counter"] = [0, 0, 0, replication]
        self._bit_generator.state = self._state
        return self.gen


class RandomStream:
    """Single-owner source of randomness for one purpose within one replication.

    Streams must never be shared between concurrent consumers; derive a fresh
    one per (replication, tag) instead.  A standalone stream has its own
    generator, and its replication is checked here.  The streams of one
    :class:`Streams` tag share one, moved by each stream's constructor, so each
    is valid from its creation until the next: they are used one at a time and
    in order, and drawing from a superseded stream raises RuntimeError.  Their
    replications are checked by the :class:`Streams` call that makes them.
    """

    __slots__ = ("replication", "gen")

    def __init__(self, master_seed: int, replication: int = 0, tag: str = "root", *,
                 shared: SharedGenerator | None = None):
        self.replication = _replication(replication) if shared is None else replication
        self.gen = (shared or SharedGenerator(master_seed, tag)).take(self, self.replication)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def standard_normal(self, size=None):
        return self.gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)


class Streams:
    """The random streams of one master seed, with one shared generator per tag.

    A tag's key is derived and its generator built on the tag's first use, so
    a run (or pool chunk) derives each key once.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._shared: dict[str, SharedGenerator] = {}

    def __call__(self, replications, tag: str) -> Iterator[RandomStream]:
        """The streams (master_seed, i, tag) for every i in replications, in order; each
        is made when the previous one is done, and supersedes every earlier stream of
        ``tag``.  A replication out of range raises ValueError at the call."""
        replications = [_replication(i) for i in replications]
        shared = self._shared.get(tag)
        if shared is None:
            shared = self._shared[tag] = SharedGenerator(self.master_seed, tag)
        return (RandomStream(self.master_seed, i, tag, shared=shared) for i in replications)
