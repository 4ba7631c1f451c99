"""Counter-based splittable random streams.

Every stochastic routine in the library draws from a stream keyed by
(seed, purpose tag, index).  Streams are independent Philox generators, so
path-level draws do not depend on scheduling or worker count, and any
experiment is reproducible from (config, seed) alone.

A stream draws no OS entropy: its Philox key is the 128-bit blake2b hash of
the triple, handed to ``Philox`` as its seed sequence, so the generator's
state and every draw are those of ``Generator(Philox(key=...))``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["stream"]


def _key(seed: int, purpose: str, index: int) -> np.ndarray:
    raw = f"{purpose}/{index}".encode()
    h = hashlib.blake2b(raw, digest_size=16,
                        key=int(seed).to_bytes(8, "little", signed=False))
    return np.frombuffer(h.digest(), dtype=np.uint64)


class _Key(ISeedSequence):
    """Seed sequence that hands Philox a ready key.

    ``Philox(key=k)`` still builds a ``SeedSequence`` from OS entropy, which
    costs most of its construction and is then ignored; ``Philox(_Key(k))``
    asks this object for its key instead, and ends in the same state.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream key is two uint64 words")
        return self._words


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return a deterministic generator for (seed, purpose, index).

    The same triple always yields the same stream; distinct triples yield
    statistically independent streams (Philox keyed by a 128-bit hash).
    """
    key = _Key(_key(seed, purpose, index))
    return np.random.Generator(np.random.Philox(key))
