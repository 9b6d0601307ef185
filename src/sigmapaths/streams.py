"""Deterministic, splittable Gaussian increment streams.

Each ``(master_seed, path_index, substream)`` triple maps injectively to a
Philox counter-based key, so any worker can regenerate any path's increments
independently of scheduling order: the draw for a given key is a pure
function of the key.  The Gaussian transform is numpy's ziggurat, applied to
the keyed stream in order, so a stream drawn in several blocks gives the same
normals as one draw; both choices are fixed and echoed into report metadata
so runs remain comparable.  The path engine (``experiments._keyed_chunks``)
builds its generators from these keys, each handed to ``Philox`` as a
:class:`KeySequence`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["StreamKey", "KeySequence", "RNG_INFO", "MAX_SEED", "MAX_PATHS"]

#: Echoed into every report (design decision: fixed once, recorded).
RNG_INFO = {"bit_generator": "Philox4x64", "gaussian_transform": "ziggurat"}

_U32 = 1 << 32

#: Largest master seed: seeds fill one 64-bit word of the Philox key.
MAX_SEED = (1 << 64) - 1
#: Most paths of one ensemble: path indices fill 32 bits of the Philox key.
MAX_PATHS = _U32


@dataclass(frozen=True)
class StreamKey:
    """Identity of one Gaussian stream.

    ``master_seed`` must lie in [0, 2^64) and ``path_index`` and
    ``substream`` in [0, 2^32); together they form the 128-bit Philox key, so
    distinct triples give distinct (independent) streams.
    """

    master_seed: int
    path_index: int = 0
    substream: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError(f"master_seed out of range [0, 2^64): {self.master_seed}")
        if not 0 <= self.path_index < MAX_PATHS:
            raise ValueError(f"path_index out of range [0, 2^32): {self.path_index}")
        if not 0 <= self.substream < _U32:
            raise ValueError(f"substream out of range [0, 2^32): {self.substream}")

    def philox_key(self) -> np.ndarray:
        w1 = (self.path_index << 32) | self.substream
        return np.array([self.master_seed, w1], dtype=np.uint64)


class KeySequence(ISeedSequence):
    """A Philox key posing as a seed sequence: ``Philox(KeySequence(key))``
    is ``Philox(key=key)`` in state and draws, without the entropy-seeded
    ``SeedSequence`` that ``Philox(key=...)`` builds and then ignores."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key
