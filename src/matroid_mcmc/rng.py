"""Deterministic random streams on top of numpy's counter-based Philox generator.

Every chain owns a SeedStream.  Streams for batch chain number ``i`` are keyed
``seed ^ i`` so a batch can be replayed chain-by-chain regardless of how the
chains were scheduled.
"""
from __future__ import annotations

import numpy as np

_BUFFER = 4096
_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Key for the index-th stream of a batch run."""
    return (int(seed) ^ int(index)) & _MASK64


class SeedStream:
    """Buffered uniform-[0,1) source with a fixed 64-bit key.

    Draws are taken from an internal block of ``_BUFFER`` doubles; ``u()``
    costs a list pop until the block is exhausted.  The sequence depends only
    on the key, never on timing or scheduling.
    """

    __slots__ = ("key", "_gen", "_buf")

    def __init__(self, key: int):
        self.key = int(key) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.key))
        self._buf: list[float] = []

    def u(self) -> float:
        """Next uniform in [0, 1)."""
        buf = self._buf
        if not buf:
            # reversed so pop() from the tail replays in draw order
            buf.extend(self._gen.random(_BUFFER)[::-1])
        return buf.pop()
