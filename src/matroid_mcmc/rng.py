"""Deterministic random streams on top of numpy's counter-based Philox generator.

Every sequential chain owns a SeedStream.  Streams for batch chain number
``i`` are keyed ``derive_seed(seed, i)``, a 64-bit mix of the pair, so a batch
can be replayed chain-by-chain regardless of how the chains were scheduled,
and nearby seeds do not share streams.  The lockstep runner
(vectorized._run_lockstep) does not use SeedStream: a whole lockstep batch
draws from one SFC64 stream seeded with its key.

A SeedStream hands out Python floats, not numpy scalars: the block of doubles
numpy draws is turned into a list once per refill, so the arithmetic of a
sequential step (drop index, proposal point, q coin, the WeightedIndex
descent) runs on plain floats.  The doubles are the generator's own, in its
order, so the bytes of every stream are those of ``Generator.random``.
"""
from __future__ import annotations

import numpy as np

_BUFFER = 4096
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijection of 64-bit integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Key for the index-th stream of a batch run.

    For a fixed seed the map index -> key is a bijection of 64-bit integers.
    """
    return _mix64((_mix64(int(seed) & _MASK64) + int(index)) & _MASK64)


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
            buf.extend(self._gen.random(_BUFFER)[::-1].tolist())
        return buf.pop()
