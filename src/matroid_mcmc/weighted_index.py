"""Dynamic weighted random selection over a fixed universe [n].

An implicit complete binary tree (flat segment-tree layout) keeps per-element
weights and subtree sums, so setting a weight and drawing an element
proportional to its weight are both O(log n).  The running total is maintained
incrementally and therefore subject to floating-point drift; subtree sums are
rebuilt exactly every REBUILD_EVERY mutations, which keeps the drift far below
the 1e-9 relative bound the chains rely on.
"""
from __future__ import annotations

import math

from .errors import EmptySelectionError, ValidationError

REBUILD_EVERY = 1 << 20


class WeightedIndex:
    """Per-element nonnegative weights with O(log n) weighted draws.

    Weight 0 marks an inactive element; `sample` never returns one for
    u in (0, total].
    """

    __slots__ = ("n", "weight", "total", "active_count", "_tree", "_size",
                 "_updates")

    def __init__(self, weights):
        ws = [float(x) for x in weights]
        if not ws:
            raise ValidationError("weighted index needs at least one element")
        for i, x in enumerate(ws):
            _check_weight(i, x)
        self.n = len(ws)
        # round up to a power of two so the sampling descent is branch-free
        size = 1
        while size < self.n:
            size *= 2
        self._size = size
        self.weight = ws
        self.active_count = sum(1 for x in ws if x != 0.0)
        self._updates = 0
        self._build()

    def _build(self) -> None:
        # tree[1] is the root holding the full sum; children of k are 2k, 2k+1
        size = self._size
        tree = [0.0] * (2 * size)
        tree[size:size + self.n] = self.weight
        for k in range(size - 1, 0, -1):
            tree[k] = tree[2 * k] + tree[2 * k + 1]
        self._tree = tree
        self.total = tree[1]

    def set(self, i: int, x: float) -> None:
        """Set weight_i = x, updating total and active_count."""
        x = float(x)
        if not 0.0 <= x < math.inf:  # negative, infinite or nan: this raises
            _check_weight(i, x)
        if not 0 <= i < self.n:
            raise IndexError(f"element {i} outside universe [0, {self.n})")
        old = self.weight[i]
        if old == 0.0 and x != 0.0:
            self.active_count += 1
        elif old != 0.0 and x == 0.0:
            self.active_count -= 1
        self.weight[i] = x
        delta = x - old
        tree = self._tree
        k = self._size + i
        while k:
            tree[k] += delta
            k >>= 1
        self.total = tree[1]
        self._updates += 1
        if self._updates >= REBUILD_EVERY:
            self.rebuild()

    def sample(self, u: float) -> int:
        """Element whose cumulative-weight interval contains u ∈ (0, total].

        Returns the smallest i with weight_{0..i} summing to >= u, so
        boundary ties resolve to the lower-indexed element and the draw is a
        deterministic function of (weights, u).
        """
        tree = self._tree
        if tree[1] <= 0.0:
            raise EmptySelectionError("all weights are zero")
        k = 1
        size = self._size
        x = u
        while k < size:
            k *= 2
            left = tree[k]
            if x > left:
                x -= left
                k += 1
        i = k - size
        if i >= self.n:  # u beyond the last cumulative sum: clamp
            i = self.n - 1
        if self.weight[i] == 0.0:  # float residue in a subtree of zero weights
            return self._sample_exact(u)
        return i

    def _sample_exact(self, u: float) -> int:
        """sample(u) by one pass over the weights, after an exact rebuild."""
        self.rebuild()
        if self.total <= 0.0:
            raise EmptySelectionError("all weights are zero")
        for i, w in enumerate(self.weight):
            u -= w
            if w and u <= 0.0:
                return i
        return max(i for i, w in enumerate(self.weight) if w)

    def rebuild(self) -> None:
        """Recompute all partial sums exactly from the stored weights."""
        self._updates = 0
        self._build()


def _check_weight(i: int, x: float) -> None:
    if x < 0 or not math.isfinite(x):
        raise ValidationError(f"weight of element {i} must be finite and >= 0, got {x}")
