"""Dynamic weighted random selection over a fixed universe [n].

An implicit complete binary tree (flat segment-tree layout) keeps per-element
weights and subtree sums, so setting a weight and drawing an element
proportional to its weight are both O(log n).  `set` recomputes each sum on
the leaf's path from its two children; float addition is commutative, so the
tree always equals, bit for bit, a fresh build from the current weights.
Nothing drifts, a subtree of zero weights sums to exactly 0, and a light
weight keeps its mass when a heavy one (λ up to 1e300) leaves beside it.
"""
from __future__ import annotations

import math

from .errors import EmptySelectionError, ValidationError


class WeightedIndex:
    """Per-element nonnegative weights with O(log n) weighted draws.

    Weight 0 marks an inactive element; `sample` never returns one for
    u in (0, total].
    """

    __slots__ = ("n", "weight", "total", "active_count", "_tree", "_size")

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
        # tree[1] is the root holding the full sum; children of k are 2k, 2k+1
        tree = [0.0] * (2 * size)
        tree[size:size + self.n] = ws
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
        tree = self._tree
        k = self._size + i
        tree[k] = x
        # each ancestor is the sum of its children; x carries the running sum
        while k > 1:
            x += tree[k ^ 1]
            k >>= 1
            tree[k] = x
        self.total = x

    def sample(self, u: float) -> int:
        """Element whose cumulative-weight interval contains u ∈ (0, total].

        Returns the smallest i with weight_{0..i} summing to >= u, so
        boundary ties resolve to the lower-indexed element and the draw is a
        deterministic function of (weights, u); u <= 0 counts as 5e-324.
        """
        tree = self._tree
        if tree[1] <= 0.0:
            raise EmptySelectionError("all weights are zero")
        if u <= 0.0:
            u = 5e-324
        k = 1
        size = self._size
        while k < size:
            k *= 2
            left = tree[k]
            if u > left:
                u -= left
                k += 1
        # rounding can carry u past the last positive leaf: step back to it
        while tree[k] == 0.0:
            k -= 1
        return k - size


def _check_weight(i: int, x: float) -> None:
    if x < 0 or not math.isfinite(x):
        raise ValidationError(f"weight of element {i} must be finite and >= 0, got {x}")
