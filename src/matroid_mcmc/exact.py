"""Brute-force ground truth: exhaustive distributions, exact transition
kernels, and TV distance.

Everything here recomputes from scratch (a fresh union-find or GF(2)
elimination per rank query) so it shares no code with the incremental
oracles it is used to validate.  BruteMatroid computes rank per variant, and
a set is independent iff its rank is its size, the rule the oracles' base
class uses; only an explicit spec looks independence up in its family.  All
functions enforce desk-scale size guards.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import SizeLimitError, UnsupportedOperationError, ValidationError
from .matroids import Fields, MatroidSpec, check_q

MU_MAX_N = 20
PI_MAX_N = 10
RC_MAX_N = 20
KERNEL_MAX_STATES = 4000


class ExactDistribution:
    """Support (list of bitmasks) with parallel probability vector."""

    __slots__ = ("support", "prob")

    def __init__(self, support, prob):
        self.support = list(support)
        p = np.asarray(prob, dtype=float)
        with np.errstate(over="ignore"):
            total = p.sum()
        if not 0.0 < total < math.inf:
            raise ValidationError(f"the weights' total is {total}: a float overflow or underflow")
        self.prob = p / total

    def as_dict(self) -> dict[int, float]:
        return {s: float(p) for s, p in zip(self.support, self.prob)}

    def prob_of(self, mask: int) -> float:
        try:
            return float(self.prob[self.support.index(mask)])
        except ValueError:
            return 0.0


class BruteMatroid:
    """Mask-level rank for a spec, recomputed per call; a mask is independent
    iff its rank is its size (an explicit spec looks it up in its family)."""

    def __init__(self, spec: MatroidSpec):
        self.spec = spec
        self.n = spec.n
        self._family = frozenset(spec.independent_sets) if spec.variant == "explicit" else None
        if spec.variant == "partition":
            self._blocks = [sum(1 << i for i in b) for b in spec.blocks]
        if spec.variant == "cographic":
            self._full_components = self._components((1 << self.n) - 1)

    def is_independent(self, mask: int) -> bool:
        if self._family is not None:
            return mask in self._family
        return self.rank(mask) == mask.bit_count()

    def rank(self, mask: int) -> int:
        s = self.spec
        if s.variant == "explicit":
            return max((f.bit_count() for f in s.independent_sets if f & ~mask == 0), default=0)
        if s.variant == "uniform":
            return min(mask.bit_count(), s.k)
        if s.variant == "partition":
            return sum(min((mask & b).bit_count(), cap) for b, cap in zip(self._blocks, s.caps))
        if s.variant == "graphic":
            return s.vertices - self._components(mask)
        if s.variant == "cographic":
            # the dual rank |S| + rk(E \ S) - rk(E), with rk = |V| - components
            full = (1 << self.n) - 1
            return mask.bit_count() + self._full_components - self._components(full ^ mask)
        return self._gf2_rank(mask)

    # -- per-variant helpers -------------------------------------------------

    def _components(self, mask: int) -> int:
        s = self.spec
        parent: dict[int, int] = {}  # the touched vertices only; a root maps to itself

        def find(a):
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        comp = s.vertices
        for i, (u, v) in enumerate(s.edges):
            if mask >> i & 1 and u != v:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    comp -= 1
        return comp

    def _gf2_rank(self, mask: int) -> int:
        basis: list[int] = []
        for i in range(self.n):
            if mask >> i & 1:
                c = self.spec.matrix[i]
                for b in basis:
                    if (c ^ b) < c:
                        c ^= b
                if c:
                    basis.append(c)
                    basis.sort(reverse=True)
        return len(basis)


def _lam_prod(fields: Fields, mask: int) -> float:
    p = 1.0
    i = 0
    m = mask
    while m:
        if m & 1:
            p *= fields.lam[i]
        m >>= 1
        i += 1
    return p


def independent_masks(spec: MatroidSpec) -> list[int]:
    """All independent sets, found by growing from the empty set."""
    brute = BruteMatroid(spec)
    n = spec.n
    out = [0]
    stack = [(0, -1)]
    while stack:
        mask, last = stack.pop()
        for i in range(last + 1, n):
            m2 = mask | (1 << i)
            if brute.is_independent(m2):
                out.append(m2)
                stack.append((m2, i))
    return sorted(out)


def exact_mu(spec: MatroidSpec, fields: Fields) -> ExactDistribution:
    """The weighted independent-set distribution: P(A) ∝ Π_{i∈A} λ_i."""
    if spec.n > MU_MAX_N:
        raise SizeLimitError(f"exact_mu enumerates independent sets; n <= {MU_MAX_N}")
    fields.require_size(spec.n)
    masks = independent_masks(spec)
    return ExactDistribution(masks, [_lam_prod(fields, m) for m in masks])


def exact_pi(spec: MatroidSpec, fields: Fields) -> ExactDistribution:
    """The lifted distribution over (A, B): A independent, B a labeled subset
    of the n auxiliary slots with |A| + |B| = n; weight λ^A / C(n, |A|).

    Atoms are encoded as amask | (bmask << n).
    """
    if spec.n > PI_MAX_N:
        raise SizeLimitError(f"exact_pi enumerates labeled pairs; n <= {PI_MAX_N}")
    fields.require_size(spec.n)
    n = spec.n
    support = []
    weights = []
    for amask in independent_masks(spec):
        a = amask.bit_count()
        w = _lam_prod(fields, amask) / math.comb(n, a)
        for bset in combinations(range(n), n - a):
            bmask = 0
            for j in bset:
                bmask |= 1 << j
            support.append(amask | (bmask << n))
            weights.append(w)
    return ExactDistribution(support, weights)


def exact_rc(spec: MatroidSpec, fields: Fields, q: float) -> ExactDistribution:
    """Random cluster law over all subsets: P(S) ∝ q^{-rk(S)} Π λ_i, q ∈ [0,1];
    q = 0 keeps exactly the maximum-rank subsets, weighted by Π λ_i."""
    if spec.n > RC_MAX_N:
        raise SizeLimitError(f"exact_rc enumerates all subsets; n <= {RC_MAX_N}")
    fields.require_size(spec.n)
    check_q(q)
    brute = BruteMatroid(spec)
    n = spec.n
    ranks = [brute.rank(m) for m in range(1 << n)]
    rmax = max(ranks)
    support = []
    weights = []
    for m in range(1 << n):
        if q == 0.0:
            if ranks[m] != rmax:
                continue
            w = _lam_prod(fields, m)
        else:
            # shift by rmax so the weights stay bounded: q^{-rk} ∝ (1/q)^{rk-rmax}
            w = _lam_prod(fields, m) * (1.0 / q) ** (ranks[m] - rmax)
        support.append(m)
        weights.append(w)
    return ExactDistribution(support, weights)


def tv_distance(a, b) -> float:
    """Total variation distance ½ Σ |a - b| between distributions given as
    ExactDistribution or {mask: prob} dicts (e.g. empirical histograms)."""
    da = a.as_dict() if isinstance(a, ExactDistribution) else dict(a)
    db = b.as_dict() if isinstance(b, ExactDistribution) else dict(b)
    keys = set(da) | set(db)
    return 0.5 * sum(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# Exact one-step transition kernels (collapsed states: independent mask A)
# ---------------------------------------------------------------------------

def exact_kernel(kind: str, spec: MatroidSpec, fields: Fields, q: float | None = None):
    """One-step transition matrix of the chosen walk over collapsed states.

    Returns (states, P): states is a list of A-bitmasks, P[i, j] the
    probability of moving from states[i] to states[j] in one full transition
    (down+up for "polarized", up+down for "random-cluster").  q is the
    random-cluster kernel's, which needs it; the polarized kernel takes none.
    """
    if kind not in ("polarized", "random-cluster"):
        raise UnsupportedOperationError(f"unknown kernel kind {kind!r}")
    fields.require_size(spec.n)
    if kind == "polarized":
        if q is not None:
            raise UnsupportedOperationError("polarized kernel takes no q")
        return _polarized_kernel(spec, fields)
    if q is None:
        raise UnsupportedOperationError("random-cluster kernel needs q")
    check_q(q)
    return _rc_kernel(spec, fields, q)


def _polarized_kernel(spec: MatroidSpec, fields: Fields):
    n = spec.n
    states = independent_masks(spec)
    if len(states) > KERNEL_MAX_STATES:
        raise SizeLimitError(f"kernel state space {len(states)} exceeds {KERNEL_MAX_STATES}")
    index = {m: i for i, m in enumerate(states)}
    lam = fields.lam
    P = np.zeros((len(states), len(states)))

    def up_law(bmask: int):
        """Target re-add law from mid-state (B, y) with |B| + y = n - 1."""
        k = bmask.bit_count()
        wy = (k + 1) / math.comb(n, k)  # aggregate over the k+1 free slots
        cands = [(bmask, wy)]
        for i in range(n):
            if not bmask >> i & 1:
                m2 = bmask | (1 << i)
                if m2 in index:
                    cands.append((m2, lam[i] / math.comb(n, k + 1)))
        z = sum(w for _, w in cands)
        return [(m, w / z) for m, w in cands]

    for amask in states:
        row = index[amask]
        a = amask.bit_count()
        y = n - a
        if y:
            # drop one of the y auxiliary slots
            for m2, pu in up_law(amask):
                P[row, index[m2]] += (y / n) * pu
        for i in range(n):
            if amask >> i & 1:
                for m2, pu in up_law(amask ^ (1 << i)):
                    P[row, index[m2]] += (1 / n) * pu
    return states, P


def _rc_kernel(spec: MatroidSpec, fields: Fields, q: float):
    n = spec.n
    states = list(range(1 << n))
    if len(states) > KERNEL_MAX_STATES:
        raise SizeLimitError(f"kernel state space {len(states)} exceeds {KERNEL_MAX_STATES}")
    brute = BruteMatroid(spec)
    ranks = [brute.rank(m) for m in states]
    lam = fields.lam
    P = np.zeros((len(states), len(states)))

    def down_law(bmask: int):
        """Realized removal law from mid-state (B, y) with |B| + y = n + 1."""
        k = bmask.bit_count()
        cands = [(bmask, float(k))]  # remove a slot: aggregate mass |B|
        for j in range(n):
            if bmask >> j & 1:
                m2 = bmask ^ (1 << j)
                w = 1.0 / lam[j]
                if ranks[m2] < ranks[bmask]:
                    w *= q  # rank-critical removal accepted with probability q
                if w:
                    cands.append((m2, w))
        z = sum(w for _, w in cands)
        return [(m, w / z) for m, w in cands]

    for bmask in states:
        row = bmask
        a = bmask.bit_count()
        # up: add one uniform element of the complement (a slots, n - a elements)
        if a:
            for m2, pd in down_law(bmask):
                P[row, m2] += (a / n) * pd
        for i in range(n):
            if not bmask >> i & 1:
                for m2, pd in down_law(bmask | (1 << i)):
                    P[row, m2] += (1 / n) * pd
    return states, P


def stationary_residual(P: np.ndarray, probs) -> float:
    """max |sᵀP - sᵀ| for a candidate stationary vector s."""
    s = np.asarray(probs, dtype=float)
    return float(np.max(np.abs(s @ P - s)))
