"""Lockstep batch execution of many chains on small ground sets (n <= 16).

Both walks touch only bitmask state, so for small n every query the oracles
answer can be precomputed into dense tables over all 2^n subsets (popcount,
independence or rank).  These are filled by the same incremental oracles the
sequential chains use, walked once through all 2^n masks in Gray-code order.
From them each runner builds the re-add law of every post-drop mask: the
masses the sequential rejection loop accepts from, as one cumulative row per
mask.  A batch of chains then advances as numpy array operations, with one
drop and one exact re-add draw per chain step and no rejection rounds; the
rejection counts are drawn from their exact law (see _run_lockstep).  The
transition law per chain is the sequential chains' and is validated against
the exact kernels and the sequential chains by the test suite.  One loop
serves both laws: the random-cluster walk runs as the down-up walk on the
complements of its cluster sets, with weights 1/λ and a rank-drop test in
place of the independence test.

The whole batch consumes a single counter-based stream keyed by cfg.seed, so
batch output is a deterministic function of (spec, fields, cfg, count).
"""
from __future__ import annotations

import numpy as np

from .config import ChainConfig, StepStats
from .errors import SizeLimitError, ValidationError
from .matroids import Fields, MatroidSpec, build_oracle, greedy_basis

VECTORIZED_MAX_N = 16


class SmallTables:
    """Dense per-mask tables for one spec/fields pair."""

    def __init__(self, spec: MatroidSpec, fields: Fields, need: str):
        n = spec.n
        if n > VECTORIZED_MAX_N:
            raise SizeLimitError(
                f"vectorized tables enumerate 2^n masks; n <= {VECTORIZED_MAX_N}")
        if len(fields) != n:
            raise ValidationError("fields length must match ground set size")
        self.n = n
        size = 1 << n
        masks = np.arange(size, dtype=np.int64)
        pc = np.zeros(size, dtype=np.int64)
        for b in range(n):
            pc += (masks >> b) & 1
        self.popcnt = pc

        # random-cluster: the walk runs on complements, weights 1/λ
        w = np.asarray(fields.proposal_weights(inverse=need == "rc"), dtype=float)
        gray = masks ^ (masks >> 1)
        if need == "polarized":
            self.indep = np.empty(size, dtype=bool)
            self.indep[gray] = np.fromiter(_gray_walk(spec, "independence"),
                                           dtype=bool, count=size)
        else:
            self.rank = np.empty(size, dtype=np.int64)
            self.rank[gray] = np.fromiter(_gray_walk(spec, "rank"),
                                          dtype=np.int64, count=size)
        self.weight = w
        # mass[m] = total weight of the elements outside m
        self.mass = sum(w[j] * (((masks >> j) & 1) == 0) for j in range(n))


def _gray_walk(spec: MatroidSpec, kind: str):
    """One oracle's answers on all 2^n masks; answer k is on mask k ^ (k >> 1).

    That is the Gray-code order: step k flips element ctz(k), so each mask
    costs one insert or delete and one query.
    """
    oracle = build_oracle(spec, kind)
    query = oracle.is_independent if kind == "independence" else oracle.rank
    yield query()
    held = 0
    for k in range(1, 1 << spec.n):
        low = k & -k
        if held & low:
            oracle.delete(low.bit_length() - 1)
        else:
            oracle.insert(low.bit_length() - 1)
        held ^= low
        yield query()


def readd_tables(tb: SmallTables, q: float | None = None):
    """The re-add law of every post-drop mask m.

    Adding j ∉ m is accepted with probability acc(m, j): indep[m | j] for
    polarized tables (q None); for random-cluster tables (complement masks)
    1 unless the rank of the complement drops, then q.  Returns (cdf, rej):
    row m of cdf is the running sum of the re-add masses, first the auxiliary
    slots (n - |m|), then w_j·acc(m, j) for each j (0 for j ∈ m), so
    cdf[m, n] is the accepted mass.  rej[m] sums w_j·(1 - acc(m, j)) over
    j ∉ m: it is exactly 0 where no proposal can be rejected.
    """
    n = tb.n
    masks = np.arange(1 << n, dtype=np.int64)
    cdf = np.empty((1 << n, n + 1), order="F")  # _run_lockstep reads it by column
    cdf[:, 0] = n - tb.popcnt
    rej = np.zeros(1 << n)
    if q is not None:
        rank_c = tb.rank[::-1]  # rank_c[m] = rank of the complement of m
    for j in range(n):
        free = ((masks >> j) & 1) == 0
        cand = masks | (1 << j)
        if q is None:
            acc = tb.indep[cand]
        else:
            acc = np.where(rank_c[cand] < rank_c, q, 1.0)
        cdf[:, j + 1] = cdf[:, j] + tb.weight[j] * (free * acc)
        rej += tb.weight[j] * (free * (1.0 - acc))
    return cdf, rej


def _run_lockstep(cdf, rej, cfg: ChainConfig, count: int, start: int):
    """Advance `count` down-up chains from mask `start`; returns (masks, stats).

    Each step drops a uniform element index (a set bit leaves the mask, an
    unset one is an auxiliary slot), then re-adds with one draw per chain from
    the law the rejection loop accepts from: column k of the post-drop row of
    cdf (see readd_tables) is picked with probability proportional to its
    increment, k = 0 being an auxiliary slot and k = j + 1 element j.

    A rejection loop's trial count does not depend on the element it accepts:
    from post-drop mask s it is geometric with success probability
    p_s = cdf[s, n] / (cdf[s, n] + rej[s]).  Sums of independent geometric
    counts with one p are negative binomial, so the rejections of all visits
    to s are drawn at the end as one negative_binomial(visits_s, p_s).
    """
    n = cdf.shape[1] - 1
    gen = np.random.Generator(np.random.Philox(key=cfg.seed & ((1 << 64) - 1)))
    mask = np.full(count, int(start), dtype=np.int64)
    visits = np.zeros(1 << n, dtype=np.int64)
    ones = np.int64(1)
    # bit[k] is what column k adds: nothing for an auxiliary slot, else 1 << (k - 1)
    bit = np.concatenate(([0], ones << np.arange(n, dtype=np.int64)))
    steps = cfg.steps(n)

    for _ in range(steps):
        mask &= ~(ones << (gen.random(count) * n).astype(np.int64))
        visits += np.bincount(mask, minlength=1 << n)
        u = (1.0 - gen.random(count)) * np.take(cdf[:, n], mask)  # in (0, accepted mass]
        # the picked column is the first whose running sum reaches u, that is
        # the number of columns below u (rows are non-decreasing)
        pick = np.zeros(count, dtype=np.int8)  # n <= 16
        for k in range(n):
            pick += np.take(cdf[:, k], mask) < u
        mask |= bit[pick]

    # a post-drop mask is never full, so its accepted mass is at least 1
    seen = np.flatnonzero((visits > 0) & (rej > 0.0))
    accepted = cdf[seen, n]
    p = accepted / (accepted + rej[seen])
    rejections = int(gen.negative_binomial(visits[seen], p).sum())
    stats = StepStats(proposals=steps * count + rejections, rejections=rejections,
                      steps=steps * count)
    return mask, stats


def _check_start(mask: int, n: int) -> int:
    mask = int(mask)
    if not 0 <= mask < 1 << n:
        raise ValidationError(f"initial mask must lie in [0, 2^{n}), got {mask}")
    return mask


def run_polarized_batch(spec: MatroidSpec, fields: Fields, cfg: ChainConfig,
                        count: int, initial_mask: int = 0):
    """Advance `count` down-up chains in lockstep; returns (masks, stats)."""
    tb = SmallTables(spec, fields, need="polarized")
    initial_mask = _check_start(initial_mask, tb.n)
    if not tb.indep[initial_mask]:
        raise ValidationError("initial state must be independent")
    cdf, rej = readd_tables(tb)
    return _run_lockstep(cdf, rej, cfg, count, initial_mask)


def run_rc_batch(spec: MatroidSpec, fields: Fields, q: float, cfg: ChainConfig,
                 count: int, initial_mask: int | None = None):
    """Advance `count` up-down random-cluster chains in lockstep.

    Runs the down-up walk on the complements of the cluster sets.
    """
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"q must lie in [0, 1], got {q}")
    tb = SmallTables(spec, fields, need="rc")
    if initial_mask is None:
        basis = greedy_basis(build_oracle(spec, "rank"), spec.n) if q == 0.0 else []
        initial_mask = sum(1 << i for i in basis)
    initial_mask = _check_start(initial_mask, tb.n)
    full = (1 << tb.n) - 1
    cdf, rej = readd_tables(tb, q)
    masks, stats = _run_lockstep(cdf, rej, cfg, count, full ^ initial_mask)
    return full ^ masks, stats
