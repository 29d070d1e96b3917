"""Lockstep batch execution of many chains on small ground sets (n <= 16).

Both walks touch only bitmask state, so for small n every query the oracles
answer can be precomputed into dense tables over all 2^n subsets
(independence or rank).  These are filled by one walk of the same
incremental independence oracle the sequential chains use over the
independent sets only (see _independent_sizes), so the fill tracks the
independent sets, not 2^n; a mask's rank is the subset maximum of |S| over
the independent sets S inside it.
From them each runner builds the re-add law of every post-drop mask: the
masses the sequential rejection loop accepts from, as one Walker alias table
per mask (Walker 1977; Vose 1991).  A batch of chains then advances as numpy
array operations: each chain step draws one uniform, whose integer part
picks the drop and whose fractional part picks the alias column and its
coin, so the exact re-add costs O(1) per chain and no rejection rounds run;
the rejection counts are drawn from their exact law (see _run_lockstep).
The tables take (n + 1)·2^n·9 bytes and are built in row blocks, so the
masses of all rows never exist at once.  The
transition law per chain is the sequential chains' and is validated against
the exact kernels and the sequential chains by the test suite.  One loop
serves both laws: the random-cluster walk runs as the down-up walk on the
complements of its cluster sets, with weights 1/λ and a rank-drop test in
place of the independence test.

The whole batch consumes one numpy SFC64 stream seeded with cfg.seed, so
batch output is a deterministic function of (spec, fields, cfg, count).
SFC64 (Chris Doty-Humphrey's Small Fast Chaotic generator) was chosen for
speed: it fills a batch's uniforms in under half of Philox's time, and under
Philox that fill took about a third of a lockstep step.  A batch needs one
stream only, so Philox's keyed independent streams buy it nothing; the
sequential chains keep Philox (see rng.py).
"""
from __future__ import annotations

import numpy as np

from .config import ChainConfig, StepStats, debug_asserts_enabled
from .errors import SizeLimitError, ValidationError
from .matroids import Fields, MatroidSpec, build_oracle

VECTORIZED_MAX_N = 16


class SmallTables:
    """Dense per-mask tables for one spec/fields pair: indep[m] (bool) for
    need "polarized", rank[m] (int64) for need "rc" (rank-capable specs).
    Both come from one walk over the independent sets (_independent_sizes),
    so the build costs O(1) oracle calls per independent set and per
    rejected extension, not per mask."""

    def __init__(self, spec: MatroidSpec, fields: Fields, need: str):
        n = spec.n
        if n > VECTORIZED_MAX_N:
            raise SizeLimitError(
                f"vectorized tables enumerate 2^n masks; n <= {VECTORIZED_MAX_N}")
        if len(fields) != n:
            raise ValidationError("fields length must match ground set size")
        if need == "rc":
            spec.require_rank()
        self.n = n
        # random-cluster: the walk runs on complements, weights 1/λ
        self.weight = np.asarray(fields.proposal_weights(inverse=need == "rc"), dtype=float)
        sizes = _independent_sizes(spec)
        if need == "polarized":
            self.indep = sizes >= 0
        else:
            # pass j lets each mask with bit j take the maximum of the mask
            # without it, so after all n passes rank[m] is the max over S ⊆ m
            rank = sizes.astype(np.int64)
            for j in range(n):
                halves = rank.reshape(-1, 2, 1 << j)
                np.maximum(halves[:, 1], halves[:, 0], out=halves[:, 1])
            self.rank = rank

    def minor(self, contract: bool) -> "SmallTables":
        """Independence tables of the minor that contracts element 0 (contract
        true; {0} must be independent) or deletes it.

        Element i of the minor is element i + 1 here, and a set S of the minor
        is independent iff (S << 1) | contract is.  So the tables are slices:
        views that share memory with these tables, which are never written.
        """
        tb = object.__new__(type(self))
        tb.n = self.n - 1
        tb.weight = self.weight[1:]
        tb.indep = self.indep[int(contract)::2]
        return tb


def _independent_sizes(spec: MatroidSpec) -> np.ndarray:
    """|S| for every independent mask S, -1 for every dependent one (int8).

    A depth-first walk of the independence oracle: each independent set is
    extended by each element above its largest one, and an extension the
    oracle rejects is not extended further (its supersets are dependent
    too).  Each independent set but the empty one, and each rejected
    extension, costs one insert, one query and one delete.
    """
    oracle = build_oracle(spec, "independence")
    insert, delete, query = oracle.insert, oracle.delete, oracle.is_independent
    n = spec.n
    sizes = np.full(1 << n, -1, dtype=np.int8)

    def extend(mask: int, start: int, k: int) -> None:
        sizes[mask] = k
        for i in range(start, n):
            insert(i)
            if query():
                extend(mask | 1 << i, i + 1, k + 1)
            delete(i)

    extend(0, 0, 0)
    return sizes


_ROW_BLOCK = 2048  # re-add rows converted to alias tables at a time


def readd_tables(tb: SmallTables, q: float | None = None):
    """The re-add law of every post-drop mask m, as alias tables.

    Adding j ∉ m is accepted with probability acc(m, j): indep[m | j] for
    polarized tables (q None); for random-cluster tables (complement masks)
    1 unless the rank of the complement drops, then q.  Row m has n + 1
    re-add masses: column 0 holds the auxiliary slots (n - |m|), column
    j + 1 holds w_j·acc(m, j) (0 for j ∈ m).

    Returns (prob, alias, accepted, rej).  prob (float64) and alias (int8,
    n + 1 <= 17) are flat, entry m·(n + 1) + k for column k: Walker's alias
    tables of row m (see _alias_block), which _run_lockstep reads with one
    uniform.  accepted[m] is row m's total, the accepted mass; rej[m] sums
    w_j·(1 - acc(m, j)) over j ∉ m, exactly 0 where no proposal can be
    rejected.  The masses are built and converted _ROW_BLOCK rows at a time,
    so they never exist for all rows at once beside prob.
    """
    n = tb.n
    size, width = 1 << n, n + 1
    prob = np.empty(size * width)
    alias = np.empty(size * width, dtype=np.int8)
    accepted = np.empty(size)
    rej = np.zeros(size)
    if q is not None:
        rank_c = tb.rank[::-1]  # rank_c[m] = rank of the complement of m
    for lo in range(0, size, _ROW_BLOCK):
        rows = np.arange(lo, min(lo + _ROW_BLOCK, size), dtype=np.int64)
        mass = np.zeros((len(rows), width))
        for j in range(n):
            free = ((rows >> j) & 1) == 0
            mass[:, 0] += free  # n - |m| once every column has run
            cand = rows | (1 << j)
            if q is None:
                acc = tb.indep[cand]
            else:
                acc = np.where(rank_c[cand] < rank_c[rows], q, 1.0)
            mass[:, j + 1] = tb.weight[j] * (free * acc)
            rej[rows] += tb.weight[j] * (free * (1.0 - acc))
        accepted[rows] = mass.sum(axis=1)
        block = slice(lo * width, (lo + len(rows)) * width)
        _alias_block(mass, accepted[rows], prob[block], alias[block])
    return prob, alias, accepted, rej


def _alias_block(mass, total, prob, alias):
    """Fill prob and alias (flat) with Walker's alias tables of each row of
    `mass` (rows summing to `total`); mass is scaled in place.

    Scaled to mean 1, a row's active columns always hold some p <= 1 and some
    p >= 1 (Vose 1991); each round, per row, the smallest active column s
    keeps prob p_s and sends the rest of its 1/width share to the largest
    column l, which gives up 1 - p_s and stays active.  The last active
    column gets prob 1.  Zero-mass columns get key -1, so they leave first
    (even when rounding takes a positive column to 0), with prob 0, and are
    never the largest; the all-zero (full) row gets prob 0 throughout.
    Drawing column k uniformly and keeping it with probability prob[k], else
    taking alias[k], then picks k with probability mass[k] / total.
    """
    rows, width = mass.shape
    zero = (mass == 0.0).ravel()
    mass *= (width / np.where(total > 0.0, total, 1.0))[:, None]
    p = mass.ravel()
    prob[:] = 1.0  # what the last active column keeps
    alias.reshape(rows, width)[:] = np.arange(width)
    low = np.where(zero, -1.0, p)  # finished: +inf
    high = np.where(zero, -np.inf, p)  # finished: -inf
    base = np.arange(rows) * width
    for _ in range(width - 1):
        s = base + low.reshape(rows, width).argmin(axis=1)
        big = base + high.reshape(rows, width).argmax(axis=1)
        ps = p[s]
        prob[s] = ps
        alias[s] = big - base
        p[big] -= 1.0 - ps
        low[big] = high[big] = p[big]
        low[s] = np.inf
        high[s] = -np.inf
    np.clip(prob, 0.0, 1.0, out=prob)  # rounding may leave p_s a hair outside
    prob[zero] = 0.0


def _run_lockstep(tables, cfg: ChainConfig, count: int, start: int):
    """Advance `count` down-up chains from mask `start`; returns (masks, stats).

    `tables` is readd_tables' (prob, alias, accepted, rej).  Each step draws
    one uniform r per chain from the batch's one SFC64 stream, seeded with
    cfg.seed (chosen for speed; see the module docstring).  The drop is
    element index floor(r·n) (a set bit leaves the mask, an unset one is an
    auxiliary slot).  The re-add reuses r's fractional part:
    f = frac(r·n)·(n + 1) picks column floor(f) of the post-drop row's alias
    table and frac(f) is the coin against its prob; column k = 0 is an
    auxiliary slot and k = j + 1 element j.  That draws from the law the
    rejection loop accepts from in O(1) per chain.  r is a double with 53
    random bits, so frac(f) still resolves 2^-45 (n <= 16): the coin, and
    with it the per-step law, is off by under 1e-12 in TV.

    A rejection loop's trial count does not depend on the element it accepts:
    from post-drop mask s it is geometric with success probability
    p_s = accepted[s] / (accepted[s] + rej[s]).  Sums of independent geometric
    counts with one p are negative binomial, so the rejections of all visits
    to s are drawn at the end as one negative_binomial(visits_s, p_s).

    Memory: the tables take (n + 1)·2^n·9 bytes and each chain about 60
    bytes; a count whose per-chain arrays cannot be allocated is a
    ValidationError naming it.
    """
    prob, alias, accepted, rej = tables
    n = len(accepted).bit_length() - 1
    width = n + 1
    gen = np.random.Generator(np.random.SFC64(cfg.seed & ((1 << 64) - 1)))
    try:
        mask = np.full(count, int(start), dtype=np.int64)
        r = np.empty(count)
        col = np.empty(count, dtype=np.int64)
    except (ValueError, MemoryError):
        raise ValidationError(f"cannot allocate the per-chain arrays of {count} "
                              "lockstep chains") from None
    visits = np.zeros(1 << n, dtype=np.int64)
    ones = np.int64(1)
    # bit[k] is what column k adds: nothing for an auxiliary slot, else 1 << (k - 1)
    bit = np.concatenate(([0], ones << np.arange(n, dtype=np.int64)))
    steps = cfg.steps(n)

    for _ in range(steps):
        gen.random(out=r)
        r *= n
        np.copyto(col, r, casting="unsafe")  # the drop index floor(r·n)
        mask &= ~(ones << col)
        visits += np.bincount(mask, minlength=1 << n)
        r -= col
        r *= width  # f < width: frac(r·n) <= 1 - 2^-53, and rounding keeps it below
        np.copyto(col, r, casting="unsafe")
        r -= col  # the coin
        cell = mask * width
        cell += col
        pick = np.take(alias, cell)
        col -= pick
        col *= r < np.take(prob, cell)  # keep the column on the coin, else its alias
        col += pick
        mask |= np.take(bit, col)

    # a post-drop mask is never full, so its accepted mass is at least 1
    seen = np.flatnonzero((visits > 0) & (rej > 0.0))
    acc = accepted[seen]
    p = acc / (acc + rej[seen])
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
    return run_polarized_tables(SmallTables(spec, fields, need="polarized"), cfg, count,
                                initial_mask)


def run_polarized_tables(tb: SmallTables, cfg: ChainConfig, count: int,
                         initial_mask: int = 0):
    """run_polarized_batch on independence tables already built (or derived
    by SmallTables.minor); returns (masks, stats)."""
    initial_mask = _check_start(initial_mask, tb.n)
    if not tb.indep[initial_mask]:
        raise ValidationError("initial state must be independent")
    masks, stats = _run_lockstep(readd_tables(tb), cfg, count, initial_mask)
    if debug_asserts_enabled():
        assert tb.indep[masks].all(), "a lockstep chain left the independent sets"
    return masks, stats


def run_rc_batch(spec: MatroidSpec, fields: Fields, q: float, cfg: ChainConfig,
                 count: int, initial_mask: int | None = None):
    """Advance `count` up-down random-cluster chains in lockstep.

    Runs the down-up walk on the complements of the cluster sets.
    """
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"q must lie in [0, 1], got {q}")
    tb = SmallTables(spec, fields, need="rc")
    if initial_mask is None:
        initial_mask = 0
        if q == 0.0:  # a basis by index-order greedy: keep i iff the rank grows
            for i in range(tb.n):
                if tb.rank[initial_mask | 1 << i] > tb.rank[initial_mask]:
                    initial_mask |= 1 << i
    initial_mask = _check_start(initial_mask, tb.n)
    full = (1 << tb.n) - 1
    masks, stats = _run_lockstep(readd_tables(tb, q), cfg, count, full ^ initial_mask)
    masks ^= full
    if debug_asserts_enabled() and q == 0.0:
        assert (tb.rank[masks] == tb.rank[full]).all(), "a lockstep chain lost rank at q = 0"
    return masks, stats
