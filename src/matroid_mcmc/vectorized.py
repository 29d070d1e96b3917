"""Lockstep batch execution of many chains on small ground sets (n <= 16).

Both walks touch only bitmask state, so for small n every query the oracles
answer can be precomputed into dense tables over all 2^n subsets (popcount,
independence or rank, per-mask cumulative proposal weights).  The
independence and rank tables are filled by the same incremental oracles the
sequential chains use, walked once through all 2^n masks in Gray-code order.
A batch of chains then advances as numpy array operations: one array op per
proposal round instead of one Python call per chain step.  The transition
law per chain is identical to the sequential implementations — the rejection
loop just runs masked over the chains still pending — and is validated
against the exact kernels and the sequential chains by the test suite.  One
loop serves both laws: the random-cluster walk runs as the down-up walk on
the complements of its cluster sets, with weights 1/λ and a rank-drop test
in place of the independence test.

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
        # csum[m, i] = sum of w_j over j <= i with j outside m
        csum = np.zeros((size, n), dtype=float)
        run = np.zeros(size, dtype=float)
        for i in range(n):
            run = run + w[i] * (((masks >> i) & 1) == 0)
            csum[:, i] = run
        self.csum = csum
        self.mass = csum[:, n - 1].copy()


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


def _run_lockstep(tb: SmallTables, cfg: ChainConfig, count: int, start: int, accepts):
    """Advance `count` down-up chains from mask `start`; returns (masks, stats).

    Each step drops a uniform element index (a set bit leaves the mask, an
    unset one is an auxiliary slot), then re-adds by rejection rounds over the
    chains still pending; accepts(gen, cur, cand) says which proposed masks
    cand are taken.
    """
    n = tb.n
    gen = np.random.Generator(np.random.Philox(key=cfg.seed & ((1 << 64) - 1)))
    mask = np.full(count, int(start), dtype=np.int64)
    stats = StepStats()
    ones = np.int64(1)

    for _ in range(cfg.steps(n)):
        mask &= ~(ones << (gen.random(count) * n).astype(np.int64))
        # rejection-sampled re-add
        pending = np.arange(count, dtype=np.int64)
        while pending.size:
            rows = mask[pending]
            k = tb.popcnt[rows]
            y_mass = (n - k).astype(float)
            total = y_mass + tb.mass[rows]
            u = (1.0 - gen.random(pending.size)) * total
            is_y = u <= y_mass
            xs = pending[~is_y]
            stats.proposals += pending.size
            if xs.size:
                rowm = mask[xs]
                v = u[~is_y] - y_mass[~is_y]
                np.minimum(v, tb.mass[rowm], out=v)
                pick = (tb.csum[rowm] >= v[:, None]).argmax(axis=1)
                cand = rowm | (ones << pick)
                ok = accepts(gen, rowm, cand)
                mask[xs[ok]] = cand[ok]
                stats.rejections += int((~ok).sum())
                pending = xs[~ok]
            else:
                pending = xs
        stats.steps += count
    return mask, stats


def run_polarized_batch(spec: MatroidSpec, fields: Fields, cfg: ChainConfig,
                        count: int, initial_mask: int = 0):
    """Advance `count` down-up chains in lockstep; returns (masks, stats)."""
    tb = SmallTables(spec, fields, need="polarized")
    if not tb.indep[int(initial_mask)]:
        raise ValidationError("initial state must be independent")
    return _run_lockstep(tb, cfg, count, initial_mask,
                         lambda gen, cur, cand: tb.indep[cand])


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
    full = (1 << tb.n) - 1
    rank_c = tb.rank[::-1]  # rank_c[m] = rank of the complement of m

    def accepts(gen, cur, cand):
        # removing the element from A: taken unless rk(A) drops, then with prob. q
        coin = gen.random(cand.size)
        return (rank_c[cand] >= rank_c[cur]) | (coin < q)

    masks, stats = _run_lockstep(tb, cfg, count, full ^ int(initial_mask), accepts)
    return full ^ masks, stats
