"""Connected-spanning-subgraph sampling and all-terminal reliability.

The failed-edge law of a network with independent edge failures is the
weighted independent-set law of the graph's co-graphic matroid with
λ_e = p_e / (1 - p_e): a failure set is feasible iff the surviving edges
still span.  Reliability Z (the probability the network stays connected) is
estimated by deletion/contraction self-reducibility: each level estimates
the failure marginal of one edge from fresh chain samples and multiplies
the corresponding telescoping factor, in log space so that a Z below
float range still has a finite log.  The levels with at most 16 edges left
run as lockstep batches on one independence table per estimate: it is built
at the first of them, and each later level's table is a slice of it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import vectorized
from .config import ChainConfig, debug_asserts_enabled
from .errors import SizeLimitError, ValidationError
from .matroids import Fields, MatroidSpec, edges_connected
from .rng import derive_seed
from .sampling import execution_path, sample_independent_sets

REL_EXACT_MAX_EDGES = 24
DEFAULT_C0 = 8.0


class EdgeRuleError(ValidationError):
    """Edge `edge` of a NetworkInstance breaks `rule` (a message without the index)."""

    def __init__(self, edge: int, rule: str):
        super().__init__(f"edge {edge}: {rule}")
        self.edge, self.rule = edge, rule


@dataclass
class NetworkInstance:
    vertices: int
    edges: list[tuple[int, int]]
    p: list[float]

    def __post_init__(self):
        try:
            self.vertices = operator.index(self.vertices)
            self.edges = [(operator.index(u), operator.index(v)) for u, v in self.edges]
        except TypeError:
            raise ValidationError("vertex count and edge endpoints must be integers") from None
        if self.vertices < 1:
            raise ValidationError("graph needs at least one vertex")
        if isinstance(self.p, (int, float)):
            self.p = [float(self.p)] * len(self.edges)
        if len(self.p) != len(self.edges):
            raise ValidationError("need one failure probability per edge")
        for idx, ((u, v), pe) in enumerate(zip(self.edges, self.p)):
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise EdgeRuleError(idx, f"vertex ids must lie in [0, {self.vertices})")
            if not (0.0 < pe < 1.0):
                raise EdgeRuleError(idx, f"failure probability must lie in (0, 1), got {pe}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_connected(self, failed_mask: int = 0) -> bool:
        """Whether the edges outside failed_mask span all the vertices."""
        return edges_connected(self.vertices, [e for i, e in enumerate(self.edges)
                                               if not failed_mask >> i & 1])

    def require_connected(self) -> None:
        if not self.is_connected():
            raise ValidationError("graph must be connected (reliability law undefined otherwise)")


@dataclass
class ReliabilityEstimate:
    z_hat: float
    log_z_hat: float  # finite where z_hat underflows to 0.0
    rel_err_target: float
    delta: float  # the failure probability as the caller passed it
    samples_used: int
    chain_steps: int  # chain steps run over all levels
    trace: list[dict] = field(default_factory=list)

    def as_json_dict(self) -> dict:
        return {
            "z_hat": self.z_hat,
            "log_z_hat": self.log_z_hat,
            "eps": self.rel_err_target,
            "delta": self.delta,
            "samples_used": self.samples_used,
            "chain_steps": self.chain_steps,
            "trace": self.trace,
        }


def parse_graph_file(path: str) -> NetworkInstance:
    """Text format: header "n m", then m lines "u v p" (0-based vertices)."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValidationError(f"{path}:1: empty file, expected 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError(f"{path}:1: header must be two integers 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValidationError(f"{path}:1: header must be two integers 'n m'") from None
    if n < 1 or m < 0:
        raise ValidationError(f"{path}:1: need n >= 1 vertices and m >= 0 edges")
    edges: list[tuple[int, int]] = []
    p: list[float] = []
    for ln in range(1, 1 + m):
        if ln >= len(lines):
            raise ValidationError(f"{path}:{ln + 1}: expected {m} edge lines, file ended early")
        parts = lines[ln].split()
        if len(parts) != 3:
            raise ValidationError(f"{path}:{ln + 1}: edge line must be 'u v p'")
        try:
            u, v = int(parts[0]), int(parts[1])
            pe = float(parts[2])
        except ValueError:
            raise ValidationError(f"{path}:{ln + 1}: edge line must be 'u v p'") from None
        edges.append((u, v))
        p.append(pe)
    for ln in range(1 + m, len(lines)):
        if lines[ln].strip():
            raise ValidationError(f"{path}:{ln + 1}: unexpected content after {m} edge lines")
    try:
        return NetworkInstance(n, edges, p)
    except EdgeRuleError as e:  # edge idx is on line idx + 2
        raise ValidationError(f"{path}:{e.edge + 2}: {e.rule}") from None


def failure_fields(inst: NetworkInstance) -> Fields:
    return Fields([pe / (1.0 - pe) for pe in inst.p])


def cographic_spec(inst: NetworkInstance) -> MatroidSpec:
    if not inst.edges and inst.vertices == 1:
        raise ValidationError("graph has no edges: one vertex leaves no edge set to sample")
    inst.require_connected()
    return MatroidSpec("cographic", n_elements=inst.m, edges=inst.edges,
                       vertices=inst.vertices)


def rel_sample(inst: NetworkInstance, eps: float, seed: int) -> list[int]:
    """One approximate sample of the failed-edge set (TV <= eps from exact)."""
    spec = cographic_spec(inst)
    cfg = ChainConfig(epsilon=eps, seed=seed)
    samples, _ = sample_independent_sets(spec, failure_fields(inst), cfg, 1)
    out = samples[0]
    if debug_asserts_enabled():
        mask = 0
        for i in out:
            mask |= 1 << i
        assert inst.is_connected(mask), "sampled failure set disconnects the graph"
    return out


def rel_connected_subgraph(inst: NetworkInstance, eps: float,
                           seed: int) -> list[int]:
    """One approximate connected spanning subgraph (surviving edge indices)."""
    failed = set(rel_sample(inst, eps, seed))
    return [i for i in range(inst.m) if i not in failed]


def rel_exact(inst: NetworkInstance) -> float:
    """Exact reliability, exp(log_rel_exact); 0.0 below float range."""
    return math.exp(log_rel_exact(inst))


def log_rel_exact(inst: NetworkInstance) -> float:
    """log of the exact reliability, summed in log space (-inf if disconnected).

    Enumerates the failure sets that keep the graph connected, each once, by
    extending a set only with edges above its largest one and pruning any
    extension that disconnects (its supersets disconnect too), so no more
    than 2^m sets are checked.  A set's log weight is Σ log p_e over its
    edges plus Σ log(1 - p_e) over the rest; the weights are summed as
    exp(w - top) against the largest w so far, so nothing underflows.
    """
    if inst.m > REL_EXACT_MAX_EDGES:
        raise SizeLimitError(f"exact reliability enumerates 2^m subsets; m <= {REL_EXACT_MAX_EDGES}")
    if not inst.is_connected():
        return -math.inf
    log_keep = [math.log1p(-pe) for pe in inst.p]
    log_odds = [math.log(pe) - lk for pe, lk in zip(inst.p, log_keep)]
    top = -math.inf
    acc = 0.0  # Σ exp(w - top) over the sets so far
    stack = [(0, 0, math.fsum(log_keep))]  # (failure mask, next edge, log weight)
    while stack:
        mask, start, w = stack.pop()
        if w > top:
            acc = acc * math.exp(top - w) + 1.0
            top = w
        else:
            acc += math.exp(w - top)
        for i in range(start, inst.m):
            sup = mask | 1 << i
            if inst.is_connected(sup):
                stack.append((sup, i + 1, w + log_odds[i]))
    return top + math.log(acc)


def rel_estimate(inst: NetworkInstance, eps: float, delta: float, seed: int,
                 c0: float = DEFAULT_C0) -> ReliabilityEstimate:
    """Estimate reliability within relative error eps at confidence 1 - delta.

    Processes edges in input order.  Each level estimates the failure
    marginal q of the next edge from N fresh chain samples and applies the
    matching identity: failure-likely edges (q >= 1/2) are deleted with
    factor p/q (a bridge never reaches this branch: its failure marginal is
    exactly 0), others are contracted with factor (1-p)/(1-q).  Contractions
    keep parallel edges; self-loops carry factor 1 and are dropped.

    A level with more than 16 edges left runs one sequential chain per
    sample.  The others run as one lockstep batch each, on the cographic
    tables built at the first of them; each level after that takes the
    tables of its minor (see _next_level), with no oracle call.  q is read
    off the batch's masks.  The result carries the chain steps run
    (chain_steps).
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"eps must lie in (0,1), got {eps}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0,1), got {delta}")
    if not (0.0 < c0 < math.inf):
        raise ValidationError(f"c0 must be finite and > 0, got {c0}")
    inst.require_connected()
    m0 = inst.m
    if m0 == 0:
        return ReliabilityEstimate(1.0, 0.0, eps, delta, 0, 0, [])
    try:
        n_samples = math.ceil(c0 * m0 * math.log(2 * m0 / delta) / (eps * eps))
    except (OverflowError, ZeroDivisionError):
        raise ValidationError("eps, delta and c0 ask for more samples per level "
                              "than a float can count") from None
    sampler_eps = eps / (8.0 * m0)

    debug = debug_asserts_enabled()
    cur, tb = inst, None  # the level's graph, and its tables once on the lockstep path
    log_z = 0.0
    trace: list[dict] = []
    steps = level = 0
    for k in range(m0):
        (u, v), pe = cur.edges[0], cur.p[0]
        if u == v:
            # contracted into a self-loop: its failure never matters
            trace.append({"edge": k, "branch": "loop", "marginal": None})
            cur, tb = _next_level(cur, tb, delete=True)
            continue
        lvl_cfg = ChainConfig(epsilon=sampler_eps, seed=derive_seed(seed, level))
        # the edge under study is element 0 of the level's ground set
        if tb is None and execution_path(cur.m) == "sequential":
            samples, stats = sample_independent_sets(
                cographic_spec(cur), failure_fields(cur), lvl_cfg, n_samples)
            failed = sum(1 for s in samples if s and s[0] == 0)
        else:
            if tb is None:
                tb = vectorized.SmallTables(cographic_spec(cur), failure_fields(cur),
                                            "polarized")
            elif debug:
                fresh = vectorized.SmallTables(cographic_spec(cur), failure_fields(cur),
                                               "polarized")
                for name in ("indep", "weight"):
                    assert np.array_equal(getattr(tb, name), getattr(fresh, name)), \
                        f"level {k}: the derived {name} table differs from a fresh build"
            masks, stats = vectorized.run_polarized_tables(tb, lvl_cfg, n_samples)
            failed = int(np.count_nonzero(masks & 1))
        steps += stats.steps
        q_hat = failed / n_samples
        delete = q_hat >= 0.5
        if delete:
            log_z += math.log(pe / q_hat)
        else:
            log_z += math.log1p(-pe) - math.log1p(-q_hat)
        trace.append({"edge": k, "branch": "delete" if delete else "contract",
                      "marginal": q_hat})
        cur, tb = _next_level(cur, tb, delete)
        level += 1
    log_z = min(log_z, 0.0)
    return ReliabilityEstimate(math.exp(log_z), log_z, eps, delta,
                               level * n_samples, steps, trace)


def _next_level(cur: NetworkInstance, tb: vectorized.SmallTables | None, delete: bool):
    """The level after edge 0 of cur: G \\ e (delete) or G / e, and its tables.

    Contraction merges the higher end of e into the lower one and closes the
    gap.  M*(G \\ e) = M*(G) / e and M*(G / e) = M*(G) \\ e, so the tables are
    tb.minor(delete); a deleted e is no bridge, so it is independent in M*(G).
    A self-loop is deleted: it is a coloop of M*(G), so both minors agree.
    """
    rest = cur.edges[1:]
    if not delete:
        a, b = sorted(cur.edges[0])
        rest = [tuple(a if x == b else x - (x > b) for x in e) for e in rest]
    nxt = NetworkInstance(cur.vertices - (not delete), rest, cur.p[1:])
    return nxt, None if tb is None else tb.minor(delete)
