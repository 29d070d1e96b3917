"""Network reliability: parsing, exact values, sampling laws, estimator mechanics."""

import math
import re

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    NetworkInstance,
    StepStats,
    ValidationError,
    cographic_spec,
    exact_mu,
    failure_fields,
    log_rel_exact,
    parse_graph_file,
    rel_connected_subgraph,
    rel_estimate,
    rel_exact,
    rel_sample,
    tv_distance,
)
from matroid_mcmc import matroids, reliability, vectorized
from matroid_mcmc.matroids import CONNECTED_GRAPH_RULE
from matroid_mcmc.sampling import sample_independent_sets
from matroid_mcmc.vectorized import SmallTables

from conftest import K4_EDGES, TRIANGLE_EDGES, grid_edges, masks_of
from reference import empirical_distribution

TRI = NetworkInstance(3, list(TRIANGLE_EDGES), 0.5)
K4 = NetworkInstance(4, list(K4_EDGES), 0.5)


# ---------------------------------------------------------------------------
# parsing


def _write(tmp_path, text):
    p = tmp_path / "g.txt"
    p.write_text(text)
    return str(p)


def test_parse_round_trip(tmp_path):
    path = _write(tmp_path, "3 3\n0 1 0.5\n1 2 0.25\n0 2 0.75\n")
    inst = parse_graph_file(path)
    assert inst.vertices == 3
    assert inst.edges == [(0, 1), (1, 2), (0, 2)]
    assert inst.p == [0.5, 0.25, 0.75]


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("3\n", 1),
    ("x y\n", 1),
    ("0 1\n", 1),
    ("2 1\n0 1\n", 2),
    ("2 1\n0 1 zebra\n", 2),
    ("2 1\n0 2 0.5\n", 2),
    ("2 1\n0 1 0.0\n", 2),
    ("2 1\n0 1 1.0\n", 2),
    ("2 1\n0 1 nan\n", 2),
    ("2 2\n0 1 0.5\n", 3),           # missing edge line
    ("2 1\n0 1 0.5\ntrailing\n", 3),  # junk after the edges
])
def test_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = _write(tmp_path, text)
    with pytest.raises(ValidationError) as exc:
        parse_graph_file(path)
    assert f":{line}:" in str(exc.value)


def test_parse_fuzz_never_crashes(tmp_path):
    rng = np.random.default_rng(0)
    base = "3 3\n0 1 0.5\n1 2 0.25\n0 2 0.75\n"
    alphabet = "0123456789. \n-+eXnaqz"
    for trial in range(300):
        chars = list(base)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(len(chars)))
            chars[pos] = alphabet[int(rng.integers(len(alphabet)))]
        path = _write(tmp_path, "".join(chars))
        try:
            inst = parse_graph_file(path)
            assert inst.vertices >= 1
        except ValidationError:
            pass  # rejection is fine; crashing is not


def test_instance_validation():
    with pytest.raises(ValidationError):
        NetworkInstance(0, [], [])
    with pytest.raises(ValidationError):
        NetworkInstance(2, [(0, 5)], [0.5])
    with pytest.raises(ValidationError):
        NetworkInstance(2, [(0, 1)], [1.5])
    with pytest.raises(ValidationError):
        cographic_spec(NetworkInstance(3, [(0, 1)], [0.5]))  # disconnected
    with pytest.raises(ValidationError):
        cographic_spec(NetworkInstance(2, [(0.0, 1.0)], [0.5]))
    spec = cographic_spec(NetworkInstance(2, [(np.int64(0), np.int64(1))], [0.5]))
    assert spec.edges == [(0, 1)] and type(spec.edges[0][0]) is int


@pytest.mark.parametrize("vertices", [2.5, 2.0, "2", None])
def test_instance_vertex_count_must_be_an_integer(vertices):
    with pytest.raises(ValidationError, match="vertex count and edge endpoints must be integers"):
        NetworkInstance(vertices, [(0, 1)], [0.5])
    inst = NetworkInstance(np.int64(2), [(0, 1)], [0.5])
    assert inst.vertices == 2 and type(inst.vertices) is int


@pytest.mark.parametrize("edges,p,idx,rule", [
    ([(0, 1), (0, 2)], [0.5, 0.5], 1, "vertex ids must lie in [0, 2)"),
    ([(0, 1), (1, 0)], [0.5, 1.0], 1, "failure probability must lie in (0, 1), got 1.0"),
], ids=["endpoint", "probability"])
def test_edge_rules_are_stated_once(tmp_path, edges, p, idx, rule):
    """The endpoint and probability rules live in NetworkInstance; a parsed
    file reports the same rule at the edge's line (edge idx on line idx + 2)."""
    with pytest.raises(ValidationError) as exc:
        NetworkInstance(2, edges, p)
    assert str(exc.value) == f"edge {idx}: {rule}"
    text = f"2 {len(edges)}\n" + "".join(f"{u} {v} {pe}\n" for (u, v), pe in zip(edges, p))
    path = _write(tmp_path, text)
    with pytest.raises(ValidationError) as exc:
        parse_graph_file(path)
    assert str(exc.value) == f"{path}:{idx + 2}: {rule}"


@pytest.mark.parametrize("n", [0, -3])
def test_vertex_rule_is_stated_once(tmp_path, n):
    """NetworkInstance owns the n >= 1 rule; a parsed file reports the same
    rule at its header, before any edge line is read (this file has none)."""
    with pytest.raises(ValidationError) as exc:
        NetworkInstance(n, [], [])
    rule = str(exc.value)
    assert rule == f"need n >= 1 vertices, got {n}"
    path = _write(tmp_path, f"{n} 1\n")
    with pytest.raises(ValidationError) as exc:
        parse_graph_file(path)
    assert str(exc.value) == f"{path}:1: {rule}"


# ---------------------------------------------------------------------------
# exact reliability


def test_rel_exact_frozen_values():
    assert rel_exact(NetworkInstance(2, [(0, 1)], 0.3)) == pytest.approx(0.7)
    assert rel_exact(TRI) == pytest.approx(0.5)
    assert rel_exact(K4) == pytest.approx(38 / 64)


def test_rel_exact_with_self_loop():
    inst = NetworkInstance(2, [(0, 1), (1, 1)], [0.3, 0.9])
    assert rel_exact(inst) == pytest.approx(0.7)  # the loop never matters


def test_rel_exact_log_space_below_float_range():
    # a path survives only if no edge fails: log Z = Σ log(1 - p_e), here
    # about -774, so Z itself is below the smallest float
    p = [1 - 10.0 ** -(15 - i % 3) for i in range(24)]
    inst = NetworkInstance(25, [(i, i + 1) for i in range(24)], p)
    want = sum(math.log1p(-pe) for pe in p)
    assert math.exp(want) == 0.0
    assert log_rel_exact(inst) == pytest.approx(want, rel=1e-12)
    assert log_rel_exact(K4) == pytest.approx(math.log(38 / 64), abs=1e-12)
    assert log_rel_exact(NetworkInstance(3, [(0, 1)], 0.5)) == -math.inf


def test_rel_exact_size_guard():
    from matroid_mcmc import SizeLimitError
    edges = [(0, 1)] * 25
    with pytest.raises(SizeLimitError):
        rel_exact(NetworkInstance(2, edges, [0.5] * 25))


def test_rel_exact_checks_only_what_subsets_kept_connected(monkeypatch):
    """On the 2x5 grid (13 edges) the exact walk asks 798 connectivity
    checks: one of the whole graph, and the table fill's 797 (one per
    connected failure set but the empty one, and one per rejected edge).
    The value matches a plain sum over all 2^13 failure sets."""
    calls = [0]
    check = NetworkInstance.is_connected

    def counted(inst, failed_mask=0):
        calls[0] += 1
        return check(inst, failed_mask)

    monkeypatch.setattr(NetworkInstance, "is_connected", counted)
    p = [0.1 + 0.06 * i for i in range(13)]
    inst = NetworkInstance(10, [tuple(e) for e in grid_edges(2, 5)], p)
    z = rel_exact(inst)
    assert calls[0] == 798
    want = math.fsum(
        math.prod(p[i] if mask >> i & 1 else 1 - p[i] for i in range(13))
        for mask in range(1 << 13) if check(inst, mask))
    assert z == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling laws


def test_failure_fields_values():
    inst = NetworkInstance(3, list(TRIANGLE_EDGES), [0.75, 0.25, 0.25])
    f = failure_fields(inst)
    assert f.lam == pytest.approx([3.0, 1 / 3, 1 / 3])


def test_rel_sample_single_edge_always_empty():
    inst = NetworkInstance(2, [(0, 1)], 0.4)
    for seed in range(5):
        assert rel_sample(inst, 0.2, seed=seed) == []
        assert rel_connected_subgraph(inst, 0.2, seed=seed) == [0]


def test_rel_sample_triangle_uniform_law():
    spec = cographic_spec(TRI)
    fields = failure_fields(TRI)
    cfg = ChainConfig(epsilon=0.05, seed=77)
    samples, _ = sample_independent_sets(spec, fields, cfg, 40_000)
    emp = empirical_distribution(masks_of(samples))
    exact = exact_mu(spec, fields)
    assert tv_distance(emp, exact) <= 0.02


def test_rel_sample_weighted_triangle_law():
    # p = (3/4, 1/4, 1/4)  =>  lambda = (3, 1/3, 1/3); mass ratio 1 : 3 : 1/3 : 1/3
    inst = NetworkInstance(3, list(TRIANGLE_EDGES), [0.75, 0.25, 0.25])
    exact = exact_mu(cographic_spec(inst), failure_fields(inst))
    want = {0b000: 3 / 14, 0b001: 9 / 14, 0b010: 1 / 14, 0b100: 1 / 14}
    for m, p in want.items():
        assert exact.prob_of(m) == pytest.approx(p, rel=1e-12)
    cfg = ChainConfig(epsilon=0.05, seed=3)
    samples, _ = sample_independent_sets(cographic_spec(inst), failure_fields(inst),
                                         cfg, 40_000)
    assert tv_distance(empirical_distribution(masks_of(samples)), exact) <= 0.02


def test_connected_subgraph_is_complement():
    got = rel_connected_subgraph(TRI, 0.1, seed=11)
    fail = rel_sample(TRI, 0.1, seed=11)
    assert sorted(got + fail) == [0, 1, 2]


# ---------------------------------------------------------------------------
# estimator


def test_estimate_single_edge_exact():
    est = rel_estimate(NetworkInstance(2, [(0, 1)], 0.3), 0.1, 0.05, seed=0)
    assert est.z_hat == pytest.approx(0.7, abs=1e-12)
    assert len(est.trace) == 1
    assert est.trace[0]["branch"] == "contract"


def test_estimate_checks_connectivity_once(monkeypatch):
    """The first level's spec is the one connectivity check of an estimate on
    the lockstep path; later levels take their tables from the first (the
    debug guard, off here, checks them against fresh builds)."""
    monkeypatch.delenv("MATROID_MCMC_DEBUG_ASSERTS", raising=False)
    calls = []
    check = matroids.edges_connected

    def spy(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(matroids, "edges_connected", spy)
    monkeypatch.setattr(reliability, "edges_connected", spy)
    rel_estimate(TRI, 0.5, 0.5, seed=1, c0=0.5)
    assert len(calls) == 1


@pytest.mark.parametrize("vertices,edges,z", [
    (1, [], 1.0), (2, [], None), (1, [(0, 0), (0, 0)], 1.0), (2, [(0, 0), (1, 1)], None),
], ids=["edgeless", "edgeless-split", "loops", "loops-split"])
def test_estimate_on_graphs_without_a_proper_edge(vertices, edges, z):
    """With no edge to sample, the estimate is exact: Z = 1 on one vertex, and
    more vertices are disconnected."""
    inst = NetworkInstance(vertices, edges, [0.5] * len(edges))
    if z is None:
        with pytest.raises(ValidationError, match=re.escape(CONNECTED_GRAPH_RULE)):
            rel_estimate(inst, 0.5, 0.5, seed=1)
        return
    est = rel_estimate(inst, 0.5, 0.5, seed=1)
    assert (est.z_hat, est.chain_steps) == (z, 0)
    assert [t["branch"] for t in est.trace] == ["loop"] * len(edges)


@pytest.mark.parametrize("c0", [math.nan, math.inf, 0.0, -1.0])
def test_estimate_rejects_bad_c0(c0):
    with pytest.raises(ValidationError, match="c0"):
        rel_estimate(TRI, 0.1, 0.05, seed=0, c0=c0)


@pytest.mark.parametrize("eps, delta, c0", [(1e-200, 0.05, 8.0), (0.1, 1e-320, 8.0),
                                            (0.1, 0.05, 1e308)])
def test_estimate_rejects_uncountable_sample_size(eps, delta, c0):
    with pytest.raises(ValidationError, match="more samples"):
        rel_estimate(TRI, eps, delta, seed=0, c0=c0)


def test_estimate_trace_invariants():
    est = rel_estimate(K4, 0.2, 0.2, seed=4, c0=1.0)
    assert len(est.trace) == K4.m
    assert 0.0 < est.z_hat <= 1.0
    for entry in est.trace:
        assert entry["branch"] in ("delete", "contract", "loop")
        if entry["branch"] == "loop":
            assert entry["marginal"] is None


def test_estimate_triangle_within_tolerance():
    for seed in (0, 1, 2):
        est = rel_estimate(TRI, 0.1, 0.05, seed=seed)
        assert 1 / 1.15 <= est.z_hat / 0.5 <= 1.15, (seed, est.z_hat)


def test_estimate_deterministic():
    a = rel_estimate(TRI, 0.15, 0.1, seed=9)
    b = rel_estimate(TRI, 0.15, 0.1, seed=9)
    assert a.z_hat == b.z_hat
    assert a.trace == b.trace


def test_bridges_always_contract():
    # every edge of a path is a bridge: the failed-set marginal is exactly 0,
    # so the deletion branch must never fire regardless of p
    inst = NetworkInstance(4, [(0, 1), (1, 2), (2, 3)], 0.9)
    est = rel_estimate(inst, 0.3, 0.3, seed=2, c0=0.5)
    assert [t["branch"] for t in est.trace] == ["contract"] * 3
    want = (1 - 0.9) ** 3
    assert est.z_hat == pytest.approx(want, abs=1e-12)
    assert est.log_z_hat == pytest.approx(math.log(want), abs=1e-12)


@pytest.mark.parametrize("inst, branches, pinned", [
    # contract, then the second copy is a loop
    (NetworkInstance(2, [(0, 1), (0, 1)], [0.01, 0.5]), ["contract", "loop"],
     {1: (185, -0.010050335853501442), 2: (185, 0.0)}),
    # three contractions that each merge a higher label into a lower one
    # (3 into 2, then 2 into 0, then 1 into 0), then four loops
    (NetworkInstance(4, [(2, 3), (0, 3), (1, 2), (0, 1), (1, 3), (0, 2), (3, 3)], 0.3),
     ["contract"] * 3 + ["loop"] * 4,
     {1: (2595, -0.08367905490741306), 2: (2595, -0.12649220195603023)}),
])
def test_estimate_pinned_through_contractions(inst, branches, pinned):
    """The estimator's exact output on minors built by contraction, and its
    accuracy there."""
    for seed, (used, log_z) in pinned.items():
        est = rel_estimate(inst, 0.2, 0.1, seed, c0=1.0)
        assert [t["branch"] for t in est.trace] == branches
        assert (est.samples_used, est.log_z_hat) == (used, log_z)
        assert abs(est.log_z_hat - log_rel_exact(inst)) <= math.log(1.2)

def test_telescoping_identity_with_exact_marginals():
    """Replace sampled marginals by exact ones: the product telescopes to Z."""
    for inst in (TRI, K4, NetworkInstance(3, list(TRIANGLE_EDGES), [0.75, 0.25, 0.25])):
        z = 1.0
        cur = inst
        while cur.m:
            exact = exact_mu(cographic_spec(cur), failure_fields(cur))
            # marginal of edge 0 failing
            q0 = sum(exact.prob_of(m) for m in exact.support if m & 1)
            pe = cur.p[0]
            u, v = cur.edges[0]
            rest = list(range(1, cur.m))
            if q0 >= 0.5:
                z *= pe / q0
                edges = [cur.edges[i] for i in rest]
                cur = NetworkInstance(cur.vertices, edges, [cur.p[i] for i in rest])
            else:
                z *= (1 - pe) / (1 - q0)
                # contract: relabel v as u, keep the rest
                def squash(w):
                    w = u if w == v else w
                    return w - 1 if w > v else w
                edges = [(squash(a), squash(b)) for a, b in
                         (cur.edges[i] for i in rest)]
                cur = NetworkInstance(cur.vertices - 1, edges,
                                      [cur.p[i] for i in rest])
            # drop self-loops created by the contraction
            keep = [i for i, (a, b) in enumerate(cur.edges) if a != b]
            cur = NetworkInstance(cur.vertices, [cur.edges[i] for i in keep],
                                  [cur.p[i] for i in keep])
        assert z == pytest.approx(rel_exact(inst), abs=1e-10)


# ---------------------------------------------------------------------------
# one table per estimate: every level's tables derived from the first


class _ForcedBranches:
    """Stands in for both samplers of rel_estimate.

    It forces each sampled level's branch (delete when choose(i) says so and
    the edge is no bridge, else contract) and checks the tables handed to the
    lockstep runner against a fresh SmallTables of the level's minor, which it
    builds by its own deletions and contractions.
    """

    def __init__(self, inst, choose):
        self.m = inst.m
        self.cur = inst
        self.pos = 0  # self.cur is the graph of level self.pos
        self.choose = choose
        self.made = []  # (level, deletable, deleted) per sampled level
        self.tables_checked = 0

    def _advance(self, k):
        while self.pos < k:  # the estimator skipped these levels: loops
            (u, v), cur = self.cur.edges[0], self.cur
            assert u == v, f"level {self.pos} was skipped but is no loop"
            self.cur = NetworkInstance(cur.vertices, cur.edges[1:], cur.p[1:])
            self.pos += 1

    def _decide(self, k):
        cur = self.cur
        deletable = cur.is_connected(1)
        delete = deletable and self.choose(len(self.made))
        self.made.append((k, deletable, delete))
        if delete:
            self.cur = NetworkInstance(cur.vertices, cur.edges[1:], cur.p[1:])
        else:
            u, v = cur.edges[0]

            def squash(w):
                w = u if w == v else w
                return w - (w > v)

            self.cur = NetworkInstance(cur.vertices - 1,
                                       [(squash(a), squash(b)) for a, b in cur.edges[1:]],
                                       cur.p[1:])
        self.pos = k + 1
        return delete

    def lockstep(self, tb, cfg, count, initial_mask=0, *, rejections=True):
        assert not rejections, "an estimator level asked for rejection counts"
        k = self.m - tb.n
        self._advance(k)
        fresh = SmallTables(cographic_spec(self.cur), failure_fields(self.cur), "polarized")
        for name in ("indep", "weight"):
            assert np.array_equal(getattr(tb, name), getattr(fresh, name)), (k, name)
        self.tables_checked += 1
        delete = self._decide(k)
        return np.full(count, int(delete), dtype=np.int64), count * cfg.steps(tb.n)

    def sequential(self, spec, fields, cfg, count):
        k = self.m - spec.n
        self._advance(k)
        delete = self._decide(k)
        return [[0] if delete else [] for _ in range(count)], StepStats(
            steps=count * cfg.steps(spec.n))


# the 3x4 grid (17 edges) with a second copy of edge (0, 4) in front: levels
# 0 and 1 run sequential chains, level 2 is the first on the lockstep path
GRID_18 = NetworkInstance(
    12, [(0, 4)] + [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
    + [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)], 0.4)


def _forced_estimate(monkeypatch, inst, choose):
    forced = _ForcedBranches(inst, choose)
    monkeypatch.setattr(vectorized, "run_polarized_tables", forced.lockstep)
    monkeypatch.setattr(reliability, "sample_independent_sets", forced.sequential)
    est = rel_estimate(inst, 0.5, 0.5, seed=0, c0=0.01)
    sampled = [t["branch"] for t in est.trace if t["branch"] != "loop"]
    assert sampled == ["delete" if d else "contract" for _, _, d in forced.made]
    return forced


def _random_multigraph(rng, m):
    """A connected multigraph on m edges with a parallel pair and a self-loop."""
    n = int(rng.integers(2, 6))
    edges = [(i, int(rng.integers(i))) for i in range(1, n)]
    edges += [edges[0], (int(rng.integers(n)),) * 2]
    while len(edges) < m:
        edges.append((int(rng.integers(n)), int(rng.integers(n))))
    order = rng.permutation(len(edges))
    return NetworkInstance(n, [edges[i] for i in order],
                           [float(x) for x in rng.uniform(0.05, 0.95, len(edges))])


@pytest.mark.parametrize("seed", range(5))
def test_derived_tables_match_every_branch_sequence(monkeypatch, seed):
    """On m <= 8 every level runs on the lockstep path: each level's derived
    tables equal a fresh build of its minor, under every sequence of branches."""
    rng = np.random.default_rng(seed)
    inst = _random_multigraph(rng, int(rng.integers(6, 9)))
    todo, seen = [[]], 0
    while todo:
        prefix = todo.pop()
        forced = _forced_estimate(
            monkeypatch, inst, lambda i, prefix=prefix: i < len(prefix) and prefix[i])
        made = [d for _, _, d in forced.made]
        assert made[:len(prefix)] == prefix
        assert forced.tables_checked == len(forced.made)
        # branch off wherever this run contracted an edge it could delete
        todo += [made[:i] + [True] for i in range(len(prefix), len(made))
                 if forced.made[i][1]]
        seen += 1
    assert seen > 1


def test_derived_tables_first_built_at_level_two(monkeypatch):
    """m = 18: levels 0 and 1 run sequential chains, and the one table build is
    level 2's; every later level's tables are derived from it."""
    inst = GRID_18
    monkeypatch.delenv("MATROID_MCMC_DEBUG_ASSERTS", raising=False)  # its guard builds too
    built = []
    real = vectorized.SmallTables

    def counting(spec, fields, need):
        built.append(spec.n)
        tb = real(spec, fields, need)
        for contract in (False, True):  # a minor's tables are views of these
            assert np.shares_memory(tb.minor(contract).indep, tb.indep)
        return tb

    monkeypatch.setattr(vectorized, "SmallTables", counting)
    for choose, deletes in ((lambda i: False, False), (lambda i: True, True),
                            (lambda i: i % 2 == 1, True)):
        built.clear()
        forced = _forced_estimate(monkeypatch, inst, choose)
        assert built == [16]
        assert [k for k, _, _ in forced.made][:3] == [0, 1, 2]
        assert forced.tables_checked == len(forced.made) - 2
        assert any(d for k, _, d in forced.made if k > 2) == deletes


def test_estimate_pinned_on_the_mixed_path():
    """GRID_18's exact output at seed 1: levels 0 and 1 run sequential
    chains, every later level runs on tables sliced from level 2's."""
    est = rel_estimate(GRID_18, 0.5, 0.5, seed=1, c0=0.01)
    assert (est.samples_used, est.chain_steps, est.log_z_hat) == (
        56, 20_136, -5.137784225561402)


def test_debug_guard_checks_derived_tables(monkeypatch):
    """With MATROID_MCMC_DEBUG_ASSERTS=1 rel_estimate compares each level's
    derived tables with a fresh build of its minor."""
    inst = NetworkInstance(3, [(0, 1), (1, 2), (0, 1), (2, 2), (0, 2), (1, 2)], 0.6)
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    rel_estimate(inst, 0.3, 0.3, seed=1, c0=0.5)
    real = SmallTables.minor

    def corrupt(self, contract):
        tb = real(self, contract)
        tb.indep = tb.indep.copy()  # the minor is a view of the tables it came from
        tb.indep[-1] = not tb.indep[-1]  # the last level's minor has one entry
        return tb

    monkeypatch.setattr(SmallTables, "minor", corrupt)
    with pytest.raises(AssertionError, match="derived indep"):
        rel_estimate(inst, 0.3, 0.3, seed=1, c0=0.5)
    monkeypatch.delenv("MATROID_MCMC_DEBUG_ASSERTS")
    rel_estimate(inst, 0.3, 0.3, seed=1, c0=0.5)  # off: no comparison


@pytest.mark.parametrize("inst, c0", [
    (K4, 0.5),
    (NetworkInstance(3, [(0, 1), (1, 2), (0, 1), (2, 2), (0, 2)], 0.5), 0.5),
    (GRID_18, 0.02),
])
def test_estimate_counts_its_chain_steps(inst, c0):
    est = rel_estimate(inst, 0.3, 0.3, seed=3, c0=c0)
    sampled = [k for k, t in enumerate(est.trace) if t["branch"] != "loop"]
    n = est.samples_used // len(sampled)
    cfg = ChainConfig(epsilon=0.3 / (8 * inst.m))
    assert est.chain_steps == sum(n * cfg.steps(inst.m - k) for k in sampled)
    assert est.as_json_dict()["chain_steps"] == est.chain_steps


def test_lockstep_levels_draw_no_rejection_counts(monkeypatch):
    """A lockstep level is read for its masks and its step count only, so it
    counts no visits and draws no negative binomial.  A sampling batch on the
    same tables does both under the same spies, so the spies see the runner."""
    drawn, counted = [], []

    class SpyGenerator(np.random.Generator):
        def negative_binomial(self, *args, **kwargs):
            drawn.append(args)
            return super().negative_binomial(*args, **kwargs)

    bincount = np.bincount

    def spy_bincount(*args, **kwargs):
        counted.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", SpyGenerator)
    monkeypatch.setattr(np, "bincount", spy_bincount)
    est = rel_estimate(K4, 0.5, 0.5, seed=1, c0=0.5)
    assert est.chain_steps > 0 and est.trace[0]["branch"] != "loop"
    assert drawn == [] and counted == []
    masks, stats = vectorized.run_polarized_batch(
        cographic_spec(K4), failure_fields(K4), ChainConfig(seed=1, step_override=3), 8)
    assert len(drawn) == 1 and len(counted) == 3
    assert stats.steps == 24 and stats.proposals == 24 + stats.rejections
