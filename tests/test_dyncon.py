"""Dynamic connectivity: contract examples, round-trips, and differential runs."""

import itertools
import time

import numpy as np
import pytest

from matroid_mcmc import ContractError, ValidationError, dyn_graph, dyncon, tours

from conftest import check_tour_order, grid_edges

HDT_GROWTH_OPS = 40_000


@pytest.fixture(params=["naive", "hdt"])
def backend(request):
    return request.param


def test_insert_connects(backend):
    g = dyn_graph(2, backend=backend)
    assert g.component_count() == 2
    g.insert_edge(0, 0, 1)
    assert g.component_count() == 1
    assert g.connected(0, 1)


def test_self_loop_neutral(backend):
    g = dyn_graph(3, backend=backend)
    g.insert_edge(7, 1, 1)
    assert g.component_count() == 3
    g.delete_edge(7)
    assert g.component_count() == 3


def test_cycle_then_bridge_delete(backend):
    g = dyn_graph(3, backend=backend)
    ab, ac = 0, 2
    g.insert_edge(ab, 0, 1)
    g.insert_edge(1, 1, 2)
    g.insert_edge(ac, 0, 2)
    assert g.component_count() == 1
    g.delete_edge(ab)  # cycle edge: still connected
    assert g.connected(0, 1)
    g.delete_edge(ac)  # now a bridge is gone
    assert not g.connected(0, 1)
    assert g.connected(1, 2)
    assert g.component_count() == 2


def test_parallel_edges(backend):
    g = dyn_graph(2, backend=backend)
    g.insert_edge(0, 0, 1)
    g.insert_edge(1, 0, 1)
    g.delete_edge(0)
    assert g.connected(0, 1)


def test_connected_self(backend):
    g = dyn_graph(4, backend=backend)
    assert g.connected(2, 2)


def test_dead_handle_raises(backend):
    g = dyn_graph(2, backend=backend)
    g.insert_edge(0, 0, 1)
    g.delete_edge(0)
    with pytest.raises(ContractError):
        g.delete_edge(0)


def test_vertex_range_checked(backend):
    g = dyn_graph(3, backend=backend)
    with pytest.raises(ContractError):
        g.insert_edge(0, 0, 3)
    with pytest.raises(ContractError):
        g.connected(-1, 0)


def test_delete_reinsert_round_trip(backend):
    rng = np.random.default_rng(3)
    g = dyn_graph(10, backend=backend)
    handles = {}
    for h in range(60):
        u, v = int(rng.integers(10)), int(rng.integers(10))
        g.insert_edge(h, u, v)
        handles[h] = (u, v)
    before = [[g.connected(a, b) for b in range(10)] for a in range(10)]
    # remove five edges and put them back
    picked = list(handles)[:5]
    back = []
    for h in picked:
        back.append(handles.pop(h))
        g.delete_edge(h)
    for h, (u, v) in enumerate(back, start=60):
        g.insert_edge(h, u, v)
    after = [[g.connected(a, b) for b in range(10)] for a in range(10)]
    assert before == after


def test_differential_hdt_vs_naive_small():
    """Random op traces on a few vertex counts: answers must agree exactly."""
    for nv, ops, seed in [(8, 4000, 0), (24, 6000, 1), (64, 6000, 2)]:
        hdt = dyn_graph(nv, backend="hdt")
        naive = dyn_graph(nv, backend="naive")
        rng = np.random.default_rng(seed)
        live = {}
        for i in range(ops):
            u, v = int(rng.integers(nv)), int(rng.integers(nv))
            key = (min(u, v), max(u, v))
            if key in live:
                h = live.pop(key)
                hdt.delete_edge(h)
                naive.delete_edge(h)
            else:
                live[key] = i
                hdt.insert_edge(i, u, v)
                naive.insert_edge(i, u, v)
            if i % 3 == 0:
                a, b = int(rng.integers(nv)), int(rng.integers(nv))
                assert hdt.connected(a, b) == naive.connected(a, b), (nv, i, a, b)
            if i % 7 == 0:
                assert hdt.component_count() == naive.component_count(), (nv, i)


def test_skip_contract(backend):
    g = dyn_graph(4, backend=backend)
    g.insert_edge(0, 0, 1)
    g.insert_edge(1, 1, 2)
    with pytest.raises(ContractError):
        g.insert_edge(0, 2, 3)  # key 0 is live
    assert g.connected(0, 1) and g.component_count() == 2
    g.delete_edge(1)
    g.insert_edge(1, 2, 3)  # a dead key may be reused
    with pytest.raises(ContractError):
        g.connected(1, 2, 1)  # dead skip
    with pytest.raises(ContractError):
        g.connected(0, 2, 0)  # skip joins 0 and 1, not 0 and 2
    with pytest.raises(ContractError):
        g.connected(0, 1, 5)  # never inserted
    assert not g.connected(1, 0, 0)  # either orientation of the ends


def test_hdt_tree_skip_asks_connected_once(monkeypatch):
    """A bridge question on an HDT tree edge is answered by the replacement
    search its cut runs: no second `connected` query, on a bridge or on an
    edge with a replacement, and the tree edge is back afterwards."""
    g = dyn_graph(4, backend="hdt")
    for key, (u, v) in enumerate([(0, 1), (1, 2), (2, 0), (2, 3)]):
        g.insert_edge(key, u, v)
    asked = []
    connected = g.connected

    def counted(*args):
        asked.append(args)
        return connected(*args)

    monkeypatch.setattr(g, "connected", counted)
    for key, (u, v), joined in [(3, (2, 3), False), (0, (0, 1), True)]:
        assert g._edges[key].tree
        asked.clear()
        assert g.connected(u, v, key) is joined
        assert asked == [(u, v, key)]
        assert g.component_count() == 1 and g.connected(u, v)


def test_skip_differential_hdt_vs_naive(monkeypatch):
    """Random multigraph churn with bridge queries: HDT (invariant checker on)
    and naive must agree with the delete-ask-reinsert answer, on tree and
    non-tree skips alike."""
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    for nv, ops, seed in [(6, 1500, 0), (14, 2500, 1)]:
        hdt = dyn_graph(nv, backend="hdt")
        naive = dyn_graph(nv, backend="naive")
        ref = dyn_graph(nv, backend="naive")
        assert hdt._debug
        graphs = (hdt, naive, ref)
        rng = np.random.default_rng(seed)
        live = []  # (key, u, v)
        seen = set()  # (skip is an HDT tree edge, answer)
        for key in range(ops):
            r = rng.random()
            if len(live) < 3 or r < 0.35:
                if live and r < 0.1:  # a parallel copy of a live edge
                    _, u, v = live[int(rng.integers(len(live)))]
                else:
                    u = int(rng.integers(nv))
                    v = u if rng.random() < 0.05 else int(rng.integers(nv))
                for g in graphs:
                    g.insert_edge(key, u, v)
                live.append((key, u, v))
            elif r < 0.6:
                h, _, _ = live.pop(int(rng.integers(len(live))))
                for g in graphs:
                    g.delete_edge(h)
            else:
                h, u, v = live[int(rng.integers(len(live)))]
                if rng.random() < 0.5:
                    u, v = v, u
                ref.delete_edge(h)
                want = ref.connected(u, v)
                ref.insert_edge(h, u, v)
                tree = hdt._edges[h].tree
                got = hdt.connected(u, v, h), naive.connected(u, v, h)
                assert got == (want, want), (seed, key)
                seen.add((tree, want))
                assert hdt.component_count() == naive.component_count() \
                    == ref.component_count()
        assert seen == {(True, True), (True, False), (False, True)}, seen


def _bfs_component(vertex_count, live, s, skip=None):
    """Plain BFS reference: the vertices joined to s by the live edges but skip."""
    adj = [[] for _ in range(vertex_count)]
    for key, (a, b) in live.items():
        if key != skip:
            adj[a].append(b)
            adj[b].append(a)
    seen = {s}
    queue = [s]
    for x in queue:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


class _CountingAdj(list):
    """The naive backend's adjacency list, counting the vertices a query reads."""

    reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)


def test_naive_two_sided_search_against_bfs():
    """Seeded multigraph churn with parallel copies and self-loops: every
    naive answer, with skip given and absent, matches a plain BFS, and a
    query that finds the ends apart reads at most one vertex more than
    twice the smaller of the two components it separates."""
    seen = set()
    for nv, ops, seed in [(2, 300, 0), (5, 1500, 1), (12, 3000, 2), (30, 3000, 3)]:
        g = dyn_graph(nv, backend="naive")
        g._adj = _CountingAdj(g._adj)
        rng = np.random.default_rng(seed)
        live = {}  # key -> (u, v)
        for key in range(ops):
            r = rng.random()
            if len(live) < 2 or r < 0.35:
                if live and r < 0.1:  # a parallel copy of a live edge
                    u, v = live[list(live)[int(rng.integers(len(live)))]]
                else:
                    u = int(rng.integers(nv))
                    v = u if rng.random() < 0.05 else int(rng.integers(nv))
                g.insert_edge(key, u, v)
                live[key] = (u, v)
                continue
            if r < 0.55:
                dead = list(live)[int(rng.integers(len(live)))]
                del live[dead]
                g.delete_edge(dead)
                continue
            if r < 0.75:
                skip = None
                u, v = int(rng.integers(nv)), int(rng.integers(nv))
            else:
                skip = list(live)[int(rng.integers(len(live)))]
                u, v = live[skip]
                if rng.random() < 0.5:
                    u, v = v, u
            cu = _bfs_component(nv, live, u, skip)
            g._adj.reads = 0
            got = g.connected(u, v, skip)
            assert got == (v in cu), (seed, key, u, v, skip)
            parallel = skip is not None and sum(e in ((u, v), (v, u)) for e in live.values()) > 1
            if got:
                seen.add("parallel copy of skip" if parallel else "joined")
                continue
            cv = _bfs_component(nv, live, v, skip)
            assert g._adj.reads <= 2 * min(len(cu), len(cv)) + 1, (seed, key)
            if len(cu) != len(cv):
                seen.add("u's side runs out" if len(cu) < len(cv) else "v's side runs out")
    assert seen == {"joined", "parallel copy of skip", "u's side runs out",
                    "v's side runs out"}, seen


def test_naive_bridge_costs_its_smaller_side():
    """A pendant edge on a 30 x 30 grid is answered from the leaf's side,
    whichever end the query names first."""
    g = dyn_graph(901, backend="naive")
    for key, (u, v) in enumerate(grid_edges(30, 30)):
        g.insert_edge(key, u, v)
    pendant = 10_000
    g.insert_edge(pendant, 450, 900)  # the leaf 900 hangs off vertex 450
    g._adj = _CountingAdj(g._adj)
    for u, v in ((450, 900), (900, 450)):
        g._adj.reads = 0
        assert not g.connected(u, v, pendant)
        assert g._adj.reads <= 3, (u, v, g._adj.reads)
    g.insert_edge(pendant + 1, 900, 0)  # now the leaf is on a cycle through the grid
    assert g.connected(450, 900, pendant) and g.connected(900, 450, pendant)


@pytest.mark.parametrize("replaced", [True, False], ids=["replacement", "bridge"])
def test_hdt_skip_query_leaves_graph(replaced):
    """A skip query on a tree edge cuts and relinks inside the backend; the
    live keys and the component count stay as they were."""
    g = dyn_graph(5, backend="hdt")
    for key, (u, v) in enumerate([(0, 1), (1, 2), (3, 4)]):
        g.insert_edge(key, u, v)
    if replaced:
        g.insert_edge(3, 0, 2)  # closes the triangle: a non-tree edge
    assert g._edges[0].tree
    keys, comps = set(g._edges), g.component_count()
    assert g.connected(0, 1, 0) == replaced
    assert set(g._edges) == keys and g.component_count() == comps
    assert g.connected(0, 1) and g.connected(0, 2)


def dyncon_workload(vertex_count, ops, backend, seed=0):
    """Run a seeded random insert/delete/query workload against one backend.

    Returns ``(wall_time_sec, checksum)``; the checksum folds in every query
    answer (one per four updates), so two backends can be compared for
    agreement as well as speed.
    """
    g = dyn_graph(vertex_count, backend=backend)
    rng = np.random.default_rng(seed)
    live = set()  # keys u * vertex_count + v of the live edges, u <= v
    checksum = 0
    t0 = time.perf_counter()
    for i in range(ops):
        u, v = sorted((int(rng.integers(vertex_count)), int(rng.integers(vertex_count))))
        key = u * vertex_count + v
        live ^= {key}
        if key in live:
            g.insert_edge(key, u, v)
        else:
            g.delete_edge(key)
        if i % 4 == 0:
            a = int(rng.integers(vertex_count))
            b = int(rng.integers(vertex_count))
            checksum = (checksum * 131 + (1 if g.connected(a, b) else 0)) % (1 << 61)
    return time.perf_counter() - t0, checksum


def test_workload_checksums_agree():
    w1, c1 = dyncon_workload(40, 5000, "hdt", seed=9)
    w2, c2 = dyncon_workload(40, 5000, "naive", seed=9)
    assert c1 == c2
    assert w1 > 0 and w2 > 0


def test_backend_must_be_named():
    # the size rule behind "auto" belongs to matroids.build_oracle
    for name in ("auto", "union-find"):
        with pytest.raises(ValidationError):
            dyn_graph(8, name)


def test_hdt_amortized_growth_bound():
    """Mean per-op cost may grow no faster than c*log^2(n) across sizes.

    Benchmark assertion with a generous constant (4x the log^2 ratio), not a
    microbenchmark gate.
    """
    import math

    ops = HDT_GROWTH_OPS
    sizes = (100, 1000, 10000)
    dyncon_workload(100, 2000, "hdt", seed=1)  # warm-up
    per_op = {}
    for nv in sizes:
        wall, _ = dyncon_workload(nv, ops, "hdt", seed=7)
        per_op[nv] = wall / ops
    for nv in sizes[1:]:
        allowed = 4.0 * (math.log2(nv) / math.log2(sizes[0])) ** 2
        assert per_op[nv] / per_op[100] <= allowed, (per_op, nv, allowed)


def _grid_churn(graphs, rng, rows, rounds, each):
    """Build the rows x rows grid in random order, with 24 parallel copies
    and 6 self-loops, then tear it down by random deletes (one step in five
    re-inserts a grid edge) until no edge is live; `rounds` times, on every
    graph of `graphs`.  Calls each() after every insert and delete.

    Tearing the grid down splits its trees again and again, promoting HDT
    edges through several levels.
    """
    nv = rows * rows
    base = grid_edges(rows, rows)
    keys = itertools.count()

    def insert(u, v):
        h = next(keys)
        for g in graphs:
            g.insert_edge(h, u, v)
        each()
        return h

    for _ in range(rounds):
        edges = [base[k] for k in rng.permutation(len(base))]
        edges += [base[k] for k in rng.integers(len(base), size=24)]  # parallel
        edges += [(v, v) for v in rng.integers(nv, size=6)]  # self-loops
        live = [insert(u, v) for u, v in edges]
        while live:
            if rng.random() < 0.8:  # delete
                h = live.pop(int(rng.integers(len(live))))
                for g in graphs:
                    g.delete_edge(h)
                each()
            else:  # re-insert a grid edge, possibly parallel to a live one
                live.append(insert(*base[int(rng.integers(len(base)))]))


def test_differential_hdt_vs_naive_deep_levels(monkeypatch):
    """Delete-heavy churn on a 16x16 grid with parallel edges and self-loops,
    promoting edges to level 3 and beyond; HDT (with its invariant checker
    on after every mutation) must answer exactly as the naive backend.
    """
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    nv = 256
    rng = np.random.default_rng(5)
    hdt = dyn_graph(nv, backend="hdt")
    naive = dyn_graph(nv, backend="naive")
    assert hdt._debug

    def agree():
        a, b = int(rng.integers(nv)), int(rng.integers(nv))
        assert hdt.connected(a, b) == naive.connected(a, b), (a, b)
        assert hdt.component_count() == naive.component_count()

    _grid_churn((hdt, naive), rng, 16, 2, agree)
    # a forest exists at level i only once some edge was promoted to level i
    assert len(hdt._vnodes) - 1 >= 3


def test_hdt_links_and_cuts_splay_at_most_three_times(monkeypatch):
    """On a seeded 16x16 grid churn: a tree insert splays at most three
    times, the same-tree question's two included, and so does every link
    into one forest (an insert's, a promotion's or a replacement's) and
    every cut out of one.  A splay of a node already at its root rotates
    nothing and is not counted, so a link's own splays of the ends the
    same-tree question left at their roots are free."""
    g = dyn_graph(256, backend="hdt")
    splays = [0]
    splay = dyncon._splay

    def counted(x):
        if x.parent is not None:
            splays[0] += 1
        return splay(x)

    monkeypatch.setattr(dyncon, "_splay", counted)
    most = {"tree insert": 0, "link": 0, "cut": 0}
    calls = dict.fromkeys(most, 0)

    def measured(run, name):
        def call(*args):
            before = splays[0]
            run(*args)
            if name != "tree insert" or g._edges[args[0]].tree:
                most[name] = max(most[name], splays[0] - before)
                calls[name] += 1
        return call

    monkeypatch.setattr(g, "insert_edge", measured(g.insert_edge, "tree insert"))
    monkeypatch.setattr(g, "_link_at", measured(g._link_at, "link"))
    monkeypatch.setattr(tours, "cut", measured(tours.cut, "cut"))
    _grid_churn((g,), np.random.default_rng(11), 16, 1, lambda: None)
    assert len(g._vnodes) - 1 >= 3
    # promotions and replacements link beyond the inserts' own links
    assert calls["link"] > calls["tree insert"] > 0 and calls["cut"] > 0, calls
    assert all(0 < k <= 3 for k in most.values()), most


def test_hdt_tour_order_at_every_level():
    """Every 100 operations of a seeded 12x12 grid churn, in every forest F_j:
    between a tree edge's two arcs lie exactly the vertex nodes of one side
    of that edge in F_j."""
    g = dyn_graph(144, backend="hdt")
    steps = itertools.count(1)
    checked = set()

    def each():
        if next(steps) % 100:
            return
        for j, nodes in enumerate(g._vnodes):
            forest = {h: e for h, e in g._edges.items() if e.tree and e.level >= j}
            check_tour_order(nodes, {h: e.arcs[j] for h, e in forest.items()},
                             {h: (e.u, e.v) for h, e in forest.items()})
            if forest:
                checked.add(j)

    _grid_churn((g,), np.random.default_rng(13), 12, 2, each)
    assert len(checked) >= 3, checked


def test_invariant_checker_catches_corrupt_aggregate(monkeypatch):
    """A wrong aggregate in a tree the next mutation never touches still fires."""
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    g = dyn_graph(40, backend="hdt")
    for h, (u, v) in enumerate([(0, 1), (1, 2), (2, 0), (10, 11), (11, 12)]):
        g.insert_edge(h, u, v)
    g._vnodes[0][11].agg ^= 1
    with pytest.raises(AssertionError):
        g.insert_edge(5, 0, 3)

    # the flag is read at construction: with it off, the same damage goes unseen
    monkeypatch.delenv("MATROID_MCMC_DEBUG_ASSERTS")
    g = dyn_graph(40, backend="hdt")
    for h, (u, v) in enumerate([(0, 1), (1, 2), (2, 0), (10, 11), (11, 12)]):
        g.insert_edge(h, u, v)
    g._vnodes[0][11].agg ^= 1
    g.insert_edge(5, 0, 3)
    with pytest.raises(AssertionError):
        g._check_invariants()
