"""Dynamic connectivity: contract examples, round-trips, and differential runs."""

import itertools
import time

import numpy as np
import pytest

from matroid_mcmc import ContractError, ValidationError, dyn_graph

from conftest import grid_edges

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


def test_differential_hdt_vs_naive_deep_levels(monkeypatch):
    """Delete-heavy churn on a 16x16 grid with parallel edges and self-loops.

    Tearing the grid down splits its trees again and again, promoting edges
    to level 3 and beyond; HDT (with its invariant checker on after every
    mutation) must answer exactly as the naive backend.
    """
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    nv = 256
    rng = np.random.default_rng(5)
    base = grid_edges(16, 16)
    hdt = dyn_graph(nv, backend="hdt")
    naive = dyn_graph(nv, backend="naive")
    assert hdt._debug
    for rnd in range(2):
        edges = [base[k] for k in rng.permutation(len(base))]
        edges += [base[k] for k in rng.integers(len(base), size=24)]  # parallel
        edges += [(v, v) for v in rng.integers(nv, size=6)]  # self-loops
        keys = itertools.count()

        def insert(u, v):
            h = next(keys)
            hdt.insert_edge(h, u, v)
            naive.insert_edge(h, u, v)
            return h, (u, v)

        live = [insert(u, v) for u, v in edges]
        while live:
            if rng.random() < 0.8:  # delete
                h, _ = live.pop(int(rng.integers(len(live))))
                hdt.delete_edge(h)
                naive.delete_edge(h)
            else:  # re-insert a grid edge, possibly parallel to a live one
                u, v = base[int(rng.integers(len(base)))]
                live.append(insert(u, v))
            a, b = int(rng.integers(nv)), int(rng.integers(nv))
            assert hdt.connected(a, b) == naive.connected(a, b), (rnd, a, b)
            assert hdt.component_count() == naive.component_count(), rnd
    # a forest exists at level i only once some edge was promoted to level i
    assert len(hdt._vnodes) - 1 >= 3


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
