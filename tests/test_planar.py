"""Plane embeddings and the forest oracle over primal and dual ends."""

import random

import numpy as np
import pytest

from matroid_mcmc import (ContractError, MatroidSpec, UnsupportedOperationError,
                          ValidationError, build_oracle, matroid_from_dict)
from matroid_mcmc import planar
from matroid_mcmc.exact import BruteMatroid
from matroid_mcmc.matroids import CographicOracle, ForestOracle, GraphicOracle

from conftest import K4_EDGES, LOOP_PARALLEL_EDGES, TRIANGLE_EDGES


# ---------------------------------------------------------------------------
# graphs


def grid_with_diagonals(k, seed):
    """A k x k grid; each square gets one random diagonal, or none."""
    rnd = random.Random(seed)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
            if c + 1 < k and r + 1 < k:
                pick = rnd.randrange(3)
                if pick == 1:
                    edges.append((v, v + k + 1))
                elif pick == 2:
                    edges.append((v + 1, v + k))
    return k * k, edges


def thinned_triangulation(rnd):
    """A k x k grid (2 <= k <= 6) with one random diagonal per square, cut to
    a random spanning tree plus each other edge kept with one random
    probability, its vertices relabelled by a random permutation."""
    k = rnd.randint(2, 6)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
            if c + 1 < k and r + 1 < k:
                edges.append((v, v + k + 1) if rnd.random() < 0.5 else (v + 1, v + k))
    rnd.shuffle(edges)
    parent = list(range(k * k))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    keep = rnd.random()
    kept = []
    for u, v in edges:  # Kruskal in a random order: a random spanning tree
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            kept.append((u, v))
        elif rnd.random() < keep:
            kept.append((u, v))
    label = list(range(k * k))
    rnd.shuffle(label)
    return k * k, [(label[u], label[v]) for u, v in kept]


def wheel(k):
    """A hub (vertex k) joined to every vertex of the cycle 0..k-1."""
    return k + 1, [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def shuffled(graph, seed):
    """The same graph with its vertices relabelled, its edges reordered and
    each edge's endpoints in random order."""
    n, edges = graph
    rnd = random.Random(seed)
    label = list(range(n))
    rnd.shuffle(label)
    out = [(label[u], label[v]) if rnd.random() < 0.5 else (label[v], label[u])
           for u, v in edges]
    rnd.shuffle(out)
    return n, out


def with_parallel(graph, seed, copies=8):
    n, edges = graph
    rnd = random.Random(seed)
    extra = [rnd.choice(edges) for _ in range(copies)]
    return n, edges + extra + extra[:2]  # some pairs get three copies


def with_loops(graph, seed, loops=5):
    n, edges = graph
    rnd = random.Random(seed)
    v = rnd.randrange(n)
    return n, edges + [(v, v)] + [(x, x) for x in rnd.sample(range(n), loops - 1)]


def with_bridge(graph):
    """A pendant vertex on a bridge, with a loop on the far side."""
    n, edges = graph
    return n + 1, edges + [(0, n), (n, n)]


def padded(graph, vertices=40):
    """The graph with a path hung off vertex 0 so it has `vertices` vertices."""
    n, edges = graph
    return max(n, vertices), edges + [(0 if i == n else i - 1, i) for i in range(n, vertices)]


def random_regular(m_target, seed=0):
    """A connected 3-regular graph of about m_target edges: a cycle plus a
    seeded random perfect matching (parallel edges allowed)."""
    nv = max(4, 2 * ((m_target + 2) // 3))
    nv += nv % 2  # perfect matching needs an even vertex count
    perm = np.random.default_rng(seed).permutation(nv).tolist()
    return nv, ([(i, (i + 1) % nv) for i in range(nv)]
                + [(min(a, b), max(a, b)) for a, b in zip(perm[::2], perm[1::2])])


def complete(k):
    return k, [(u, v) for u in range(k) for v in range(u + 1, k)]


def k33():
    return 6, [(u, v) for u in range(3) for v in range(3, 6)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


PLANAR = {
    "grid-diagonals": grid_with_diagonals(9, seed=3),
    "wheel": wheel(11),
    "shuffled-grid": shuffled(grid_with_diagonals(7, seed=5), seed=1),
    "shuffled-wheel": shuffled(wheel(6), seed=2),
    "triangle": (3, list(TRIANGLE_EDGES)),
    "k4": (4, list(K4_EDGES)),
    "loop-parallel": (4, list(LOOP_PARALLEL_EDGES)),
}
MULTI = {
    f"{name}-{kind}": make(graph)
    for name, graph in PLANAR.items() if name not in ("triangle", "loop-parallel")
    for kind, make in (("parallel", lambda g: with_parallel(g, seed=7)),
                       ("loops", lambda g: with_loops(g, seed=8)),
                       ("bridge", with_bridge),
                       ("all", lambda g: with_bridge(with_loops(with_parallel(g, 9), 9))))
}
MULTI.update({
    "loops-only": (1, [(0, 0), (0, 0)]),  # no simple edge at all
    "three-copies": (2, [(0, 1), (1, 0), (0, 1)]),  # the dual is a triangle
    # a spanning tree (one face) with a parallel copy and a loop
    "tree-loop-parallel": (6, [(0, 1), (1, 2), (1, 3), (2, 2), (3, 4), (4, 5), (3, 1)]),
})
NONPLANAR = {
    "k5": complete(5),
    "k33": k33(),
    "petersen": petersen(),
    # a subdivided K3,3; labelled so, the LR test rejects it at a conflict
    # pair whose left and right intervals both conflict with the new edge
    "k33-subdivided": (7, [(0, 2), (0, 3), (1, 4), (1, 5), (5, 6), (5, 2), (3, 1),
                           (4, 6), (3, 6), (2, 4)]),
    "random-regular-300": random_regular(300),
}


def _connected_without(n, edges, removed):
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if i not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _dual_is_forest(faces, face, elements):
    parent = list(range(faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in elements:
        a, b = find(face[2 * i]), find(face[2 * i + 1])
        if a == b:
            return False
        parent[a] = b
    return True


# ---------------------------------------------------------------------------
# the embedder


@pytest.mark.parametrize("name", list(PLANAR) + list(MULTI))
def test_planar_graphs_embed_with_euler_face_count(name):
    n, edges = PLANAR.get(name) or MULTI[name]
    faces, face = planar.dual_graph(n, edges)
    assert faces == len(edges) - n + 2
    assert sorted(set(face)) == list(range(faces))
    # Whitney: removing S keeps G connected iff S's dual edges form a forest
    rnd = random.Random(name)
    for _ in range(60):
        size = rnd.randint(0, min(len(edges), len(edges) - n + 2))
        removed = set(rnd.sample(range(len(edges)), size))
        assert _dual_is_forest(faces, face, removed) == _connected_without(n, edges, removed)


def test_disconnected_graph_is_rejected():
    with pytest.raises(ValidationError, match="connected"):
        planar.dual_graph(4, [(0, 1), (2, 3)])


def test_long_path_needs_no_recursion():
    n, edges = path(20_000)
    faces, face = planar.dual_graph(n, edges)
    assert faces == 1 and set(face) == {0}
    n, edges = shuffled(path(12_000), seed=4)
    assert planar.dual_graph(n, edges)[0] == 1


@pytest.mark.parametrize("name", NONPLANAR)
def test_nonplanar_graphs_return_none(name):
    n, edges = NONPLANAR[name]
    assert planar.dual_graph(n, edges) is None
    assert planar.dual_graph(*shuffled((n, edges), seed=3)) is None
    assert planar.dual_graph(*with_bridge(with_loops(with_parallel((n, edges), 2), 2))) is None


@pytest.mark.parametrize("name", NONPLANAR)
def test_nonplanar_graphs_keep_hdt(name):
    n, edges = padded(NONPLANAR[name])
    assert n > 32
    spec = matroid_from_dict({"variant": "cographic", "edges": [list(e) for e in edges]})
    oracle = build_oracle(spec)
    assert type(oracle) is CographicOracle
    assert oracle._g.name == "hdt"


# what "auto" builds for an independence query on the graph with 32 and with
# 33 vertices: the forest at any size, but for a non-planar cographic graph
ORACLE_RULE = {
    ("graphic", "wheel"): ("forest", "forest"),
    ("graphic", "k5"): ("forest", "forest"),
    ("graphic", "k33"): ("forest", "forest"),
    ("cographic", "wheel"): ("forest", "forest"),
    ("cographic", "k5"): ("naive", "hdt"),
    ("cographic", "k33"): ("naive", "hdt"),
}


@pytest.mark.parametrize("variant,graph", list(ORACLE_RULE),
                         ids=[f"{v}-{g}" for v, g in ORACLE_RULE])
def test_oracle_choice_by_question_and_backend(variant, graph, monkeypatch):
    """auto answers independence with the forest (primal edges, or the plane
    dual) whatever the size, and a non-planar cographic graph with the dynamic
    graph.  Rank queries get the dynamic graph, naive up to 32 vertices and HDT
    above, and a pinned backend always builds it.  A graphic spec is never
    embedded."""
    if variant == "graphic":
        def no_embedding(*_):
            raise AssertionError("a graphic spec is never embedded")

        monkeypatch.setattr(planar, "dual_graph", no_embedding)
    graph_cls = GraphicOracle if variant == "graphic" else CographicOracle
    for vertices, want in zip((32, 33), ORACLE_RULE[variant, graph]):
        n, edges = wheel(vertices - 1) if graph == "wheel" else padded(NONPLANAR[graph], vertices)
        spec = matroid_from_dict({"variant": variant, "edges": [list(e) for e in edges]})
        assert spec.vertices == n == vertices
        oracle = build_oracle(spec)
        if want == "forest":
            assert type(oracle) is ForestOracle, vertices
        else:
            assert type(oracle) is graph_cls and oracle._g.name == want, vertices
        oracle = build_oracle(spec, "rank")
        assert type(oracle) is graph_cls
        assert oracle._g.name == ("naive" if vertices <= 32 else "hdt")
        for kind in ("independence", "rank"):
            for backend in ("hdt", "naive"):
                oracle = build_oracle(spec, kind, backend)
                assert type(oracle) is graph_cls and oracle._g.name == backend


def test_disconnected_planar_cographic_spec_is_rejected_at_construction():
    """A hand-built cographic spec on a disconnected plane graph never reaches
    the embedder or an oracle: MatroidSpec rejects it where it is built, with
    the one connectivity wording."""
    with pytest.raises(ValidationError, match="^graph must be connected"):
        MatroidSpec("cographic", n_elements=2, edges=[(0, 1), (2, 3)], vertices=4)


def test_disconnected_dense_cographic_spec_is_rejected():
    """A disconnected cographic spec too dense to embed (K7 with a separate
    looped vertex), which the embedder would not catch, is rejected where it
    is built, before any oracle or chain, with the one connectivity wording."""
    n, edges = complete(7)
    assert planar.dual_graph(8, edges + [(7, 7)]) is None
    with pytest.raises(ValidationError, match="^graph must be connected"):
        MatroidSpec("cographic", n_elements=22, edges=edges + [(7, 7)], vertices=8)


def test_euler_mismatch_raises(monkeypatch):
    """A rotation system that is not a plane embedding is never used."""
    embed = planar._embed

    def swap_two(*args):
        cw = embed(*args)
        a = cw[0]
        b = cw[a]
        cw[0], cw[a], cw[b] = b, cw[b], a  # swap a and b around their vertex
        return cw

    monkeypatch.setattr(planar, "_embed", swap_two)
    with pytest.raises(ContractError, match="Euler"):
        planar.dual_graph(*wheel(6))


# ---------------------------------------------------------------------------
# the forest oracle


ORACLE_GRAPHS = ["k4", "loop-parallel", "grid-diagonals", "wheel-all", "shuffled-grid-all",
                 "tree-loop-parallel"]


def _forest_oracle(graph, variant="cographic"):
    """The forest oracle over the plane dual (cographic) or over the primal
    edges themselves (graphic)."""
    _, edges = graph
    spec = matroid_from_dict({"variant": variant, "edges": [list(e) for e in edges]})
    if variant == "graphic":
        ends = spec.vertices, [x for e in spec.edges for x in e]
    else:
        ends = planar.dual_graph(spec.vertices, spec.edges)
    return spec, ForestOracle(spec.n, ends)


@pytest.mark.parametrize("variant,name", [("cographic", name) for name in ORACLE_GRAPHS]
                         + [("graphic", name) for name in ORACLE_GRAPHS],
                         ids=ORACLE_GRAPHS + [f"graphic-{name}" for name in ORACLE_GRAPHS])
def test_dual_oracle_matches_brute_force(variant, name, monkeypatch):
    """A walk that grows the set while it is independent and mostly shrinks
    it otherwise, so it keeps crossing the boundary with a few extras.  The
    graphic cases run the same forest over the primal edges, loops and
    parallel copies included."""
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    spec, oracle = _forest_oracle(PLANAR.get(name) or MULTI[name], variant)
    assert oracle._debug
    ref = BruteMatroid(spec)
    rng = np.random.default_rng(31)
    cur = 0
    most_extras = 0
    for step in range(3000):
        grow = rng.random() < (0.7 if oracle.is_independent() else 0.35)
        pool = [j for j in range(spec.n) if (cur >> j & 1) != grow]
        if not pool:
            continue
        i = pool[int(rng.integers(len(pool)))]
        if grow:
            oracle.insert(i)
        else:
            oracle.delete(i)
        cur ^= 1 << i
        assert oracle.is_independent() == ref.is_independent(cur), (name, step)
        most_extras = max(most_extras, len(oracle._extras))
    assert most_extras >= 2


def test_dual_oracle_on_thinned_triangulations():
    """Thinned, relabelled triangulated grids drive the LR test's back-edge
    removal through branches the fixed graphs above do not: a conflict pair
    with only a left interval, and a right interval emptied by the removal.
    Each graph's dual forest oracle follows a random walk of inserts and
    deletes in step with the brute-force rank."""
    graphs, walk = random.Random(0), random.Random(1)
    for g in range(30):
        _, edges = thinned_triangulation(graphs)
        spec = matroid_from_dict({"variant": "cographic", "edges": [list(e) for e in edges]})
        oracle = ForestOracle(spec.n, spec.forest_graph)
        ref = BruteMatroid(spec)
        cur = 0
        for step in range(300):
            i = walk.randrange(spec.n)
            if cur >> i & 1:
                oracle.delete(i)
            else:
                oracle.insert(i)
            cur ^= 1 << i
            assert oracle.is_independent() == ref.is_independent(cur), (g, step)


def test_dual_oracle_is_independence_only():
    for variant in ("cographic", "graphic"):
        _, oracle = _forest_oracle(PLANAR["wheel"], variant)
        oracle.insert(0)
        with pytest.raises(UnsupportedOperationError):
            oracle.rank()
        with pytest.raises(UnsupportedOperationError):
            oracle.rank_drops_on_delete(0)
        with pytest.raises(ContractError):
            oracle.insert(0)
        with pytest.raises(ContractError):
            oracle.delete(1)


def _corrupt_an_arc(oracle):
    """Move a linked element to the extras without cutting its arcs."""
    for i in (0, 1, 2):
        oracle.insert(i)
    assert oracle.is_independent()
    oracle._extras[1] = None
    del oracle._arcs[1]


def test_forest_invariant_checker_catches_corruption(monkeypatch):
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    _, oracle = _forest_oracle(PLANAR["wheel"])
    _corrupt_an_arc(oracle)
    with pytest.raises(AssertionError):
        oracle.insert(5)

    # the flag is read at construction: with it off, the same damage goes unseen
    monkeypatch.delenv("MATROID_MCMC_DEBUG_ASSERTS")
    _, oracle = _forest_oracle(PLANAR["wheel"])
    _corrupt_an_arc(oracle)
    oracle.insert(5)
    with pytest.raises(AssertionError):
        oracle._check_invariants()


def test_forest_invariant_checker_catches_a_stray_extra(monkeypatch):
    """An extra whose faces lie in two trees should have been linked."""
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    _, oracle = _forest_oracle(PLANAR["wheel"])
    oracle.insert(0)
    oracle.current.add(3)
    oracle._extras[3] = None
    with pytest.raises(AssertionError):
        oracle.insert(6)
