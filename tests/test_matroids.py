"""Matroid specs and incremental oracles vs the brute-force reference."""

import ast
import json
import random
import re

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    ContractError,
    Fields,
    MatroidSpec,
    PolarizedChain,
    ValidationError,
    build_oracle,
    load_matroid,
    matroid_from_dict,
    tours,
)
from matroid_mcmc.exact import BruteMatroid, independent_masks
from matroid_mcmc.matroids import (CONNECTED_GRAPH_RULE, CographicOracle, ForestOracle,
                                   GraphicOracle)

from conftest import (K4_EDGES, REPO_ROOT, TRIANGLE_EDGES, check_tour_order, imported_names,
                      spec_of, union_find_roots)
from reference import is_matroid_family


# ---------------------------------------------------------------------------
# spec validation


def test_fields_validation():
    with pytest.raises(ValidationError):
        Fields([1.0, 0.0])
    with pytest.raises(ValidationError):
        Fields([1.0, -2.0])
    with pytest.raises(ValidationError):
        Fields([float("inf")])
    f = Fields([0.5, 2.0, 1.0])
    assert f.lam == [0.5, 2.0, 1.0]


@pytest.mark.parametrize("bad", [
    {},  # no variant
    {"variant": "frobnicate"},
    {"variant": "uniform", "n": 0, "k": 0},
    {"variant": "uniform", "n": 3, "k": 4},
    {"variant": "explicit", "n": 2, "independent_sets": [[0]]},  # missing empty set
    {"variant": "explicit", "n": 2, "independent_sets": [[], [0, 1]]},  # not closed
    {"variant": "explicit", "n": 30, "independent_sets": [[]]},  # over the guard
    {"variant": "partition", "blocks": [[0, 1]], "caps": [1, 1]},
    {"variant": "partition", "blocks": [[0], [0]], "caps": [1, 1]},
    {"variant": "partition", "blocks": [[0, 2]], "caps": [1]},  # not dense
    {"variant": "partition", "blocks": [[0, 1]], "caps": [3]},  # cap > block
    {"variant": "graphic", "edges": []},
    {"variant": "graphic", "edges": [[0, -1]]},
    {"variant": "cographic", "edges": [[0, 1], [2, 3]]},  # disconnected ambient
    {"variant": "binary-linear", "matrix": []},
    {"variant": "binary-linear", "matrix": [[1, 0], [1]]},  # ragged
    {"variant": "binary-linear", "matrix": [[2, 0]]},
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValidationError):
        matroid_from_dict(bad)


# hand-built specs that break one rule each; each raises at MatroidSpec(...)
HAND_BUILT_BREAKS = {
    # the sampler drew {2} a quarter of the time, exact_mu never (TV 0.25)
    "partition-misses-an-element": (
        dict(variant="partition", n_elements=3, blocks=[[0, 1]], caps=[1]),
        "blocks must partition the index range [0, 3)"),
    # the sampler drew the empty set, {0} and {1}; exact_mu only the empty set
    "cographic-short-count": (
        dict(variant="cographic", n_elements=2, edges=TRIANGLE_EDGES, vertices=3),
        "n_elements is 2, but the cographic payload has 3 elements"),
    "graphic-long-count": (
        dict(variant="graphic", n_elements=4, edges=TRIANGLE_EDGES, vertices=3),
        "n_elements is 4, but the graphic payload has 3 elements"),
    "endpoint-past-vertices": (
        dict(variant="graphic", n_elements=2, edges=[(0, 1), (1, 3)], vertices=3),
        "edge 1: vertex ids must lie in [0, 3)"),
    "explicit-without-empty-set": (
        dict(variant="explicit", n_elements=2, independent_sets=[1, 2]),
        "explicit family must contain the empty set"),
    "explicit-not-closed": (
        dict(variant="explicit", n_elements=2, independent_sets=[0, 1, 3]),
        "explicit family is not downward closed"),
    "explicit-mask-past-n": (
        dict(variant="explicit", n_elements=2, independent_sets=[0, 1, 4]),
        "explicit family has a set outside [0, 2)"),
    "uniform-k-past-n": (
        dict(variant="uniform", n_elements=3, k=4), "uniform spec needs 0 <= k <= n"),
    "partition-repeats-an-element": (
        dict(variant="partition", n_elements=3, blocks=[[0, 1], [1]], caps=[1, 1]),
        "blocks must partition the index range [0, 3)"),
    "missing-k": (dict(variant="uniform", n_elements=3), "uniform spec needs 'k'"),
    "missing-caps": (dict(variant="partition", n_elements=2, blocks=[[0, 1]]),
                     "partition spec needs 'caps'"),
    "missing-edges": (dict(variant="cographic", n_elements=3, vertices=3),
                      "cographic spec needs 'edges'"),
}


@pytest.mark.parametrize("name", list(HAND_BUILT_BREAKS))
def test_hand_built_spec_checks_its_rules(name):
    kwargs, message = HAND_BUILT_BREAKS[name]
    with pytest.raises(ValidationError, match=re.escape(message)):
        MatroidSpec(**kwargs)


@pytest.mark.parametrize("d,kwargs", [
    ({"variant": "frobnicate"}, dict(variant="frobnicate")),
    ({"variant": "uniform", "n": 3}, dict(variant="uniform", n_elements=3)),
    ({"variant": "uniform", "n": 0, "k": 0}, dict(variant="uniform", n_elements=0, k=0)),
    ({"variant": "uniform", "n": 3, "k": 4}, dict(variant="uniform", n_elements=3, k=4)),
    ({"variant": "explicit", "n": 30, "independent_sets": [[]]},
     dict(variant="explicit", n_elements=30, independent_sets=[0])),
    ({"variant": "explicit", "n": 2, "independent_sets": [[0]]},
     dict(variant="explicit", n_elements=2, independent_sets=[1])),
    ({"variant": "explicit", "n": 2, "independent_sets": [[], [0, 1]]},
     dict(variant="explicit", n_elements=2, independent_sets=[0, 3])),
    ({"variant": "explicit", "n": 2, "independent_sets": [[], [2]]},
     dict(variant="explicit", n_elements=2, independent_sets=[0, 4])),
    ({"variant": "explicit", "n": 2, "independent_sets": [[], [-1], [10 ** 12]]},
     dict(variant="explicit", n_elements=2, independent_sets=[0, 4])),
    ({"variant": "partition", "blocks": [[0, 1]], "caps": [1, 1]},
     dict(variant="partition", n_elements=2, blocks=[[0, 1]], caps=[1, 1])),
    ({"variant": "partition", "blocks": [[0, 1]], "caps": [3]},
     dict(variant="partition", n_elements=2, blocks=[[0, 1]], caps=[3])),
    ({"variant": "partition", "blocks": [[0], []], "caps": [1, 0]},
     dict(variant="partition", n_elements=1, blocks=[[0], []], caps=[1, 0])),
    ({"variant": "partition", "blocks": [[0], [0]], "caps": [1, 1]},
     dict(variant="partition", n_elements=2, blocks=[[0], [0]], caps=[1, 1])),
    ({"variant": "partition", "blocks": [[0, 2]], "caps": [1]},
     dict(variant="partition", n_elements=2, blocks=[[0, 2]], caps=[1])),
    ({"variant": "graphic", "edges": [[0, -1]]},
     dict(variant="graphic", n_elements=1, edges=[(0, -1)], vertices=1)),
    ({"variant": "graphic", "edges": []},
     dict(variant="graphic", n_elements=0, edges=[], vertices=0)),
    ({"variant": "cographic", "edges": [[0, 1], [2, 3]]},
     dict(variant="cographic", n_elements=2, edges=[(0, 1), (2, 3)], vertices=4)),
    ({"variant": "binary-linear", "matrix": []},
     dict(variant="binary-linear", n_elements=0, matrix=[])),
], ids=["unknown-variant", "missing-field", "no-elements", "uniform-k", "explicit-n",
        "explicit-empty-set", "explicit-closed", "explicit-range", "explicit-range-clamped",
        "caps-length", "cap-range", "empty-block", "block-repeat", "block-gap", "endpoint",
        "graph-no-edges", "cographic-connected", "no-columns"])
def test_spec_rules_are_stated_once(d, kwargs):
    """MatroidSpec owns every rule of a spec: the JSON spec and the
    equivalent hand-built one break it with the same message."""
    with pytest.raises(ValidationError) as exc:
        MatroidSpec(**kwargs)
    rule = str(exc.value)
    with pytest.raises(ValidationError) as exc:
        matroid_from_dict(d)
    assert str(exc.value) == rule


@pytest.mark.parametrize("d,message", [
    ({"variant": "uniform", "n": 3, "k": True}, "k must be an integer, got true"),
    ({"variant": "uniform", "n": True, "k": 1}, "n must be an integer, got true"),
    ({"variant": "explicit", "n": 1, "independent_sets": [[], [True]]},
     "independent_sets[1][0] must be an integer, got true"),
    ({"variant": "graphic", "edges": [[0, True]]}, "edges[0][1] must be an integer, got true"),
    ({"variant": "cographic", "edges": [[0, 1], [1, 2], [False, 2]]},
     "edges[2][0] must be an integer, got false"),
    ({"variant": "partition", "blocks": [[0, 1]], "caps": [True]},
     "caps[0] must be an integer, got true"),
    ({"variant": "partition", "blocks": [[0, True]], "caps": [1]},
     "blocks[0][1] must be an integer, got true"),
    ({"variant": "binary-linear", "matrix": [[1, True]]},
     "matrix[0][1] must be an integer, got true"),
], ids=["k", "n", "explicit-index", "endpoint", "endpoint-false", "cap", "block-index",
        "matrix-entry"])
def test_json_booleans_are_not_integers(d, message):
    with pytest.raises(ValidationError) as exc:
        matroid_from_dict(d)
    assert str(exc.value) == message


def test_load_matroid_rejects_bad_json(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_matroid(str(p))
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValidationError):
        load_matroid(str(p))


def test_load_matroid_round_trip(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"variant": "uniform", "n": 5, "k": 2}))
    spec = load_matroid(str(p))
    assert spec.variant == "uniform" and spec.n == 5 and spec.k == 2


def test_explicit_family_with_loop_element():
    # element 1 appears in no independent set: a loop of the matroid
    spec = matroid_from_dict({"variant": "explicit", "n": 2,
                              "independent_sets": [[], [0]]})
    o = build_oracle(spec)
    o.insert(1)
    assert not o.is_independent()


# ---------------------------------------------------------------------------
# oracle contract examples


def test_graphic_oracle_examples():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    o = build_oracle(spec, kind="rank")
    o.insert(0)
    o.insert(1)
    assert o.is_independent()    # two edges of a triangle: a forest
    assert o.rank() == 2
    o.insert(2)
    assert not o.is_independent()  # full cycle
    assert o.rank() == 2
    assert not o.rank_drops_on_delete(0)  # cycle edge carries no rank
    o.delete(2)
    assert o.rank_drops_on_delete(1)  # bridge in the path
    o.delete(0)
    o.delete(1)
    assert o.rank() == 0


def test_graphic_self_loop_behavior():
    spec = spec_of({"variant": "graphic", "edges": [[0, 1], [1, 1]]})
    o = build_oracle(spec, kind="rank")
    o.insert(1)  # the self-loop alone is already dependent
    assert not o.is_independent()
    assert o.rank() == 0
    assert not o.rank_drops_on_delete(1)
    o.insert(0)
    assert o.rank() == 1
    o.delete(1)  # without the loop, the one edge is a forest again
    assert o.is_independent()


def test_cographic_oracle_examples():
    spec = spec_of({"variant": "cographic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    o = build_oracle(spec)
    assert o.is_independent()  # removing nothing keeps the triangle connected
    o.insert(0)
    assert o.is_independent()  # one removed edge: complement is a path
    o.insert(1)
    assert not o.is_independent()  # two removed: complement disconnected
    o.delete(0)
    assert o.is_independent()


def test_cographic_independent_sets_enumeration():
    spec = spec_of({"variant": "cographic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    assert independent_masks(spec) == [0b000, 0b001, 0b010, 0b100]


def test_cographic_rank_examples():
    """rk*(S) = |S| + 1 - kappa(E \\ S) on the triangle, whose dual is U(1, 3)."""
    spec = matroid_from_dict({"variant": "cographic",
                              "edges": [list(e) for e in TRIANGLE_EDGES]})
    for backend in ("auto", "naive", "hdt"):
        o = build_oracle(spec, "rank", backend)
        assert type(o) is CographicOracle
        assert o.rank() == 0
        o.insert(0)
        assert o.rank() == 1 and o.rank_drops_on_delete(0)  # {0} is a basis
        o.insert(1)
        assert o.rank() == 1 and not o.is_independent()
        assert not o.rank_drops_on_delete(0)  # {1} is a basis too
        o.insert(2)
        assert o.rank() == 1
        o.delete(0)
        assert o.rank() == 1 and not o.rank_drops_on_delete(1)


COGRAPHIC_RANK_GRAPHS = {
    "triangle": TRIANGLE_EDGES,
    "K4": K4_EDGES,
    "K5": [(u, v) for u in range(5) for v in range(u + 1, 5)],
    # a 4-cycle with a loop (a coloop of the dual), a parallel pair and a chord
    "loop-multigraph": [(0, 1), (1, 2), (2, 3), (3, 0), (2, 2), (0, 1), (0, 2)],
}


@pytest.mark.parametrize("backend", ["naive", "hdt"])
@pytest.mark.parametrize("name", list(COGRAPHIC_RANK_GRAPHS))
def test_cographic_rank_matches_brute(name, backend):
    """rank and rank_drops_on_delete of the cographic oracle against the brute
    dual rank, over 600 random inserts and deletes."""
    edges = COGRAPHIC_RANK_GRAPHS[name]
    _run_differential({"variant": "cographic", "edges": [list(e) for e in edges]},
                      ops=600, seed=43, dyncon_backend=backend)


class _CountingGraph:
    """A dynamic graph that counts the mutations made through it."""

    def __init__(self, g):
        self._g = g
        self.mutations = 0

    def insert_edge(self, *args):
        self.mutations += 1
        self._g.insert_edge(*args)

    def delete_edge(self, key):
        self.mutations += 1
        self._g.delete_edge(key)

    def __getattr__(self, name):
        return getattr(self._g, name)


@pytest.mark.parametrize("variant,kind,cls", [
    ("graphic", "rank", GraphicOracle), ("cographic", "independence", CographicOracle)])
def test_graph_oracle_queries_do_not_mutate(variant, kind, cls):
    """On the naive backend no query inserts or deletes a dynamic-graph edge;
    both graph oracles answer rank, whichever kind was asked for."""
    edges = [[0, 1], [1, 2], [2, 0], [2, 3], [3, 3], [0, 1]]  # a loop, a parallel copy
    o = build_oracle(spec_of({"variant": variant, "edges": edges}), kind, "naive")
    assert type(o) is cls
    o._g = g = _CountingGraph(o._g)
    rng = np.random.default_rng(4)
    for _ in range(300):
        i = int(rng.integers(len(edges)))
        (o.delete if i in o.current else o.insert)(i)
        before = g.mutations
        o.is_independent()
        o.rank()
        for j in o.current:
            o.rank_drops_on_delete(j)
        assert g.mutations == before
    assert g.mutations == 300


# one spec per variant; the contract test holds {0, 1} and leaves 2 out
CONTRACT_SPECS = {
    "explicit": {"variant": "explicit", "n": 3,
                 "independent_sets": [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]]},
    "uniform": {"variant": "uniform", "n": 3, "k": 2},
    "partition": {"variant": "partition", "blocks": [[0, 1], [2]], "caps": [2, 1]},
    "graphic": {"variant": "graphic", "edges": [[0, 1], [1, 2], [2, 2]]},
    "cographic": {"variant": "cographic", "edges": [list(e) for e in TRIANGLE_EDGES]},
    "binary-linear": {"variant": "binary-linear", "matrix": [[1, 1, 0], [0, 0, 1]]},
}


@pytest.mark.parametrize("name", list(CONTRACT_SPECS))
def test_duplicate_insert_and_absent_delete(name):
    spec = matroid_from_dict(CONTRACT_SPECS[name])
    o = build_oracle(spec, kind="rank")
    ref = BruteMatroid(spec)
    o.insert(0)
    o.insert(1)
    indep = o.is_independent()
    assert indep == ref.is_independent(0b011)
    bad = [lambda: o.insert(-1), lambda: o.insert(spec.n), lambda: o.insert(1),
           lambda: o.insert(2.0), lambda: o.insert("2"), lambda: o.insert(True),
           lambda: o.delete(2), lambda: o.rank_drops_on_delete(2)]
    for call in bad:
        with pytest.raises(ContractError):
            call()
        assert o.current == {0, 1}
        assert o.is_independent() == indep
    # no failed call left the variant's own state behind: move to {0, 2}
    o.delete(1)
    o.insert(2)
    assert o.is_independent() == ref.is_independent(0b101)
    assert o.rank() == ref.rank(0b101)


@pytest.mark.parametrize("name", ["graphic", "uniform", "binary-linear"])
def test_insert_rejects_a_non_integer_element(name):
    """1.0 and "1" are no elements: the independence oracles' insert raises
    ContractError before any state changes (a graphic one used to hold 1.0,
    then fail in its hook; a uniform one took it).  A numpy integer is an
    element."""
    o = build_oracle(matroid_from_dict(CONTRACT_SPECS[name]))  # independence
    for bad in (1.0, "1"):
        with pytest.raises(ContractError, match="not an integer"):
            o.insert(bad)
        assert o.current == set()
    o.insert(np.int64(1))
    assert o.current == {1} and o.is_independent()


@pytest.mark.parametrize("name", list(CONTRACT_SPECS))
def test_unknown_dyncon_backend_rejected(name):
    """The backend name is checked for every variant, not only on graphs,
    so a chain built with a bad one fails at once."""
    spec = matroid_from_dict(CONTRACT_SPECS[name])
    for kind in ("independence", "rank"):
        with pytest.raises(ValidationError, match="dyncon_backend"):
            build_oracle(spec, kind, "bogus")
    with pytest.raises(ValidationError, match="dyncon_backend"):
        PolarizedChain(spec, Fields.constant(spec.n), ChainConfig(seed=0), dyncon_backend="bogus")


def test_binary_linear_duplicate_columns():
    # two identical nonzero columns: rank caps at 1
    spec = matroid_from_dict({"variant": "binary-linear", "matrix": [[1, 1]]})
    o = build_oracle(spec, kind="rank")
    o.insert(0)
    assert o.rank() == 1
    o.insert(1)
    assert o.rank() == 1
    assert not o.is_independent()


def test_binary_linear_three_identical_columns():
    spec = matroid_from_dict({"variant": "binary-linear",
                              "matrix": [[1, 1, 1], [1, 1, 1]]})
    o = build_oracle(spec, kind="rank")
    for i in range(3):
        o.insert(i)
    assert o.rank() == 1


def test_graph_specs_build_their_forest_graph_once():
    """A graphic spec's forest graph is its edges on dense vertex ids, and a
    planar cographic spec's is its plane dual; either is built once per spec
    and shared by every independence oracle on it.  Other specs, and a
    non-planar cographic one, have none."""
    g = spec_of({"variant": "graphic", "edges": [[5, 9], [9, 1000], [1000, 5], [9, 9]]})
    assert g.forest_graph == (3, [0, 1, 1, 2, 2, 0, 1, 1])
    c = spec_of({"variant": "cographic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    assert c.forest_graph[0] == 2  # the triangle's two faces
    for spec in (g, c):
        a, b = build_oracle(spec), build_oracle(spec)
        assert isinstance(a, ForestOracle) and a._end is b._end is spec.forest_graph[1]
    k5 = spec_of({"variant": "cographic",
                  "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]})
    assert k5.forest_graph is None and isinstance(build_oracle(k5), CographicOracle)
    assert spec_of({"variant": "uniform", "n": 3, "k": 1}).forest_graph is None


def test_uniform_partition_counters():
    u = build_oracle(matroid_from_dict({"variant": "uniform", "n": 4, "k": 2}),
                     kind="rank")
    assert u.is_independent()
    u.insert(0)
    u.insert(3)
    assert u.is_independent() and u.rank() == 2
    u.insert(2)
    assert not u.is_independent() and u.rank() == 2
    assert not u.rank_drops_on_delete(2)

    p = build_oracle(matroid_from_dict(
        {"variant": "partition", "blocks": [[0, 1], [2, 3]], "caps": [1, 2]}),
        kind="rank")
    p.insert(0)
    p.insert(1)
    assert not p.is_independent()
    assert p.rank() == 1


# ---------------------------------------------------------------------------
# differential: every backend against the brute-force oracle


DIFFERENTIAL_SPECS = [
    {"variant": "uniform", "n": 9, "k": 4},
    {"variant": "partition", "blocks": [[0, 1, 2], [3, 4, 5], [6, 7], [8]],
     "caps": [2, 1, 1, 1]},
    {"variant": "graphic",
     "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3], [2, 2], [0, 1]]},
    {"variant": "cographic", "edges": [list(e) for e in K4_EDGES]},
    {"variant": "binary-linear",
     "matrix": [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]},
]


def _explicit_from(spec_dict):
    """Materialize a spec's family as an explicit matroid (exercises that backend)."""
    base = matroid_from_dict(spec_dict)
    masks = independent_masks(base)
    fam = [[i for i in range(base.n) if m >> i & 1] for m in masks]
    return {"variant": "explicit", "n": base.n, "independent_sets": fam}


def _run_differential(spec_dict, ops, seed, dyncon_backend="auto"):
    spec = matroid_from_dict(spec_dict)
    oracle = build_oracle(spec, kind="rank", dyncon_backend=dyncon_backend)
    ref = BruteMatroid(spec)
    rng = np.random.default_rng(seed)
    cur = 0
    for step in range(ops):
        i = int(rng.integers(spec.n))
        if cur >> i & 1:
            oracle.delete(i)
            cur ^= 1 << i
        else:
            oracle.insert(i)
            cur |= 1 << i
        assert oracle.is_independent() == ref.is_independent(cur), (spec_dict, step)
        assert oracle.rank() == ref.rank(cur), (spec_dict, step)
        if cur and step % 3 == 0:
            members = [j for j in range(spec.n) if cur >> j & 1]
            j = members[int(rng.integers(len(members)))]
            want = ref.rank(cur) - ref.rank(cur ^ (1 << j)) == 1
            assert oracle.rank_drops_on_delete(j) == want, (spec_dict, step, j)


@pytest.mark.parametrize("spec_dict", DIFFERENTIAL_SPECS,
                         ids=[d["variant"] for d in DIFFERENTIAL_SPECS])
def test_oracle_differential(spec_dict):
    _run_differential(spec_dict, ops=4000, seed=17)


GRAPH_SPECS = [d for d in DIFFERENTIAL_SPECS if d["variant"] in ("graphic", "cographic")]


@pytest.mark.parametrize("backend", ["naive", "hdt"])
@pytest.mark.parametrize("spec_dict", GRAPH_SPECS, ids=[d["variant"] for d in GRAPH_SPECS])
def test_oracle_differential_dyncon_backends(spec_dict, backend):
    # "auto" picks naive for these small graphs; name each backend explicitly
    _run_differential(spec_dict, ops=4000, seed=29, dyncon_backend=backend)


def test_oracle_differential_explicit_backend():
    _run_differential(_explicit_from({"variant": "uniform", "n": 7, "k": 3}), 4000, 23)


def test_axioms_hold_on_fixture_specs():
    for d in DIFFERENTIAL_SPECS:
        spec = matroid_from_dict(d)
        if spec.n <= 8:
            assert is_matroid_family(spec.n, independent_masks(spec))


# ---------------------------------------------------------------------------
# the forest oracle's Euler-tour forest


def test_matroids_imports_no_private_dyncon_name():
    """ForestOracle owns its Euler-tour forest: matroids takes only the public
    dyn_graph from dyncon, none of HDT's aggregated splay internals."""
    path = REPO_ROOT / "src" / "matroid_mcmc" / "matroids.py"
    taken = [name for name in imported_names(path)
             if name.startswith((".dyncon.", "matroid_mcmc.dyncon."))]
    assert taken == [".dyncon.dyn_graph"]
    assert "dyncon._" not in path.read_text("utf-8")


def test_connectivity_wording_is_defined_once():
    """The graph connectivity rule has one wording in src/, matroids'
    CONNECTED_GRAPH_RULE, and no oracle class raises it: a spec's graph is
    checked where the spec is built, NetworkInstance's with the same words."""
    assert CONNECTED_GRAPH_RULE.startswith("graph must be connected")
    assert "cographic spec" not in CONNECTED_GRAPH_RULE
    found, raised = [], []
    for path in sorted((REPO_ROOT / "src" / "matroid_mcmc").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        found += [(path.name, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "graph must be connected" in node.value]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name.endswith("Oracle"):
                raised += [cls.name for node in ast.walk(cls) if isinstance(node, ast.Raise)
                           and "CONNECTED_GRAPH_RULE" in ast.unparse(node)]
    assert found == [("matroids.py", CONNECTED_GRAPH_RULE)]
    assert raised == []


def _check_tour_order(oracle, pairs):
    check_tour_order(dict(enumerate(oracle._nodes)), oracle._arcs, pairs)


def _random_forest_walk(oracle, pairs, nodes, rng, steps, each=None):
    """Link the path 0-1-...-(nodes-1) in random order, then run `steps`
    random links, cuts and same-tree queries, each checked against a
    union-find of the live edges; only an element that joins two trees is
    inserted, so each insert is a link and each delete a cut.  Calls
    each(step) after every operation; returns the count of each kind."""
    path = list(range(nodes - 1))
    rng.shuffle(path)
    for i in path:
        oracle.insert(i)
    done = {"link": 0, "cut": 0, "query": 0}
    comp = union_find_roots(nodes, [pairs[i] for i in oracle.current])
    for step in range(steps):
        op = rng.choice(["link", "cut", "query", "query"])
        if op == "link":
            joins = [i for i, (a, b) in enumerate(pairs)
                     if i not in oracle.current and comp[a] != comp[b]]
            if not joins:
                continue
            oracle.insert(rng.choice(joins))
        elif op == "cut":
            if not oracle.current:
                continue
            oracle.delete(rng.choice(sorted(oracle.current)))
        else:
            # one random pair, and a pair far apart on the path
            v = rng.randrange(nodes // 2)
            for a, b in ((rng.randrange(nodes), rng.randrange(nodes)), (v, v + nodes // 2)):
                same = tours.same_tree(oracle._nodes[a], oracle._nodes[b], tours.splay)
                assert same == (comp[a] == comp[b]), (step, a, b)
        done[op] += 1
        comp = union_find_roots(nodes, [pairs[i] for i in oracle.current])
        assert oracle.is_independent()
        # the trees number nodes - arcs; they are the components
        assert len(oracle._arcs) == nodes - len(set(comp)), step
        if each is not None:
            each(step)
    return done


def _path_and_chords(nodes, rng):
    pairs = [(v, v + 1) for v in range(nodes - 1)]
    pairs += [tuple(rng.sample(range(nodes), 2)) for _ in range(2 * nodes)]
    return pairs, ForestOracle(len(pairs), (nodes, [x for e in pairs for x in e]))


def test_tour_forest_matches_union_find(monkeypatch):
    """Mixed links, cuts and same-tree queries on 200 nodes, with the
    structural check after every operation and the tour order checked every
    100.  An element is a path edge or a random chord.  The path is linked
    first, in random order, into one tour of 200 nodes and 398 arcs, so links
    and cuts start deep in long tours."""
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    rng = random.Random(41)
    pairs, oracle = _path_and_chords(200, rng)
    assert oracle._debug
    _check_tour_order(oracle, pairs)

    def each(step):
        oracle._check_invariants()
        if step % 100 == 0:
            _check_tour_order(oracle, pairs)

    done = _random_forest_walk(oracle, pairs, 200, rng, 4000, each)
    assert min(done.values()) >= 800, done
    _check_tour_order(oracle, pairs)


def test_links_and_cuts_splay_at_most_three_times(monkeypatch):
    """A link splays both ends to their roots (the same-tree question) and
    joins once; a cut splays its two arcs and joins the outer parts.  Counted
    on every insert and delete of a random forest walk on 300 nodes."""
    rng = random.Random(43)
    pairs, oracle = _path_and_chords(300, rng)
    splays = [0]
    splay = tours.splay

    def counted(x):
        splays[0] += 1
        splay(x)

    monkeypatch.setattr(tours, "splay", counted)
    most = {"insert": 0, "delete": 0}
    for name in most:
        def measured(i, run=getattr(oracle, name), name=name):
            before = splays[0]
            run(i)
            most[name] = max(most[name], splays[0] - before)
        monkeypatch.setattr(oracle, name, measured)
    _random_forest_walk(oracle, pairs, 300, rng, 3000)
    assert 0 < most["insert"] <= 3 and 0 < most["delete"] <= 3, most
