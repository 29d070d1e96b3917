"""Shared fixtures: small graphs, matroid specs, and exact-law helpers."""

import ast
import os
from dataclasses import replace
from pathlib import Path

import pytest

from matroid_mcmc import Fields, StepStats, derive_seed, matroid_from_dict
from matroid_mcmc.exact import BruteMatroid, independent_masks
from reference import is_matroid_family

TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2)]
PATH4_EDGES = [(0, 1), (1, 2), (2, 3)]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# a self-loop (element 1) and a pair of parallel edges (0 and 2) on a 4-cycle
LOOP_PARALLEL_EDGES = [(0, 1), (1, 1), (0, 1), (1, 2), (2, 3), (3, 0)]

REPO_ROOT = Path(__file__).resolve().parents[1]


def grid_edges(rows, cols):
    """The rows x cols grid, vertex r·cols + c; each vertex's right edge, then
    its down edge, in row-major order (the benchmark's grid order)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append([v, v + 1])
            if r + 1 < rows:
                edges.append([v, v + cols])
    return edges


def union_find_roots(nodes, edges):
    """Each node's union-find root over `edges` (pairs of nodes)."""
    up = list(range(nodes))

    def find(x):
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for a, b in edges:
        up[find(a)] = find(b)
    return [find(x) for x in range(nodes)]


def _in_order(root):
    """The tour a splay tree holds: its in-order node sequence."""
    seq, stack, x = [], [], root
    while stack or x is not None:
        while x is not None:
            stack.append(x)
            x = x.left
        x = stack.pop()
        seq.append(x)
        x = x.right
    return seq


def _splay_root(x):
    while x.parent is not None:
        x = x.parent
    return x


def check_tour_order(nodes, arcs, ends):
    """Assert that between the two arcs of each tree edge, in its tour's
    order, lie exactly the vertex nodes of one side of that edge: one
    endpoint's component over the other tree edges.

    `nodes` maps each vertex to its tour node, `arcs` each tree edge's key
    to its two arc nodes, and `ends` the key to the edge's two vertices.
    """
    vertex = {id(x): v for v, x in nodes.items()}
    tours = {id(r): _in_order(r) for r in map(_splay_root, nodes.values())}
    where = {id(x): (t, k) for t, seq in tours.items() for k, x in enumerate(seq)}
    size = max(nodes, default=-1) + 1
    for i, (arc, twin) in arcs.items():
        (t, j), (t2, k) = where[id(arc)], where[id(twin)]
        assert t == t2, i
        j, k = sorted((j, k))
        between = {vertex[id(x)] for x in tours[t][j + 1:k] if id(x) in vertex}
        roots = union_find_roots(size, [ends[e] for e in arcs if e != i])
        sides = [{v for v in nodes if roots[v] == roots[end]} for end in ends[i]]
        assert between in sides, i


def imported_names(path):
    """Every module and name the imports of the source file `path` name; a
    relative one keeps its leading dots (`from .m import f` gives ".m" and
    ".m.f")."""
    for node in ast.walk(ast.parse(Path(path).read_text("utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = "." * node.level + (node.module or "")
            yield mod
            sep = "" if mod.endswith(".") else "."
            yield from (mod + sep + a.name for a in node.names)


def cli_env():
    """Environment for a ``python -m matroid_mcmc`` child process.

    Puts this checkout's absolute ``src`` ahead of any ``PYTHONPATH`` already
    set, so the child imports the code under test whatever its working
    directory, and whether or not some copy of the package is installed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spec_of(d):
    """Build a spec and sanity-check the matroid axioms before handing it out."""
    spec = matroid_from_dict(d)
    if spec.n <= 8:
        masks = independent_masks(spec)
        assert is_matroid_family(spec.n, masks), f"not a matroid: {d}"
    return spec


@pytest.fixture
def triangle_graphic():
    return spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})


@pytest.fixture
def triangle_cographic():
    return spec_of({"variant": "cographic", "edges": [list(e) for e in TRIANGLE_EDGES]})


@pytest.fixture
def uniform42():
    return spec_of({"variant": "uniform", "n": 4, "k": 2})


@pytest.fixture
def k4_graphic():
    return spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})


def ones(n):
    return Fields.constant(n, 1.0)


def masks_of(samples):
    return [sum(1 << i for i in s) for s in samples]


def brute(spec) -> BruteMatroid:
    return BruteMatroid(spec)


def sequential_samples(make_chain, cfg, count):
    """The sequential path at any ground-set size, as sampling runs it above
    VECTORIZED_MAX_N: chain i is make_chain(cfg keyed derive_seed(cfg.seed, i)).

    Returns (samples, stats) like the sampling functions.
    """
    stats = StepStats()
    samples = []
    for i in range(count):
        chain = make_chain(replace(cfg, seed=derive_seed(cfg.seed, i)))
        samples.append(chain.run())
        stats.merge(chain.stats)
    return samples, stats
