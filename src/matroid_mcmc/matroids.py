"""Matroid specifications, external fields, and incremental oracles.

A MatroidSpec names one of six concrete matroid variants; build_oracle turns
it into a stateful oracle over a mutable set S.  _BaseOracle owns the
contract: the checked insert / delete of one element, is_independent as
rank(S) == |S|, and the _add / _remove hooks through which a variant keeps
its own state in step.  Each variant adds only that state and its queries
(rank and rank_drops_on_delete on rank-capable variants; elsewhere they
raise).  GraphicOracle keeps S in a naive or HDT dynamic graph, each edge
(self-loops too) keyed by its element; CographicOracle swaps its hooks, so
that graph holds E \\ S.  ForestOracle keeps S as a spanning forest of its
edges, or of their plane dual for cographic independence on a planar graph;
build_oracle says which graph oracle serves which input.  The others use
counters, table lookup, or GF(2) elimination at desk scale.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import planar
from .config import debug_asserts_enabled
from .dyncon import _check_subtree, _ett_cut, _ett_link, _Node, _root, _same_tree, dyn_graph
from .errors import ContractError, UnsupportedOperationError, ValidationError

EXPLICIT_MAX_N = 24
_AUTO_NAIVE_MAX_VERTICES = 32

RANK_CAPABLE_VARIANTS = ("explicit", "uniform", "partition", "graphic", "binary-linear")
ALL_VARIANTS = RANK_CAPABLE_VARIANTS + ("cographic",)


class Fields:
    """External fields: one positive weight per ground-set element."""

    __slots__ = ("lam",)

    def __init__(self, lam):
        lam = [float(x) for x in lam]
        if not lam:
            raise ValidationError("fields vector must be nonempty")
        for i, x in enumerate(lam):
            if not (x > 0 and math.isfinite(x)):
                raise ValidationError(f"lambda[{i}] must be finite and > 0, got {x}")
        self.lam = lam

    def __len__(self):
        return len(self.lam)

    def proposal_weights(self, inverse: bool = False) -> list[float]:
        """A walk's proposal weights: λ, or 1/λ with inverse=True.

        Every walk draws its proposals against the running total of these
        weights, so a total that overflows a float would give a wrong law or
        no proposal at all: that raises ValidationError before the first step.
        """
        w = [1.0 / x for x in self.lam] if inverse else self.lam
        if not math.isfinite(sum(w)):
            what = "1/lambda" if inverse else "lambda"
            raise ValidationError(
                f"the sum of {what} overflows a float; "
                "the walk cannot draw proposals in proportion to it")
        return w

    @classmethod
    def constant(cls, n: int, value: float = 1.0) -> "Fields":
        return cls([value] * n)


@dataclass
class MatroidSpec:
    variant: str
    # variant-specific payload (unused fields stay None)
    n_elements: int = 0
    independent_sets: list[int] | None = None   # explicit: list of bitmasks
    k: int | None = None                        # uniform
    blocks: list[list[int]] | None = None       # partition
    caps: list[int] | None = None               # partition
    edges: list[tuple[int, int]] | None = None  # graphic / cographic
    vertices: int = 0                           # graphic / cographic (inferred)
    matrix: list[int] | None = None             # binary-linear: column bitmasks

    @property
    def n(self) -> int:
        return self.n_elements

    @property
    def rank_capable(self) -> bool:
        return self.variant != "cographic"

    def require_rank(self) -> None:
        """Raise UnsupportedOperationError unless the variant answers rank queries."""
        if not self.rank_capable:
            raise UnsupportedOperationError(
                f"variant {self.variant!r} supports independence queries only")


def _as_edge_list(raw, what: str):
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{what}: 'edges' must be a nonempty list of [u, v] pairs")
    edges = []
    for idx, e in enumerate(raw):
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, int) and x >= 0 for x in e)):
            raise ValidationError(f"{what}: edge {idx} must be a pair of vertex ids >= 0")
        edges.append((e[0], e[1]))
    return edges


def matroid_from_dict(d: dict) -> MatroidSpec:
    """Validate a MatroidSpec JSON object and build the spec."""
    if not isinstance(d, dict):
        raise ValidationError("matroid spec must be a JSON object")
    variant = d.get("variant")
    if variant not in ALL_VARIANTS:
        raise ValidationError(
            f"unknown matroid variant {variant!r}; expected one of {', '.join(ALL_VARIANTS)}")

    if variant == "explicit":
        n = d.get("n")
        if not isinstance(n, int) or not 1 <= n <= EXPLICIT_MAX_N:
            raise ValidationError(f"explicit spec needs integer 'n' in [1, {EXPLICIT_MAX_N}]")
        raw = d.get("independent_sets")
        if not isinstance(raw, list):
            raise ValidationError("explicit spec needs 'independent_sets': a list of index lists")
        masks = set()
        for idx, s in enumerate(raw):
            if not isinstance(s, list) or not all(isinstance(i, int) and 0 <= i < n for i in s):
                raise ValidationError(
                    f"independent_sets[{idx}] must list element indices in [0, {n})")
            if len(set(s)) != len(s):
                raise ValidationError(f"independent_sets[{idx}] has repeated elements")
            m = 0
            for i in s:
                m |= 1 << i
            masks.add(m)
        if 0 not in masks:
            raise ValidationError("explicit family must contain the empty set")
        for m in masks:
            for i in set_bits(m):
                if (m ^ 1 << i) not in masks:
                    raise ValidationError(
                        "explicit family is not downward closed "
                        f"(set {set_bits(m)} present, without element {i} absent)")
        return MatroidSpec("explicit", n_elements=n, independent_sets=sorted(masks))

    if variant == "uniform":
        n, k = d.get("n"), d.get("k")
        if not isinstance(n, int) or n < 1:
            raise ValidationError("uniform spec needs integer 'n' >= 1")
        if not isinstance(k, int) or not 0 <= k <= n:
            raise ValidationError("uniform spec needs integer 'k' with 0 <= k <= n")
        return MatroidSpec("uniform", n_elements=n, k=k)

    if variant == "partition":
        blocks, caps = d.get("blocks"), d.get("caps")
        if not isinstance(blocks, list) or not blocks or not isinstance(caps, list):
            raise ValidationError("partition spec needs 'blocks' (list of index lists) and 'caps'")
        if len(caps) != len(blocks):
            raise ValidationError("partition spec: 'caps' must match 'blocks' in length")
        seen: set[int] = set()
        total = 0
        for bi, b in enumerate(blocks):
            if not isinstance(b, list) or not b or not all(isinstance(i, int) and i >= 0 for i in b):
                raise ValidationError(f"blocks[{bi}] must be a nonempty list of element indices")
            for i in b:
                if i in seen:
                    raise ValidationError(f"element {i} appears in more than one block")
                seen.add(i)
            total += len(b)
            cap = caps[bi]
            if not isinstance(cap, int) or not 0 <= cap <= len(b):
                raise ValidationError(
                    f"caps[{bi}] must be an integer in [0, {len(b)}] (block size)")
        if seen != set(range(total)):
            raise ValidationError("blocks must partition the dense index range 0..n-1")
        return MatroidSpec("partition", n_elements=total,
                           blocks=[list(b) for b in blocks], caps=list(caps))

    if variant in ("graphic", "cographic"):
        edges = _as_edge_list(d.get("edges"), variant)
        vertices = max(max(e) for e in edges) + 1
        if variant == "cographic" and not edges_connected(vertices, edges):
            raise ValidationError(
                "cographic spec requires a connected ambient graph "
                "(connected-spanning-subgraph law is undefined otherwise)")
        return MatroidSpec(variant, n_elements=len(edges), edges=edges, vertices=vertices)

    # binary-linear
    raw = d.get("matrix")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("binary-linear spec needs a nonempty 'matrix' of 0/1 rows")
    width = None
    for ri, row in enumerate(raw):
        if not isinstance(row, list) or not all(x in (0, 1) for x in row):
            raise ValidationError(f"matrix row {ri} must be a list of 0/1 entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"matrix row {ri} has length {len(row)}, expected {width}")
    if not width:
        raise ValidationError("binary-linear matrix must have at least one column")
    cols = []
    for j in range(width):
        c = 0
        for ri, row in enumerate(raw):
            if row[j]:
                c |= 1 << ri
        cols.append(c)
    return MatroidSpec("binary-linear", n_elements=width, matrix=cols)


def load_matroid(path: str) -> MatroidSpec:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    return matroid_from_dict(d)


def set_bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def edges_connected(vertices: int, edges) -> bool:
    """Whether the edges (self-loops allowed) span all of 0..vertices-1."""
    if vertices - 1 > len(edges):  # fewer than a spanning tree: answer before allocating
        return False
    adj = [[] for _ in range(vertices)]
    for u, v in edges:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * vertices
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == vertices


# ---------------------------------------------------------------------------
# Incremental oracles
# ---------------------------------------------------------------------------

class _BaseOracle:
    """The oracle contract, shared by every variant.

    insert(i) adds an element of [0, n) that is not in `current`; delete(i)
    removes one that is.  Called on any other element, either raises
    ContractError and changes nothing.  Each then calls its hook, _add(i) or
    _remove(i) (no-ops here), for the variant's own state.  Queries leave
    `current` as it was; is_independent defaults to rank() == |current|,
    and rank and rank_drops_on_delete raise UnsupportedOperationError until
    a variant defines them.
    """

    def __init__(self, n: int):
        self.n = n
        self.current: set[int] = set()

    def insert(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ContractError(f"element {i} outside ground set [0, {self.n})")
        if i in self.current:
            raise ContractError(f"element {i} is already in the oracle's set")
        self.current.add(i)
        self._add(i)

    def delete(self, i: int) -> None:
        self._check_present(i)
        self.current.remove(i)
        self._remove(i)

    def _check_present(self, i: int) -> None:
        if i not in self.current:
            raise ContractError(f"element {i} is not in the oracle's set")

    def _add(self, i: int) -> None:
        """Hook: i has just joined `current`."""

    def _remove(self, i: int) -> None:
        """Hook: i has just left `current`."""

    def is_independent(self) -> bool:
        return self.rank() == len(self.current)

    def rank(self, *_) -> int:
        raise UnsupportedOperationError(f"{type(self).__name__} answers independence only")

    rank_drops_on_delete = rank


class ExplicitOracle(_BaseOracle):
    def __init__(self, spec: MatroidSpec):
        super().__init__(spec.n)
        self._family = set(spec.independent_sets)
        self._mask = 0

    def _add(self, i: int) -> None:
        self._mask |= 1 << i

    def _remove(self, i: int) -> None:
        self._mask ^= 1 << i

    def is_independent(self) -> bool:
        return self._mask in self._family

    def _rank_of(self, mask: int) -> int:
        # the family holds the empty set, so some member lies inside mask
        return max(f.bit_count() for f in self._family if not f & ~mask)

    def rank(self) -> int:
        return self._rank_of(self._mask)

    def rank_drops_on_delete(self, i: int) -> bool:
        self._check_present(i)
        return self._rank_of(self._mask ^ (1 << i)) < self._rank_of(self._mask)


class UniformOracle(_BaseOracle):
    def __init__(self, spec: MatroidSpec):
        super().__init__(spec.n)
        self.k = spec.k

    def rank(self) -> int:
        return min(len(self.current), self.k)

    def rank_drops_on_delete(self, i: int) -> bool:
        self._check_present(i)
        return len(self.current) <= self.k


class PartitionOracle(_BaseOracle):
    def __init__(self, spec: MatroidSpec):
        super().__init__(spec.n)
        self._block_of = [0] * spec.n
        for bi, b in enumerate(spec.blocks):
            for i in b:
                self._block_of[i] = bi
        self._caps = list(spec.caps)
        self._counts = [0] * len(spec.blocks)

    def _add(self, i: int) -> None:
        self._counts[self._block_of[i]] += 1

    def _remove(self, i: int) -> None:
        self._counts[self._block_of[i]] -= 1

    def rank(self) -> int:
        return sum(min(c, cap) for c, cap in zip(self._counts, self._caps))

    def rank_drops_on_delete(self, i: int) -> bool:
        self._check_present(i)
        b = self._block_of[i]
        return self._counts[b] <= self._caps[b]


class GraphicOracle(_BaseOracle):
    """Forest/rank oracle over the spec's edge list; rk(S) = |V| - kappa(S).

    The dynamic graph holds S keyed by element, self-loops too (a loop adds 1
    to |S| and 0 to the rank); rank_drops_on_delete is one `connected` query.
    """

    def __init__(self, spec: MatroidSpec, dyncon_backend: str):
        super().__init__(spec.n)
        self._edges = spec.edges
        self._g = dyn_graph(spec.vertices, backend=dyncon_backend)

    def _add(self, i: int) -> None:
        u, v = self._edges[i]
        self._g.insert_edge(i, u, v)

    def _remove(self, i: int) -> None:
        self._g.delete_edge(i)

    def rank(self) -> int:
        return self._g.vertex_count - self._g.component_count()

    def rank_drops_on_delete(self, i: int) -> bool:
        self._check_present(i)
        u, v = self._edges[i]
        return u != v and not self._g.connected(u, v, i)


class CographicOracle(GraphicOracle):
    """Independence-only oracle: S independent iff G[E \\ S] stays connected.

    The graphic oracle with its hooks swapped: its graph holds E \\ S, so
    oracle insert deletes an edge and oracle delete re-inserts it.
    """

    _add = GraphicOracle._remove
    _remove = GraphicOracle._add

    def __init__(self, spec: MatroidSpec, dyncon_backend: str):
        super().__init__(spec, dyncon_backend)
        for i, (u, v) in enumerate(spec.edges):
            self._g.insert_edge(i, u, v)

    def is_independent(self) -> bool:
        return self._g.component_count() == 1

    rank = rank_drops_on_delete = _BaseOracle.rank


class ForestOracle(_BaseOracle):
    """Independence oracle: a spanning forest over `ends`, with no levels.

    `ends` is (node count, end): element i joins nodes end[2i] and
    end[2i + 1], and S is independent iff its edges form a forest there.
    For a graphic spec the ends are the primal graph's; for a cographic spec
    on a connected plane graph they are the plane dual's (planar.dual_graph),
    since by Whitney duality M*(G) = M(G*).  Each node is a vertex of a
    forest of Euler tours (dyncon's splay trees).  Its tree edges are the
    elements of S except the "extras": elements whose two nodes were already
    joined when they came in (a self-loop, or a copy of a tree edge, is
    always one).  S is independent iff there is no extra.  delete cuts the
    tree edge, then relinks the first extra that now joins two trees, so the
    trees always span the components of S, with no replacement search.  The
    walk holds at most one extra, and only between its insert and its delete.
    """

    def __init__(self, n: int, ends: tuple[int, list[int]]):
        super().__init__(n)
        nodes, self._end = ends
        self._nodes = [_Node(vertex=v) for v in range(nodes)]
        self._arcs: dict[int, tuple[_Node, _Node]] = {}
        self._extras: dict[int, None] = {}  # an insertion-ordered set
        self._debug = debug_asserts_enabled()

    def _ends(self, i: int) -> tuple[_Node, _Node]:
        return self._nodes[self._end[2 * i]], self._nodes[self._end[2 * i + 1]]

    def _link(self, i: int, a: _Node, b: _Node) -> None:
        arcs = self._arcs[i] = (_Node(edge=i), _Node(edge=i))
        _ett_link(a, b, *arcs)

    def _add(self, i: int) -> None:
        a, b = self._ends(i)
        if _same_tree(a, b):
            self._extras[i] = None
        else:
            self._link(i, a, b)
        if self._debug:
            self._check_invariants()

    def _remove(self, i: int) -> None:
        arcs = self._arcs.pop(i, None)
        if arcs is None:
            del self._extras[i]
        else:
            _ett_cut(*arcs)
            for j in self._extras:
                a, b = self._ends(j)
                if not _same_tree(a, b):
                    del self._extras[j]
                    self._link(j, a, b)
                    break
        if self._debug:
            self._check_invariants()

    def is_independent(self) -> bool:
        return not self._extras

    def _check_invariants(self) -> None:
        """Assert the forest invariants (MATROID_MCMC_DEBUG_ASSERTS=1); O(nodes
        + |S|), run after each mutation.

        The tree arcs are exactly the non-extra elements of S, each in the
        tree of its two nodes; each extra's two nodes lie in one tree; the
        trees number nodes - arcs; every splay node's aggregates match.
        """
        arcs, extras, nodes = self._arcs, self._extras, self._nodes
        assert arcs.keys() | extras.keys() == self.current \
            and not arcs.keys() & extras.keys()
        roots = {id(r): r for r in map(_root, nodes)}
        assert len(roots) == len(nodes) - len(arcs), (len(roots), len(nodes), len(arcs))
        assert sum(map(_check_subtree, roots.values())) == len(nodes) + 2 * len(arcs)
        for i, (p, q) in arcs.items():
            a, b = self._ends(i)
            assert p.edge == q.edge == i and _root(p) is _root(q) is _root(a) is _root(b), i
        for j in extras:
            a, b = self._ends(j)
            assert _root(a) is _root(b), j


class BinaryLinearOracle(_BaseOracle):
    """Columns over GF(2); rank recomputed by bitmask elimination per query."""

    def __init__(self, spec: MatroidSpec):
        super().__init__(spec.n)
        self._cols = spec.matrix

    def _rank_of(self, elements) -> int:
        # xor basis with distinct leading bits, kept in descending order so a
        # single pass fully reduces each new column
        basis: list[int] = []
        for i in elements:
            c = self._cols[i]
            for b in basis:
                if (c ^ b) < c:
                    c ^= b
            if c:
                basis.append(c)
                basis.sort(reverse=True)
        return len(basis)

    def rank(self) -> int:
        return self._rank_of(self.current)

    def rank_drops_on_delete(self, i: int) -> bool:
        self._check_present(i)
        return self._rank_of(self.current - {i}) < self.rank()


def greedy_basis(oracle, n: int) -> list[int]:
    """A basis of the ground set [0, n), found by index-order greedy insertion.

    Takes an empty rank oracle, inserts each element in turn and keeps it iff
    the rank grows.  Returns the kept elements, ascending, and leaves exactly
    them in the oracle.
    """
    basis = []
    for i in range(n):
        oracle.insert(i)
        if oracle.rank() > len(basis):
            basis.append(i)
        else:
            oracle.delete(i)
    return basis


def build_oracle(spec: MatroidSpec, kind: str = "independence",
                 dyncon_backend: str = "auto"):
    """Oracle with current = empty set; kind is "independence" or "rank".

    dyncon_backend "hdt" or "naive" pins a graph oracle's connectivity
    backend.  "auto" picks naive up to _AUTO_NAIVE_MAX_VERTICES vertices and
    HDT above, except for independence queries on a graph above it: a graphic
    spec gets ForestOracle over its edges (vertex ids relabelled densely, so
    a sparse id costs nothing), and a cographic spec on a planar graph gets
    ForestOracle over the plane dual.
    """
    if kind not in ("independence", "rank"):
        raise ValidationError(f"oracle kind must be 'independence' or 'rank', got {kind!r}")
    if kind == "rank":
        spec.require_rank()
    if spec.variant in ("graphic", "cographic"):
        if dyncon_backend == "auto":
            dyncon_backend = "naive" if spec.vertices <= _AUTO_NAIVE_MAX_VERTICES else "hdt"
            if dyncon_backend == "hdt" and kind == "independence":
                if spec.variant == "graphic":
                    ids: dict[int, int] = {}
                    end = [ids.setdefault(x, len(ids)) for e in spec.edges for x in e]
                    ends = len(ids), end
                else:
                    ends = planar.dual_graph(spec.vertices, spec.edges)
                if ends is not None:
                    return ForestOracle(spec.n, ends)
        oracle = GraphicOracle if spec.variant == "graphic" else CographicOracle
        return oracle(spec, dyncon_backend)
    return {"explicit": ExplicitOracle, "uniform": UniformOracle, "partition": PartitionOracle,
            "binary-linear": BinaryLinearOracle}[spec.variant](spec)
