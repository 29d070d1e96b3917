"""Matroid specifications, external fields, and incremental oracles.

A MatroidSpec names one of six concrete matroid variants and checks its own
rules where it is built (matroid_from_dict reads only the JSON's shape);
build_oracle turns it into a stateful oracle over a mutable set S.
_BaseOracle owns the contract: the checked insert / delete of one element,
is_independent as rank(S) == |S|, and the _add / _remove hooks through which
a variant keeps its own state in step.  Each variant adds only that state
and its queries, rank and rank_drops_on_delete among them.  GraphicOracle
keeps S in a naive or HDT dynamic graph, each edge (self-loops too) keyed by
its element; CographicOracle swaps its hooks, so that graph holds E \\ S.
ForestOracle answers independence only: it keeps S as a spanning forest of
its edges, or of their plane dual for cographic independence on a planar
graph, in the plain Euler-tour forest of tours.py, which keeps no
aggregates, so its debug check is structural; this module holds specs and
oracles only.  A spec builds that forest's graph at most once
(MatroidSpec.forest_graph).  build_oracle says which oracle answers which
question.  The others use counters, table lookup, or GF(2) elimination at
desk scale.  greedy_basis is the one index-order greedy basis, found with
independence queries alone.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from . import planar, tours
from .config import debug_asserts_enabled
from .dyncon import dyn_graph
from .errors import ContractError, UnsupportedOperationError, ValidationError

EXPLICIT_MAX_N = 24
_AUTO_NAIVE_MAX_VERTICES = 32


class FieldRuleError(ValidationError):
    """Weight `index` of a Fields vector is not finite and > 0."""

    def __init__(self, index: int, x: float):
        super().__init__(f"lambda[{index}] must be finite and > 0, got {x}")
        self.index = index


class Fields:
    """External fields: one positive weight per ground-set element."""

    __slots__ = ("lam",)

    def __init__(self, lam):
        lam = [float(x) for x in lam]
        if not lam:
            raise ValidationError("fields vector must be nonempty")
        for i, x in enumerate(lam):
            if not (x > 0 and math.isfinite(x)):
                raise FieldRuleError(i, x)
        self.lam = lam

    def require_size(self, n: int) -> None:
        """Raise ValidationError unless there is one weight per element of [0, n)."""
        if len(self.lam) != n:
            raise ValidationError(
                f"the fields vector has {len(self.lam)} weights; the ground set has {n} elements")

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


def check_q(q: float) -> None:
    """Raise ValidationError unless q, a random-cluster parameter, lies in [0, 1]
    (nan does not)."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"q must lie in [0, 1], got {q}")


_PAYLOAD = {"explicit": ("independent_sets",), "uniform": ("k",), "partition": ("blocks", "caps"),
            "graphic": ("edges",), "binary-linear": ("matrix",), "cographic": ("edges",)}
CONNECTED_GRAPH_RULE = "graph must be connected (a connected-spanning or reliability law needs it)"


@dataclass(frozen=True)
class MatroidSpec:
    """A matroid on [0, n_elements) that checks its own rules where it is built."""

    variant: str
    # variant-specific payload (_PAYLOAD; unused fields stay None)
    n_elements: int = 0
    independent_sets: list[int] | None = None   # explicit: list of bitmasks
    k: int | None = None                        # uniform
    blocks: list[list[int]] | None = None       # partition
    caps: list[int] | None = None               # partition
    edges: list[tuple[int, int]] | None = None  # graphic / cographic
    vertices: int = 0                           # graphic / cographic (inferred)
    matrix: list[int] | None = None             # binary-linear: column bitmasks

    def __post_init__(self):
        v, n, nv = self.variant, self.n_elements, self.vertices
        if type(v) is not str or v not in _PAYLOAD:
            raise ValidationError(
                f"unknown matroid variant {v!r}; expected one of {', '.join(_PAYLOAD)}")
        for name in _PAYLOAD[v]:
            if getattr(self, name) is None:
                raise ValidationError(f"{v} spec needs '{name}'")
        count = n  # the payload's element count
        if v == "explicit":
            if n > EXPLICIT_MAX_N:
                raise ValidationError(f"explicit spec needs n <= {EXPLICIT_MAX_N}, got {n}")
            family = set(self.independent_sets)
            if 0 not in family:
                raise ValidationError("explicit family must contain the empty set")
            for m in family:
                if m < 0 or m.bit_length() > n:
                    raise ValidationError(f"explicit family has a set outside [0, {n})")
                for i in set_bits(m):
                    if (m ^ 1 << i) not in family:
                        raise ValidationError(
                            "explicit family is not downward closed "
                            f"(set {set_bits(m)} present, without element {i} absent)")
        elif v == "uniform":
            if not 0 <= self.k <= n:
                raise ValidationError(f"uniform spec needs 0 <= k <= n, got k = {self.k}, n = {n}")
        elif v == "partition":
            if len(self.caps) != len(self.blocks):
                raise ValidationError("partition spec: 'caps' must match 'blocks' in length")
            for bi, (b, cap) in enumerate(zip(self.blocks, self.caps)):
                if not b or not 0 <= cap <= len(b):
                    raise ValidationError(
                        f"blocks[{bi}] must be nonempty, and caps[{bi}] in [0, {len(b)}]")
            count = sum(map(len, self.blocks))
            if {i for b in self.blocks for i in b} != set(range(n)):
                raise ValidationError(f"blocks must partition the index range [0, {n})")
        elif v == "binary-linear":
            count = len(self.matrix)
        else:
            count = len(self.edges)
            for i, (a, b) in enumerate(self.edges):
                if not (0 <= a < nv and 0 <= b < nv):
                    raise ValidationError(f"edge {i}: vertex ids must lie in [0, {nv})")
            if v == "cographic" and not edges_connected(nv, self.edges):
                raise ValidationError(CONNECTED_GRAPH_RULE)
        if n != count:
            raise ValidationError(f"n_elements is {n}, but the {v} payload has {count} elements")
        if n < 1:
            raise ValidationError(f"{v} spec has no elements")

    @property
    def n(self) -> int:
        return self.n_elements

    @cached_property
    def forest_graph(self) -> tuple[int, list[int]] | None:
        """The graph whose forests are this spec's independent sets, in
        ForestOracle's (node count, end) form: a graphic spec's edges on dense
        vertex ids, or a cographic spec's plane dual (planar.dual_graph); None
        for a non-planar graph or another variant.  Kept once computed."""
        if self.variant == "cographic":
            return planar.dual_graph(self.vertices, self.edges)
        if self.variant == "graphic":
            ids: dict[int, int] = {}  # a sparse vertex id costs nothing
            end = [ids.setdefault(x, len(ids)) for e in self.edges for x in e]
            return len(ids), end
        return None


def _int(x, what: str) -> int:
    if type(x) is not int:  # JSON true and false are no integers
        raise ValidationError(f"{what} must be an integer, got {json.dumps(x)}")
    return x


def _list(x, what: str, item=_int, size=None) -> list:
    if not isinstance(x, list) or size and len(x) != size:
        raise ValidationError(f"{what} must be a list" + (f" of {size}" if size else ""))
    try:  # no entry's name is formatted unless some entry is wrong
        return [item(e, what) for e in x]
    except ValidationError:
        return [item(e, f"{what}[{i}]") for i, e in enumerate(x)]


def _pair(x, what: str) -> tuple[int, int]:
    if type(x) is list and len(x) == 2 and type(x[0]) is int and type(x[1]) is int:
        return x[0], x[1]
    return tuple(_list(x, what, _int, 2))  # any other shape: _list words the error


def _family(x, what: str) -> list[int]:
    """Index lists (no index repeated in one) as sorted distinct bitmasks; an index outside
    [0, EXPLICIT_MAX_N) sets bit EXPLICIT_MAX_N (never a huge bit), which MatroidSpec rejects."""
    masks = set()
    for idx, s in enumerate(_list(x, what, _list)):
        if len(set(s)) != len(s):
            raise ValidationError(f"{what}[{idx}] has repeated elements")
        masks.add(sum(1 << (i if 0 <= i < EXPLICIT_MAX_N else EXPLICIT_MAX_N) for i in s))
    return sorted(masks)


def _columns(x, what: str) -> list[int]:
    """Rows of 0/1 entries, each as wide as the first, as column bitmasks."""
    rows = _list(x, what, _list)
    width = len(rows[0]) if rows else 0
    for ri, row in enumerate(rows):
        if len(row) != width or not set(row) <= {0, 1}:
            raise ValidationError(f"{what}[{ri}] must be {width} entries, each 0 or 1")
    return [sum(row[j] << ri for ri, row in enumerate(rows)) for j in range(width)]


def matroid_from_dict(d: dict) -> MatroidSpec:
    """Build a MatroidSpec from its JSON object.  The readers above check only
    the JSON's shape (true and false are no integers); a missing payload field
    is passed on as None, and MatroidSpec checks every rule of the spec."""
    if not isinstance(d, dict):
        raise ValidationError("matroid spec must be a JSON object")

    def given(key, read, *args):
        return read(d[key], key, *args) if key in d else None

    variant = d.get("variant")
    if variant == "explicit":
        return MatroidSpec(variant, _int(d.get("n", 0), "n"),
                           independent_sets=given("independent_sets", _family))
    if variant == "uniform":
        return MatroidSpec(variant, _int(d.get("n", 0), "n"), k=given("k", _int))
    if variant == "partition":
        blocks = given("blocks", _list, _list)
        return MatroidSpec(variant, sum(map(len, blocks or ())), blocks=blocks,
                           caps=given("caps", _list))
    if variant in ("graphic", "cographic"):
        edges = given("edges", _list, _pair)
        return MatroidSpec(variant, len(edges or ()), edges=edges,
                           vertices=1 + max(map(max, edges or ()), default=-1))
    cols = given("matrix", _columns) if variant == "binary-linear" else None
    return MatroidSpec(variant, len(cols or ()), matrix=cols)  # rejects any other variant


def read_text(path: str) -> str:
    """The text of an input file, which must be UTF-8: else ValidationError names it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None


def load_matroid(path: str) -> MatroidSpec:
    try:
        d = json.loads(read_text(path))
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
    """Whether the edges (self-loops allowed) span all vertices 0..vertices-1, if any."""
    if not 0 < vertices <= len(edges) + 1:  # no vertex, or fewer edges than a tree
        return vertices == 0  # answered before allocating
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
    removes one that is.  An element is an integer (numpy's too; a bool or
    a float is none).  Called on any other element, either raises
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
        if type(i) is not int and (isinstance(i, bool) or not isinstance(i, numbers.Integral)):
            raise ContractError(f"element {i!r} is not an integer")
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
    """Cographic oracle: S is independent iff G[E \\ S] stays connected.

    The graphic oracle with its hooks swapped: its graph holds E \\ S, so
    oracle insert deletes an edge and oracle delete re-inserts it.  On a
    connected G the dual rank is rk*(S) = |S| + rk(E \\ S) - rk(E) =
    |S| + 1 - kappa(E \\ S), so deleting i from S drops it iff i is a
    self-loop or its ends are already joined in E \\ S.  G is connected:
    MatroidSpec rejects a disconnected one.
    """

    _add = GraphicOracle._remove
    _remove = GraphicOracle._add

    def __init__(self, spec: MatroidSpec, dyncon_backend: str):
        super().__init__(spec, dyncon_backend)
        for i, (u, v) in enumerate(spec.edges):
            self._g.insert_edge(i, u, v)

    def rank(self) -> int:
        return len(self.current) + 1 - self._g.component_count()

    def rank_drops_on_delete(self, i: int) -> bool:
        self._check_present(i)
        u, v = self._edges[i]
        return u == v or self._g.connected(u, v)


class ForestOracle(_BaseOracle):
    """Independence oracle: a spanning forest over `ends`, with no levels.

    `ends` is (node count, end): element i joins nodes end[2i] and
    end[2i + 1], and S is independent iff its edges form a forest there.
    For a graphic spec the ends are the primal graph's; for a cographic spec
    on a connected plane graph they are the plane dual's (spec.forest_graph),
    since by Whitney duality M*(G) = M(G*).  Each node is a vertex of a
    forest of Euler tours (tours.py, whose plain splay trees keep no
    aggregates).  Its tree edges are the elements of S except the "extras":
    elements whose two nodes were already joined when they came in (a
    self-loop, or a copy of a tree edge, is always one).  S is independent
    iff there is no extra.  delete cuts the tree edge, then relinks the first
    extra that now joins two trees, so the trees always span the components
    of S, with no replacement search.  The walk holds at most one extra, and
    only between its insert and its delete.
    """

    def __init__(self, n: int, ends: tuple[int, list[int]]):
        super().__init__(n)
        nodes, self._end = ends
        self._nodes = [tours.Node() for _ in range(nodes)]
        self._arcs: dict[int, tuple[tours.Node, tours.Node]] = {}
        self._extras: dict[int, None] = {}  # an insertion-ordered set
        self._debug = debug_asserts_enabled()

    def _ends(self, i: int) -> tuple[tours.Node, tours.Node]:
        return self._nodes[self._end[2 * i]], self._nodes[self._end[2 * i + 1]]

    def _add(self, i: int) -> None:
        a, b = self._ends(i)
        if tours.same_tree(a, b, tours.splay):
            self._extras[i] = None
        else:
            self._arcs[i] = tours.link(a, b)
        if self._debug:
            self._check_invariants()

    def _remove(self, i: int) -> None:
        arcs = self._arcs.pop(i, None)
        if arcs is None:
            del self._extras[i]
        else:
            arc, twin = arcs
            tours.cut(arc, twin, tours.splay, tours.join)
            for j in self._extras:
                a, b = self._ends(j)
                if not tours.same_tree(a, b, tours.splay):
                    del self._extras[j]
                    self._arcs[j] = tours.link(a, b)
                    break
        if self._debug:
            self._check_invariants()

    def is_independent(self) -> bool:
        return not self._extras

    def _check_invariants(self) -> None:
        """Assert the forest's structure (MATROID_MCMC_DEBUG_ASSERTS=1); O(nodes
        + |S|), run after each mutation.

        The tree arcs are exactly the non-extra elements of S and form a
        forest of tours over the nodes (tours.check); each extra's two nodes
        lie in one tree.
        """
        arcs, extras = self._arcs, self._extras
        assert arcs.keys() | extras.keys() == self.current \
            and not arcs.keys() & extras.keys()
        tours.check(self._nodes, {i: (*p, *self._ends(i)) for i, p in arcs.items()})
        for j in extras:
            a, b = self._ends(j)
            assert tours.root(a) is tours.root(b), j


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

    Takes an empty oracle, inserts each element in turn and keeps it iff the
    set stays independent: for an independent S, S + i is independent iff
    the rank grows.  Returns the kept elements, ascending, and leaves exactly
    them in the oracle.
    """
    basis = []
    for i in range(n):
        oracle.insert(i)
        if oracle.is_independent():
            basis.append(i)
        else:
            oracle.delete(i)
    return basis


def build_oracle(spec: MatroidSpec, kind: str = "independence",
                 dyncon_backend: str = "auto"):
    """Oracle with current = empty set; kind is "independence" or "rank".

    Under dyncon_backend "auto", independence on a graph is a spanning-forest
    question at any size: a graphic spec, and a cographic spec on a planar
    graph, get ForestOracle over spec.forest_graph (its edges or the plane
    dual, built once per spec).
    Rank queries and non-planar cographic specs get the dynamic-graph oracle,
    on the naive backend up to _AUTO_NAIVE_MAX_VERTICES vertices and HDT
    above.  dyncon_backend "hdt" or "naive" pins that backend and always
    builds the dynamic-graph oracle.
    """
    if kind not in ("independence", "rank"):
        raise ValidationError(f"oracle kind must be 'independence' or 'rank', got {kind!r}")
    if dyncon_backend not in ("auto", "naive", "hdt"):
        raise ValidationError(
            f"dyncon_backend must be 'auto', 'naive' or 'hdt', got {dyncon_backend!r}")
    if spec.variant in ("graphic", "cographic"):
        if dyncon_backend == "auto":
            if kind == "independence" and spec.forest_graph is not None:
                return ForestOracle(spec.n, spec.forest_graph)
            dyncon_backend = "naive" if spec.vertices <= _AUTO_NAIVE_MAX_VERTICES else "hdt"
        oracle = GraphicOracle if spec.variant == "graphic" else CographicOracle
        return oracle(spec, dyncon_backend)
    return {"explicit": ExplicitOracle, "uniform": UniformOracle, "partition": PartitionOracle,
            "binary-linear": BinaryLinearOracle}[spec.variant](spec)
