"""Fully dynamic graph connectivity.

Two interchangeable backends behind `dyn_graph`.  The caller keys edges by
non-negative ints not live already (`insert_edge(key, u, v)`, `delete_edge(key)`);
`connected(u, v, skip)` asks if u and v stay joined without `skip`, a live u-v edge.

* ``hdt`` — the Holm–de Lichtenberg–Thorup level scheme: every edge carries a
  level, F_i is a spanning forest of the edges with level >= i (F_0 is the
  forest answering queries), and each forest is stored as Euler tours in
  splay trees with parent pointers.  A splay node packs its own flags into
  one int and ORs them over its subtree next to a vertex count; a splay step
  refreshes only the nodes it moves down.  The tours are the ones
  matroids.ForestOracle keeps (tours.py): HDT passes its aggregate-refreshing
  _splay and _join to the shared same-tree test and in-place cut, and its
  own _ett_link splices as tours.link does; at most three splays a forest
  each.  Deleting a tree edge searches the smaller half for a replacement,
  promoting inspected edges one level up so each edge is inspected
  O(log n) times; insert/delete/query are O(log^2 n) amortized.  Only a
  tree `skip` is cut to answer a query: the replacement search's result is
  the answer, and `skip` is relinked.
* ``naive`` — stores the edge multiset as per-vertex neighbour counts, so a
  mutation is O(1); `connected` grows a search from each endpoint, one
  vertex of each side in turn, and stops when the sides meet (joined) or
  either side runs out (not joined), so a bridge costs about twice its
  smaller side whatever the graph's size (Even & Shiloach's search, "An
  on-line edge-deletion problem", J. ACM 1981), and O(n + m) at worst; a
  parallel copy of `skip` answers at once, and `skip` itself is never
  crossed.  `component_count` traverses the whole graph.  Besides serving
  as the differential-testing oracle and the scaling baseline, it is what
  matroids.build_oracle's `auto` picks for a rank oracle, and for a
  non-planar cographic spec, on up to 32 vertices (so the random-cluster
  walk on a small graph runs on it).

Both accept multigraphs; self-loops are stored but never affect connectivity.
"""
from __future__ import annotations

from . import tours
from .config import debug_asserts_enabled
from .errors import ContractError, ValidationError


# ---------------------------------------------------------------------------
# HDT's aggregated Euler-tour nodes (the tour steps they share are tours.py's)
# ---------------------------------------------------------------------------

NT = 1    # vertex node: the vertex has non-tree edges at this forest's level
TREE = 2  # arc node: its tree edge's level equals this forest's level


class _Node:
    """One Euler-tour position: a vertex occurrence or a tree-edge arc.

    `flags` packs the node's own bits (NT, TREE) into one int and `agg` ORs
    them over the subtree; `own` is the node's own vertex count (1 for a
    vertex occurrence, 0 for an arc) and `cnt_v` sums it over the subtree.
    """

    __slots__ = ("parent", "left", "right", "vertex", "edge",
                 "own", "cnt_v", "flags", "agg")

    def __init__(self, vertex: int = -1, edge: int = -1, flags: int = 0):
        self.parent = None
        self.left = None
        self.right = None
        self.vertex = vertex
        self.edge = edge
        self.own = self.cnt_v = 1 if vertex >= 0 else 0
        self.flags = self.agg = flags


def _update(x: _Node) -> None:
    c = x.own
    a = x.flags
    l = x.left
    if l is not None:
        c += l.cnt_v
        a |= l.agg
    r = x.right
    if r is not None:
        c += r.cnt_v
        a |= r.agg
    x.cnt_v = c
    x.agg = a


def _splay(x: _Node) -> _Node:
    """Move x to the root of its splay tree (Sleator & Tarjan).

    Each zig, zig-zig or zig-zag step is relinked in place and refreshes the
    aggregates of only the nodes it moved down (g then p, or p).  x needs no
    refresh: at the end it spans what the old root spanned, so it takes the
    old root's totals before that node is refreshed.
    """
    p = x.parent
    while p is not None:
        g = p.parent
        if g is None:  # zig
            if p.left is x:
                b = x.right
                p.left = b
                x.right = p
            else:
                b = x.left
                p.right = b
                x.left = p
            if b is not None:
                b.parent = p
            p.parent = x
            x.parent = None
            x.cnt_v = p.cnt_v  # x now spans what p spanned as the root
            x.agg = p.agg
            _update(p)
            return x
        gg = g.parent
        if g.left is p:
            if p.left is x:  # zig-zig: x(A, p(B, g(C, D)))
                c = p.right
                g.left = c
                if c is not None:
                    c.parent = g
                b = x.right
                p.left = b
                if b is not None:
                    b.parent = p
                p.right = g
                g.parent = p
                x.right = p
                p.parent = x
            else:  # zig-zag: x(p(A, B), g(C, D))
                b = x.left
                c = x.right
                p.right = b
                if b is not None:
                    b.parent = p
                g.left = c
                if c is not None:
                    c.parent = g
                x.left = p
                p.parent = x
                x.right = g
                g.parent = x
        else:
            if p.right is x:  # zig-zig, mirrored
                c = p.left
                g.right = c
                if c is not None:
                    c.parent = g
                b = x.left
                p.right = b
                if b is not None:
                    b.parent = p
                p.left = g
                g.parent = p
                x.left = p
                p.parent = x
            else:  # zig-zag, mirrored
                b = x.right
                c = x.left
                p.left = b
                if b is not None:
                    b.parent = p
                g.right = c
                if c is not None:
                    c.parent = g
                x.right = p
                p.parent = x
                x.left = g
                g.parent = x
        x.parent = gg
        if gg is None:
            x.cnt_v = g.cnt_v  # x now spans what g spanned as the root
            x.agg = g.agg
        elif gg.left is g:
            gg.left = x
        else:
            gg.right = x
        _update(g)
        _update(p)
        p = gg
    return x


def _join(a: _Node | None, b: _Node | None) -> _Node | None:
    """Concatenate the tours rooted at a and b (a first); returns the new root."""
    if a is None:
        return b
    if b is not None:
        while a.right is not None:
            a = a.right
        _splay(a)
        a.right = b
        b.parent = a
        _update(a)
    return a


def _ett_link(nu: _Node, nv: _Node, a: _Node, b: _Node) -> None:
    """Join the tours of nu and nv, both splay roots, by the arcs a and b:
    v's tour is rotated to start at v (one join at most) and spliced in
    after u, so  L u R  becomes  L u a tour(v) b R."""
    l = nv.left
    if l is not None:
        l.parent = nv.left = None
        _update(nv)
        nv = _join(nv, l)
    a.right = nv
    nv.parent = a
    _update(a)
    r = b.right = nu.right
    if r is not None:
        r.parent = b
    b.left = a
    a.parent = b
    _update(b)
    nu.right = b
    b.parent = nu
    _update(nu)


def _find_flagged(x: _Node, flag: int) -> _Node:
    """Descend from root x to some node carrying `flag` (NT or TREE)."""
    while True:
        if x.flags & flag:
            return x
        l = x.left
        if l is not None and l.agg & flag:
            x = l
            continue
        x = x.right


class _Edge:
    __slots__ = ("u", "v", "level", "tree", "arcs")

    def __init__(self, u: int, v: int):
        self.u = u
        self.v = v
        self.level = 0
        self.tree = False
        self.arcs: list[tuple[_Node, _Node]] = []  # forest j's pair at index j


class _HdtBackend:
    name = "hdt"

    def __init__(self, vertex_count: int):
        self.vertex_count = vertex_count
        self._components = vertex_count
        self._edges: dict[int, _Edge] = {}
        self._vnodes: list[dict[int, _Node]] = [{}]
        self._adj: list[dict[int, set[int]]] = [{}]
        self._debug = debug_asserts_enabled()

    # -- plumbing ----------------------------------------------------------

    def _ensure_level(self, i: int) -> None:
        while len(self._vnodes) <= i:
            self._vnodes.append({})
            self._adj.append({})

    def _vnode(self, v: int, i: int) -> _Node:
        d = self._vnodes[i]
        nd = d.get(v)
        if nd is None:
            nd = _Node(vertex=v)
            d[v] = nd
        return nd

    def _set_nt_flag(self, v: int, i: int, present: bool) -> None:
        nd = self._vnode(v, i)
        _splay(nd)
        nd.flags = nd.flags | NT if present else nd.flags & ~NT
        _update(nd)

    def _adj_add(self, h: int, e: _Edge, i: int) -> None:
        for v in (e.u, e.v):
            s = self._adj[i].setdefault(v, set())
            if not s:
                self._set_nt_flag(v, i, True)
            s.add(h)

    def _adj_remove(self, h: int, e: _Edge, i: int) -> None:
        for v in (e.u, e.v):
            s = self._adj[i][v]
            s.remove(h)
            if not s:
                del self._adj[i][v]
                self._set_nt_flag(v, i, False)

    def _link_at(self, h: int, e: _Edge, j: int) -> None:
        """Create e's arcs in forest j, the next level it has none in, and
        link its endpoints there, splayed to their roots (free after
        insert_edge's same-tree test); the arc is flagged TREE in e's own level."""
        self._ensure_level(j)
        a = _Node(edge=h, flags=TREE if j == e.level else 0)
        b = _Node(edge=h)
        e.arcs.append((a, b))
        _ett_link(_splay(self._vnode(e.u, j)), _splay(self._vnode(e.v, j)), a, b)

    # -- public ops ---------------------------------------------------------

    def insert_edge(self, key: int, u: int, v: int) -> None:
        _check_vertex(u, self.vertex_count)
        _check_vertex(v, self.vertex_count)
        e = _Edge(u, v)
        if self._edges.setdefault(key, e) is not e:
            raise ContractError(f"edge key {key} is already live")
        if u != v:  # a self-loop joins no forest and no adjacency set
            if tours.same_tree(self._vnode(u, 0), self._vnode(v, 0), _splay):
                self._adj_add(key, e, 0)
            else:
                e.tree = True
                self._link_at(key, e, 0)
                self._components -= 1
        if self._debug:
            self._check_invariants()

    def delete_edge(self, key: int) -> None:
        try:
            e = self._edges.pop(key)
        except KeyError:
            raise ContractError(f"edge key {key} is not live") from None
        if e.tree:
            self._cut_tree_edge(e)
        elif e.u != e.v:
            self._adj_remove(key, e, e.level)
        if self._debug:
            self._check_invariants()

    def _cut_tree_edge(self, e: _Edge) -> bool:
        """Cut e from forests e.level..0, then search for a replacement
        top-down; returns whether one was found: whether e's ends stay joined."""
        for a, b in reversed(e.arcs):
            tours.cut(a, b, _splay, _join)
        e.arcs.clear()
        for i in range(e.level, -1, -1):
            if self._replace(e.u, e.v, i):
                return True
        self._components += 1
        return False

    def connected(self, u: int, v: int, skip: int | None = None) -> bool:
        _check_vertex(u, self.vertex_count)
        _check_vertex(v, self.vertex_count)
        if skip is not None:
            e = self._edges.get(skip)
            if e is None or (e.u, e.v) not in ((u, v), (v, u)):
                raise ContractError(f"skip {skip} is not a live edge joining {u} and {v}")
            if e.tree:  # the replacement search answers; then skip goes back
                del self._edges[skip]
                joined = self._cut_tree_edge(e)
                self.insert_edge(skip, e.u, e.v)
                return joined
        return tours.same_tree(self._vnode(u, 0), self._vnode(v, 0), _splay)

    def component_count(self) -> int:
        return self._components

    # -- replacement search --------------------------------------------------

    def _replace(self, u0: int, v0: int, i: int) -> bool:
        """Look for a level-i replacement after cutting a tree edge (u0,v0).

        Scans the smaller of the two halves; level-i tree edges inside it are
        promoted to level i+1 first, then level-i non-tree edges are examined:
        an edge leaving the half reconnects (done), an edge inside is
        promoted.  Promotions preserve the size invariant because the smaller
        half has at most half the vertices of the level-i tree that was split.
        """
        nu = self._vnode(u0, i)
        nv = self._vnode(v0, i)
        _splay(nu)
        su = nu.cnt_v
        _splay(nv)
        sv = nv.cnt_v
        anchor = nu if su <= sv else nv
        adj_i = self._adj[i]

        while True:
            _splay(anchor)
            if not anchor.agg & TREE:
                break
            nd = _find_flagged(anchor, TREE)
            h2 = nd.edge
            e2 = self._edges[h2]
            _splay(nd)
            nd.flags &= ~TREE
            _update(nd)
            e2.level = i + 1
            self._link_at(h2, e2, i + 1)

        while True:
            _splay(anchor)
            if not anchor.agg & NT:
                return False
            nd = _find_flagged(anchor, NT)
            x = nd.vertex
            while True:
                s = adj_i.get(x)
                if not s:
                    break
                h2 = next(iter(s))
                e2 = self._edges[h2]
                y = e2.v if e2.u == x else e2.u
                if tours.same_tree(self._vnode(y, i), anchor, _splay):
                    # both endpoints inside the half: promote one level up
                    self._adj_remove(h2, e2, i)
                    e2.level = i + 1
                    self._ensure_level(i + 1)
                    self._adj_add(h2, e2, i + 1)
                else:
                    # leaves the half: this edge reconnects the two sides
                    self._adj_remove(h2, e2, i)
                    e2.tree = True
                    for j in range(i + 1):
                        self._link_at(h2, e2, j)
                    return True

    # -- debug invariants (MATROID_MCMC_DEBUG_ASSERTS=1) ---------------------

    def _check_invariants(self) -> None:
        """Assert the HDT invariants; O(splay nodes), run after each mutation.

        Each forest is a forest of tours (tours.check) whose splay nodes'
        aggregates match their children; a level-i tree has at most n/2^i
        vertices; F_{i+1} ⊆ F_i (a level-l tree edge has arcs in forests
        0..l, in its endpoints' trees, and only the level-l arc is flagged
        TREE); NT flags match the non-tree adjacency.
        """
        n = self.vertex_count
        tree_edges = {h: e for h, e in self._edges.items() if e.tree}
        assert self._components == n - len(tree_edges)
        for i, vnodes in enumerate(self._vnodes):
            adj = self._adj[i]
            for v, nd in vnodes.items():
                assert nd.vertex == v and nd.flags == (NT if adj.get(v) else 0), (i, v)
            forest = {h: (*e.arcs[i], vnodes[e.u], vnodes[e.v])
                      for h, e in tree_edges.items() if e.level >= i}
            for r in tours.check(vnodes.values(), forest):
                assert r.cnt_v << i <= n, (i, r.cnt_v, n)
                _check_aggregates(r)
        for h, e in self._edges.items():
            if e.u == e.v:
                continue
            if not e.tree:
                assert not e.arcs and h in self._adj[e.level][e.u] \
                    and h in self._adj[e.level][e.v], h
                continue
            assert len(e.arcs) == e.level + 1, (h, e.level)
            for j, (a, b) in enumerate(e.arcs):
                assert a.flags == (TREE if j == e.level else 0) and b.flags == 0, (h, j)


def _check_aggregates(root: _Node) -> None:
    """Assert every node's own count and aggregates under `root`."""
    stack = [root]
    while stack:
        x = stack.pop()
        c = 1 if x.vertex >= 0 else 0
        assert x.own == c and (x.vertex >= 0) != (x.edge >= 0)
        a = x.flags
        for ch in (x.left, x.right):
            if ch is not None:
                c += ch.cnt_v
                a |= ch.agg
                stack.append(ch)
        assert x.cnt_v == c and x.agg == a, (x.vertex, x.edge, x.cnt_v, c, x.agg, a)


class _NaiveBackend:
    """Search-per-query twin of the hdt backend (same interface).

    `_adj[x]` maps each neighbour of x to the number of edges joining them;
    a self-loop lives only in `_edges`.  `connected` expands one vertex of
    u's side, then one of v's, and so on: the sides meeting means joined,
    and a side with nothing left to expand is its endpoint's whole
    component, so the ends are apart.  A bridge costs about twice its
    smaller side.
    """

    name = "naive"

    def __init__(self, vertex_count: int):
        self.vertex_count = vertex_count
        self._edges: dict[int, tuple[int, int]] = {}
        self._adj: list[dict[int, int]] = [{} for _ in range(vertex_count)]

    def insert_edge(self, key: int, u: int, v: int) -> None:
        _check_vertex(u, self.vertex_count)
        _check_vertex(v, self.vertex_count)
        e = (u, v)
        if self._edges.setdefault(key, e) is not e:
            raise ContractError(f"edge key {key} is already live")
        if u != v:
            nu = self._adj[u]
            nu[v] = nu.get(v, 0) + 1
            nv = self._adj[v]
            nv[u] = nv.get(u, 0) + 1

    def delete_edge(self, key: int) -> None:
        try:
            u, v = self._edges.pop(key)
        except KeyError:
            raise ContractError(f"edge key {key} is not live") from None
        if u != v:  # the two counts of an edge are always equal
            nu = self._adj[u]
            nv = self._adj[v]
            if nu[v] == 1:
                del nu[v]
                del nv[u]
            else:
                nu[v] -= 1
                nv[u] -= 1

    def connected(self, u: int, v: int, skip: int | None = None) -> bool:
        _check_vertex(u, self.vertex_count)
        _check_vertex(v, self.vertex_count)
        if skip is not None and self._edges.get(skip) not in ((u, v), (v, u)):
            raise ContractError(f"skip {skip} is not a live edge joining {u} and {v}")
        if u == v:
            return True
        adj = self._adj
        if adj[u].get(v, 0) > (skip is not None):  # a u-v edge other than skip
            return True
        # the only u-v edge left, if any, is skip: the hop u -> v is never crossed
        a, seen_a, i = [u], {u}, 0
        b, seen_b, j = [v], {v}, 0
        while True:
            x = a[i]
            for y in adj[x]:
                if y not in seen_a:
                    if y in seen_b:
                        if x != u or y != v:
                            return True
                    else:
                        seen_a.add(y)
                        a.append(y)
            i += 1
            if i == len(a):  # u's side is all of u's component
                return False
            x = b[j]
            for y in adj[x]:
                if y not in seen_b:
                    if y in seen_a:
                        if x != v or y != u:
                            return True
                    else:
                        seen_b.add(y)
                        b.append(y)
            j += 1
            if j == len(b):
                return False

    def component_count(self) -> int:
        adj = self._adj
        seen = [False] * self.vertex_count
        count = 0
        for s in range(self.vertex_count):
            if seen[s]:
                continue
            count += 1
            seen[s] = True
            stack = [s]
            while stack:
                for y in adj[stack.pop()]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
        return count


def dyn_graph(vertex_count: int, backend: str):
    """Build a dynamic-connectivity structure over `vertex_count` vertices.

    backend: "hdt" or "naive".
    """
    if vertex_count < 1:
        raise ValidationError("vertex_count must be >= 1")
    if backend == "hdt":
        return _HdtBackend(vertex_count)
    if backend == "naive":
        return _NaiveBackend(vertex_count)
    raise ValidationError(f"unknown dyncon backend {backend!r}")


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise ContractError(f"vertex {v} outside range [0, {n})")
