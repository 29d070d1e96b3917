"""Plane embedding and dual graph of a connected multigraph.

`dual_graph` embeds a connected multigraph in the plane, or reports that it
is not planar, and returns the dual edge of every element.  For a connected
plane graph G, Whitney duality gives M*(G) = M(G*): a set of edges leaves G
connected iff its dual edges form a forest in G*.  That turns the cographic
oracle into the spanning-forest oracle over the dual (`matroids.ForestOracle`).

The embedding is the left-right planarity test (de Fraysseix, Ossona de
Mendez & Rosenstiehl 2006; Brandes, "The Left-Right Planarity Test", 2009)
on the underlying simple graph: a DFS orientation with lowpoints and
nesting depths, a test phase over conflict pairs of return-edge intervals,
and an embedding phase that fixes each back edge's side and builds a
rotation system.  All three DFS passes are iterative, so path-like graphs
of any length fit.  Tracing the faces of the simple rotation gives the
duals of the simple edges.  The rest follow from two rules of matroid
duality (Oxley, Matroid Theory, 2nd ed., 2011, sections 2.3 and 5.1): a
parallel class of G is a series class of G*, so each later copy of an edge
splits its class's dual edge with a new (digon) face; and a self-loop is a
coloop, a pendant dual edge to a new face.  Apart from one sort of the
edges by nesting depth per phase, everything is O(n + m).

Euler check: a connected plane graph with n vertices and ms simple edges
has ms - n + 2 faces.  Every build compares the traced face count with
that and raises ContractError on a mismatch, since a graph the test
accepted must embed.  Each copy and each loop then adds one face, so the
multigraph's m edges give m - n + 2.
"""
from __future__ import annotations

from .errors import ContractError, ValidationError


def dual_graph(vertices: int, edges) -> tuple[int, list[int]] | None:
    """Embed the connected multigraph `edges` on 0..vertices-1 in the plane.

    Returns (face count, face), where face[2i] and face[2i + 1] are the
    faces on the two sides of edges[i]: its dual edge, a dual loop for a
    bridge.  Returns None when the graph is not planar.
    """
    n = vertices
    m = len(edges)
    # the underlying simple graph: simple edge s joins su[s] and sv[s]
    su: list[int] = []
    sv: list[int] = []
    simple_of = [-1] * m
    ids: dict[int, int] = {}
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if u == v:
            continue
        key = u * n + v if u < v else v * n + u
        s = ids.get(key)
        if s is None:
            s = ids[key] = len(su)
            su.append(u)
            sv.append(v)
            adj[u].append(s)
            adj[v].append(s)
        simple_of[i] = s
    ms = len(su)
    if n > 2 and ms > 3 * n - 6:
        return None
    tail, parent, height, preorder = _orient(n, adj, su, sv)
    head = [su[s] ^ sv[s] ^ tail[s] for s in range(ms)]
    nest = side = [1] * ms  # a spanning tree has no back edge to test or place
    if ms > n - 1:
        lowpt, nest = _lowpoints(n, tail, head, parent, height, preorder)
        side = _lr_test(n, _sorted_out(n, tail, nest), head, parent, height, lowpt)
        if side is None:
            return None
    cw = _embed(n, _sorted_out(n, tail, [d * c for d, c in zip(nest, side)]),
                head, parent, side)
    return _trace_duals(n, edges, simple_of, tail, head, cw)


def _orient(n, adj, su, sv):
    """DFS orientation from vertex 0.

    Returns (tail, parent, height, preorder): each simple edge is oriented
    away from tail[s] (tree edges downward, back edges up to an ancestor),
    parent[v] is v's tree edge (-1 at the root), height[v] its depth, and
    preorder lists the vertices in the order the search reached them.
    """
    ms = len(su)
    tail = [-1] * ms
    parent = [-1] * n
    height = [-1] * n
    ind = [0] * n
    height[0] = 0
    preorder = [0]
    stack = [0]
    while stack:
        v = stack[-1]
        av = adj[v]
        i = ind[v]
        while i < len(av):
            s = av[i]
            i += 1
            if tail[s] < 0:
                tail[s] = v
                w = su[s] ^ sv[s] ^ v
                if height[w] < 0:
                    parent[w] = s
                    height[w] = height[v] + 1
                    preorder.append(w)
                    stack.append(w)
                    break
        else:
            stack.pop()
        ind[v] = i
    if len(preorder) < n:
        raise ValidationError("the graph to embed must be connected")
    return tail, parent, height, preorder


def _lowpoints(n, tail, head, parent, height, preorder):
    """Each edge's lowpoint (the lowest height its return edges reach) and
    nesting depth (twice the lowpoint, plus one if a second return edge
    stays below its tail).  A back edge returns to its head; a tree edge's
    lowpoints merge those of its child's out-edges, so children go first."""
    lowpt2 = [height[t] for t in tail]
    lowpt = [height[w] if parent[w] != s else lowpt2[s] for s, w in enumerate(head)]
    out: list[list[int]] = [[] for _ in range(n)]
    for s, t in enumerate(tail):
        out[t].append(s)
    nest = [0] * len(tail)
    for v in reversed(preorder):
        pe = parent[v]
        hv = height[v]
        for s in out[v]:
            lo = lowpt[s]
            lo2 = lowpt2[s]
            nest[s] = 2 * lo + (lo2 < hv)
            if pe >= 0:
                lp = lowpt[pe]
                if lo < lp:
                    lowpt2[pe] = min(lp, lo2)
                    lowpt[pe] = lo
                elif lo > lp:
                    lowpt2[pe] = min(lowpt2[pe], lo)
                else:
                    lowpt2[pe] = min(lowpt2[pe], lo2)
    return lowpt, nest


def _sorted_out(n, tail, key):
    """Each vertex's out-edges, ascending in `key` (one global sort)."""
    out: list[list[int]] = [[] for _ in range(n)]
    for s in sorted(range(len(tail)), key=key.__getitem__):
        out[tail[s]].append(s)
    return out


def _lr_test(n, out, head, parent, height, lowpt):
    """The LR test phase.  Returns each edge's side (+1 or -1, with the ref
    chains resolved), or None if the graph is not planar.

    A conflict pair is a list [left.low, left.high, right.low, right.high]
    of return edges, -1 for none; an interval is empty iff both are -1.
    """
    ms = len(head)
    ref = [-1] * ms
    side = [1] * ms
    lowpt_edge = [-1] * ms
    bottom = [0] * ms  # height of the conflict-pair stack when s was entered
    S: list[list[int]] = []
    ind = [0] * n
    stack = [0]
    while stack:
        v = stack[-1]
        ov = out[v]
        i = ind[v]
        e = parent[v]
        while i < len(ov):
            s = ov[i]
            bottom[s] = len(S)
            if parent[head[s]] == s:  # tree edge: its constraints come back later
                stack.append(head[s])
                break
            # back edge: it is its own return edge, always below v
            lowpt_edge[s] = s
            S.append([-1, -1, s, s])
            if i == 0:
                lowpt_edge[e] = s
            elif not _add_constraints(s, e, S, bottom, ref, lowpt, lowpt_edge):
                return None
            i += 1
        else:
            stack.pop()
            if e >= 0:
                u = stack[-1]
                _remove_back_edges(e, u, height[u], S, ref, side, head, lowpt)
                if lowpt[e] < height[u]:
                    if ind[u] == 0:
                        lowpt_edge[parent[u]] = lowpt_edge[e]
                    elif not _add_constraints(e, parent[u], S, bottom, ref, lowpt, lowpt_edge):
                        return None
                ind[u] += 1
        ind[v] = i
    # resolve the ref chains: an edge's side is relative to its ref's
    for s in range(ms):
        if ref[s] >= 0:
            chain = []
            r = s
            while ref[r] >= 0:
                chain.append(r)
                r = ref[r]
            sign = side[r]
            for r in reversed(chain):
                sign *= side[r]
                side[r] = sign
                ref[r] = -1
    return side


def _add_constraints(s, e, S, bottom, ref, lowpt, lowpt_edge):
    """Merge the return edges of s, the latest out-edge of e's head, into
    the constraints of e; False on a conflict that cannot be resolved."""
    lo_e = lowpt[e]
    P = [-1, -1, -1, -1]
    # every pair above s's bottom holds return edges of s: into P's right
    while True:
        Q = S.pop()
        if Q[0] >= 0 or Q[1] >= 0:
            Q = [Q[2], Q[3], Q[0], Q[1]]
            if Q[0] >= 0 or Q[1] >= 0:
                return False
        if lowpt[Q[2]] > lo_e:
            if P[2] < 0 and P[3] < 0:
                P[3] = Q[3]
            else:
                ref[P[2]] = Q[3]
            P[2] = Q[2]
        else:
            ref[Q[2]] = lowpt_edge[e]
        if len(S) == bottom[s]:
            break
    # earlier siblings' return edges that conflict with s: into P's left
    lo_s = lowpt[s]
    while S:
        Q = S[-1]
        left_conflicts = Q[1] >= 0 and lowpt[Q[1]] > lo_s
        if not left_conflicts and not (Q[3] >= 0 and lowpt[Q[3]] > lo_s):
            break
        S.pop()
        if Q[3] >= 0 and lowpt[Q[3]] > lo_s:
            if left_conflicts:
                return False
            Q = [Q[2], Q[3], Q[0], Q[1]]
        if P[2] >= 0:
            ref[P[2]] = Q[3]
        if Q[2] >= 0:
            P[2] = Q[2]
        if P[0] < 0 and P[1] < 0:
            P[1] = Q[1]
        else:
            ref[P[0]] = Q[1]
        P[0] = Q[0]
    if P[0] >= 0 or P[1] >= 0 or P[2] >= 0 or P[3] >= 0:
        S.append(P)
    return True


def _remove_back_edges(e, u, hu, S, ref, side, head, lowpt):
    """Drop the return edges that end at u, the tail of tree edge e, once
    e's subtree is done, and give e the ref of a highest remaining one."""
    while S:
        P = S[-1]
        if P[0] < 0 and P[1] < 0:
            lowest = lowpt[P[2]]
        elif P[2] < 0 and P[3] < 0:
            lowest = lowpt[P[0]]
        else:
            lowest = min(lowpt[P[0]], lowpt[P[2]])
        if lowest != hu:
            break
        S.pop()
        if P[0] >= 0:
            side[P[0]] = -1
    if S:
        P = S[-1]
        while P[1] >= 0 and head[P[1]] == u:
            P[1] = ref[P[1]]
        if P[1] < 0 and P[0] >= 0:  # the left interval just emptied
            ref[P[0]] = P[2]
            side[P[0]] = -1
            P[0] = -1
        while P[3] >= 0 and head[P[3]] == u:
            P[3] = ref[P[3]]
        if P[3] < 0 and P[2] >= 0:  # the right interval just emptied
            ref[P[2]] = P[0]
            side[P[2]] = -1
            P[2] = -1
    if lowpt[e] < hu:
        hl = S[-1][1]
        hr = S[-1][3]
        if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]):
            ref[e] = hl
        else:
            ref[e] = hr


def _embed(n, out, head, parent, side):
    """The LR embedding phase: the clockwise successor of every simple
    half-edge (2s at tail[s], 2s + 1 at head[s]).

    `out` lists each vertex's out-edges by signed nesting depth; they go
    around it clockwise in that order.  Each tree edge enters its child
    just before the child's out-edges, and each back edge is placed at its
    head beside the tree edge it returns through, on its side.
    """
    cw = [0] * (2 * len(head))
    ccw = [0] * (2 * len(head))
    for ov in out:
        if ov:
            prev = 2 * ov[-1]
            for s in ov:
                h = 2 * s
                cw[prev] = h
                ccw[h] = prev
                prev = h
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    stack = [0]
    while stack:
        v = stack[-1]
        ov = out[v]
        i = ind[v]
        while i < len(ov):
            s = ov[i]
            i += 1
            w = head[s]
            h = 2 * s + 1
            if parent[w] == s:  # tree edge: h goes ahead of w's out-edges
                if out[w]:
                    _insert_after(cw, ccw, ccw[2 * out[w][0]], h)
                else:
                    cw[h] = ccw[h] = h
                left_ref[v] = right_ref[v] = 2 * s
                stack.append(w)
                break
            if side[s] > 0:  # clockwise after the current tree edge at w
                _insert_after(cw, ccw, right_ref[w], h)
            else:  # counter-clockwise before the leftmost one so far
                _insert_after(cw, ccw, ccw[left_ref[w]], h)
                left_ref[w] = h
        else:
            stack.pop()
        ind[v] = i
    return cw


def _insert_after(cw, ccw, r, h):
    """Put half-edge h just clockwise after r around r's vertex."""
    q = cw[r]
    cw[r] = h
    ccw[h] = r
    cw[h] = q
    ccw[q] = h


def _trace_duals(n, edges, simple_of, tail, head, cw):
    """Trace the faces of the simple rotation, check Euler's formula on the
    simple graph, then give each element its dual edge.

    Simple half-edge 2s sits at tail[s] and 2s + 1 at head[s]; the face
    after half-edge h (from x to y) starts at y, just counter-clockwise of
    h's twin.  The first element on a vertex pair takes the pair's two
    faces; each later copy splits the class's last dual edge with a new
    face (a series class in G*), and each self-loop hangs a new face off a
    face at its vertex (a coloop).
    """
    ms = len(tail)
    ccw = [0] * (2 * ms)
    for h, g in enumerate(cw):
        ccw[g] = h
    sface = [-1] * (2 * ms)
    faces = 0
    for h in range(2 * ms):
        if sface[h] < 0:
            g = h
            while sface[g] < 0:
                sface[g] = faces
                g = ccw[g ^ 1]
            faces += 1
    faces = faces or 1  # no simple edge: one vertex in one face
    if faces != ms - n + 2:
        raise ContractError(
            f"the embedding traced {faces} faces, Euler's formula wants {ms - n + 2}")
    at = [0] * n  # a face at each vertex, for its self-loops
    for s, (t, w) in enumerate(zip(tail, head)):
        at[t] = sface[2 * s]
        at[w] = sface[2 * s + 1]
    face = [0] * (2 * len(edges))
    last = [-1] * ms  # the element holding each class's last dual edge
    for i, (u, _) in enumerate(edges):
        s = simple_of[i]
        if s < 0:
            face[2 * i] = at[u]
            face[2 * i + 1] = faces
            faces += 1
            continue
        j = last[s]
        if j < 0:
            f = u != tail[s]
            face[2 * i] = sface[2 * s + f]
            face[2 * i + 1] = sface[2 * s + 1 - f]
        else:
            face[2 * i + 1] = face[2 * j + 1]
            face[2 * i] = face[2 * j + 1] = faces
            faces += 1
        last[s] = i
    return faces, face
