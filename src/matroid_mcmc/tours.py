"""Euler-tour forests in splay trees (Henzinger & King, J. ACM 1999).

A tree is kept as its Euler tour: one node per vertex and two arc nodes per
tree edge, in tour order as the in-order sequence of a splay tree with
parent pointers.  Linking a and b rotates b's tour to start at b and splices
it in after a (L a R  becomes  L a arc tour(b) twin R), so one side of an
edge lies between its arcs; cutting takes both arcs out in place and joins
the two outer parts.  Each costs at most three splays, a link's same-tree
question included.

same_tree, cut, root and check are the one copy of those steps.  Node,
splay, join and link are the plain forest's (matroids.ForestOracle's): its
nodes are only their links.  dyncon's HDT forests keep subtree aggregates,
so HDT passes its own splay and join, which refresh them, to same_tree and
cut.  This module imports no other module of the package.
"""
from __future__ import annotations


class Node:
    """One tour position of the plain forest: a vertex, or one of the two
    arcs of a tree edge.  Nothing is summed over a subtree."""

    __slots__ = ("parent", "left", "right")

    def __init__(self):
        self.parent = self.left = self.right = None


def splay(x: Node) -> None:
    """Move x to the root of its splay tree (Sleator & Tarjan), relinking each
    zig, zig-zig or zig-zag step in place."""
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
            return
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
        if gg is not None:
            if gg.left is g:
                gg.left = x
            else:
                gg.right = x
        p = gg


def join(a: Node | None, b: Node | None) -> Node | None:
    """Concatenate the tours rooted at a and b (a first); returns the new root."""
    if a is None:
        return b
    if b is not None:
        while a.right is not None:
            a = a.right
        splay(a)
        a.right = b
        b.parent = a
    return a


def same_tree(a, b, splay) -> bool:
    """Whether a and b share a tour; if not, each is left at its splay root."""
    if a is b:
        return True
    splay(a)
    splay(b)
    # after splaying b, a can only have a parent if both live in one tree
    return a.parent is not None


def link(a: Node, b: Node) -> tuple[Node, Node]:
    """Join the tours of a and b, both splay roots (as same_tree leaves
    them), by a new edge; returns its two arcs.  One splay at most."""
    l = b.left
    if l is not None:
        l.parent = b.left = None
        b = join(b, l)
    arc, twin = Node(), Node()
    arc.right = b
    b.parent = arc
    r = twin.right = a.right
    if r is not None:
        r.parent = twin
    twin.left = arc
    arc.parent = twin
    a.right = twin
    twin.parent = a
    return arc, twin


def cut(arc, twin, splay, join) -> None:
    """Take a tree edge's two arcs out of their tour in place, splitting it
    in two: the part strictly between the arcs (in circular order) and the
    rest.  Neither part is ever empty: each holds one end's vertex node."""
    # the tour is  l arc [p twin q]  or  [p twin q] arc r: the part between
    # the arcs is one tree, the two outer parts the other
    splay(arc)
    l, r = arc.left, arc.right
    if l is not None:
        l.parent = None
    if r is not None:
        r.parent = None
    splay(twin)
    # twin was in l's part iff l is twin or now hangs below it
    before = l is twin or l is not None and l.parent is not None
    p, q = twin.left, twin.right
    if p is not None:
        p.parent = None
    if q is not None:
        q.parent = None
    if before:
        join(p, r)
    else:
        join(l, q)


def root(x):
    """The splay root of x's tour."""
    while x.parent is not None:
        x = x.parent
    return x


def check(nodes, edges: dict) -> list:
    """Assert that the vertex nodes `nodes` and the tree edges `edges`, which
    map each edge's key to (arc, twin, a, b) with a and b its ends' vertex
    nodes, form a forest of tours; returns the tours' roots.

    Every child links back to its parent; the tours number
    len(nodes) - len(edges) and hold len(nodes) + 2 len(edges) positions;
    each edge's arcs lie in the tour of its two ends.
    """
    roots = list({id(r): r for r in map(root, nodes)}.values())
    assert len(roots) == len(nodes) - len(edges), (len(roots), len(nodes), len(edges))
    count = 0
    stack = roots[:]
    while stack:
        x = stack.pop()
        count += 1
        for ch in (x.left, x.right):
            if ch is not None:
                assert ch.parent is x
                stack.append(ch)
    assert count == len(nodes) + 2 * len(edges), (count, len(nodes), len(edges))
    for key, (arc, twin, a, b) in edges.items():
        assert root(arc) is root(twin) is root(a) is root(b), key
    return roots
