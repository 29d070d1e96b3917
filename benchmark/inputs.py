"""Seeded input files for the three workloads.

The seed relabels the vertices, and on rc-grid-4x6 also reorders the edges;
the graph itself is fixed, so every seed yields an instance of the same law
and the same amount of work.  The package only ever sees the file.
"""
from __future__ import annotations

import hashlib
import json
import random


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def relabelled(rows: int, cols: int, seed: int, shuffle_edges: bool):
    rnd = random.Random(seed)
    label = list(range(rows * cols))
    rnd.shuffle(label)
    edges = [(label[u], label[v]) for u, v in grid_edges(rows, cols)]
    if shuffle_edges:
        rnd.shuffle(edges)
    return rows * cols, edges


def write_graph(path: str, vertices: int, edges, p: float) -> None:
    """The `parse_graph_file` format: "n m", then one "u v p" line per edge."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{vertices} {len(edges)}\n")
        for u, v in edges:
            f.write(f"{u} {v} {p}\n")


def write_graphic(path: str, edges) -> None:
    """A `load_matroid` spec of the graphic matroid of `edges`."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"variant": "graphic", "edges": [list(e) for e in edges]}, f)


def generate(workload: str, seed: int, out_dir: str) -> str:
    """Write the workload's input for `seed`; returns its path."""
    if workload == "cs-grid-10k":
        # edge order stays fixed: the HDT spanning forest, and with it the
        # cost of every step, depends on the order the edges are inserted in
        path = f"{out_dir}/cs-grid-71x71-seed{seed}.txt"
        write_graph(path, *relabelled(71, 71, seed, shuffle_edges=False), p=0.5)
    elif workload == "rel-grid-2x5":
        # edge order stays fixed: rel_estimate processes edges in file order,
        # so reordering would change the levels it samples
        path = f"{out_dir}/rel-grid-2x5-seed{seed}.txt"
        write_graph(path, *relabelled(2, 5, seed, shuffle_edges=False), p=0.5)
    elif workload == "rc-grid-4x6":
        path = f"{out_dir}/rc-grid-4x6-seed{seed}.json"
        write_graphic(path, relabelled(4, 6, seed, shuffle_edges=True)[1])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return path


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()
