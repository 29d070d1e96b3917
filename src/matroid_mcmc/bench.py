"""Benchmark harnesses for the sampler and the dynamic-connectivity backends.

Everything here is plain measurement code: build a graph family at a target
edge count, run a chain (or a synthetic edge workload) against a chosen
connectivity backend, and report wall-clock numbers.  The CLI ``bench``
subcommand turns these rows into CSV; tests reuse the builders directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ChainConfig
from .dyncon import dyn_graph
from .errors import ValidationError
from .matroids import Fields
from .polarized import PolarizedChain
from .reliability import NetworkInstance, cographic_spec

SAMPLER_FAMILIES = ("path", "grid", "random-regular")
DYNCON_QUERY_EVERY = 4  # dyncon_workload asks one connectivity query per this many updates


def build_family(family: str, m_target: int, seed: int = 0) -> NetworkInstance:
    """Build a connected graph of roughly ``m_target`` edges.

    ``path``: a simple path with exactly ``m_target`` edges.
    ``grid``: a k x k grid, k chosen so the edge count 2*k*(k-1) is as close
    to the target as possible.
    ``random-regular``: a 3-regular graph on ``2*m_target/3`` vertices built
    as a cycle plus a seeded random perfect matching (connected by the cycle).

    The actual edge count is whatever the construction yields; callers should
    read it back from the returned instance.
    """
    if m_target < 1:
        raise ValidationError("edge target must be >= 1")
    if family == "path":
        edges = [(i, i + 1) for i in range(m_target)]
        return NetworkInstance(m_target + 1, edges, 0.5)
    if family == "grid":
        # 2*k*(k-1) = m  =>  k = (1 + sqrt(1 + 2m)) / 2
        k = max(2, round((1 + (1 + 2 * m_target) ** 0.5) / 2))
        edges = []
        for r in range(k):
            for c in range(k):
                v = r * k + c
                if c + 1 < k:
                    edges.append((v, v + 1))
                if r + 1 < k:
                    edges.append((v, v + k))
        return NetworkInstance(k * k, edges, 0.5)
    if family == "random-regular":
        nv = max(4, 2 * ((m_target + 2) // 3))
        nv += nv % 2  # perfect matching needs an even vertex count
        edges = [(i, (i + 1) % nv) for i in range(nv)]
        rng = np.random.default_rng(seed)
        perm = rng.permutation(nv)
        for i in range(0, nv, 2):
            a, b = int(perm[i]), int(perm[i + 1])
            edges.append((min(a, b), max(a, b)))
        return NetworkInstance(nv, edges, 0.5)
    raise ValidationError(f"unknown benchmark family: {family!r}")


@dataclass
class BenchRow:
    family: str
    backend: str
    vertices: int
    m: int
    steps: int
    wall_time_sec: float
    per_step_us: float
    proposals: int
    rejections: int


def bench_sampler(
    family: str,
    m_target: int,
    backend: str,
    steps: int,
    seed: int = 0,
) -> BenchRow:
    """Time ``steps`` transitions of the connected-subgraph sampler.

    The chain is the polarized walk on the cographic matroid of the family
    graph, with the connectivity oracle pinned to ``backend``.  Setup time
    (building the oracle, inserting the initial edge set) is excluded; only
    the transition loop is measured.
    """
    inst = build_family(family, m_target, seed=seed)
    spec = cographic_spec(inst)
    fields = Fields.constant(spec.n, 1.0)
    cfg = ChainConfig(seed=seed, step_override=steps)
    chain = PolarizedChain(spec, fields, cfg, dyncon_backend=backend)
    t0 = time.perf_counter()
    for _ in range(cfg.steps(spec.n)):
        chain.step()
    wall = time.perf_counter() - t0
    st = chain.stats
    return BenchRow(
        family=family,
        backend=backend,
        vertices=inst.vertices,
        m=spec.n,
        steps=st.steps,
        wall_time_sec=wall,
        per_step_us=1e6 * wall / max(1, st.steps),
        proposals=st.proposals,
        rejections=st.rejections,
    )


def dyncon_workload(
    vertex_count: int,
    ops: int,
    backend: str,
    seed: int = 0,
) -> tuple[float, int]:
    """Run a seeded random insert/delete/query workload against one backend.

    Returns ``(wall_time_sec, checksum)`` where the checksum folds in every
    query answer, so two backends can be compared for agreement as well as
    speed.
    """
    g = dyn_graph(vertex_count, backend=backend)
    rng = np.random.default_rng(seed)
    live: set[int] = set()  # keys u * vertex_count + v of the live edges, u <= v
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
        if i % DYNCON_QUERY_EVERY == 0:
            a = int(rng.integers(vertex_count))
            b = int(rng.integers(vertex_count))
            checksum = (checksum * 131 + (1 if g.connected(a, b) else 0)) % (1 << 61)
    wall = time.perf_counter() - t0
    return wall, checksum
