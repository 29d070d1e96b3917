"""Layer trace taken from outside the package.

`install` wraps the public calls one layer makes into the next by
rebinding names in the package's modules (the package source is never
edited).  Each wrapped call records one span: name, start, end and the span
that was open when it began.  Spans stay in memory, in flat arrays, until
`layer_metrics` and `save_spans` read them after the run.

Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so children never overlap.
"""
from __future__ import annotations

import time
import types
from array import array

import numpy as np

LAYERS = ("rng", "weighted_index", "matroids", "dyncon", "polarized", "random_cluster",
          "vectorized", "sampling", "reliability")

# Spans whose dyncon children count as mutations made to answer a query.
ORACLE_QUERIES = ("matroids.is_independent", "matroids.rank_drops_on_delete")

# Calls reported as <name>.calls and <name>.self_s, in the order printed.
CALLS = (
    "dyncon.insert_edge", "dyncon.delete_edge", "dyncon.connected",
    "dyncon.component_count",
    "matroids.insert", "matroids.delete", "matroids.is_independent",
    "matroids.rank_drops_on_delete",
    "weighted_index.set", "weighted_index.sample",
    "rng.u",
    "polarized.up_step", "polarized.down_step",
    "random_cluster.up_step", "random_cluster.down_step",
    "vectorized.SmallTables", "vectorized.run_polarized_batch",
    "sampling.sample_independent_sets", "sampling.sample_random_cluster",
    "reliability.sample_independent_sets", "reliability.rel_estimate",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.tables_bytes = 0
        self.chain_steps = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn`, recording one span per call."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    # -- derived numbers ----------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, parent, dur, dur - child

    def layer_metrics(self) -> dict[str, float]:
        name, parent, dur, self_t = self._arrays()
        ids = {n: i for i, n in enumerate(self.names)}
        out: dict[str, float] = {}

        def sel(call):
            return name == ids[call] if call in ids else np.zeros(len(name), dtype=bool)

        for call in CALLS:
            m = sel(call)
            out[f"{call}.calls"] = int(m.sum())
            out[f"{call}.self_s"] = float(self_t[m].sum())
        dele = dur[sel("dyncon.delete_edge")]
        out["dyncon.delete_edge.us_p99"] = float(np.percentile(dele, 99) * 1e6) if dele.size else 0.0
        query = sel(ORACLE_QUERIES[0]) | sel(ORACLE_QUERIES[1])
        mutation = sel("dyncon.insert_edge") | sel("dyncon.delete_edge")
        has = parent >= 0
        in_query = np.zeros(len(name), dtype=bool)
        in_query[has] = query[parent[has]]
        out["matroids.query_mutations"] = int((mutation & in_query).sum())
        out["sampling.self_s"] = (out["sampling.sample_independent_sets.self_s"]
                                  + out["sampling.sample_random_cluster.self_s"]
                                  + out["reliability.sample_independent_sets.self_s"])
        levels = dur[sel("reliability.sample_independent_sets")]
        out["reliability.levels"] = int(levels.size)
        out["reliability.level_s_p50"] = float(np.median(levels)) if levels.size else 0.0
        out["reliability.level_s_max"] = float(levels.max()) if levels.size else 0.0
        out["reliability.self_s"] = out["reliability.rel_estimate.self_s"]
        out["vectorized.tables_bytes"] = self.tables_bytes
        out["vectorized.chain_steps"] = self.chain_steps
        out["trace.spans"] = int(len(name))
        return out

    def module_self_s(self) -> dict[str, float]:
        """Self time summed per layer, the module that implements each call."""
        name, _, _, self_t = self._arrays()
        out = dict.fromkeys(LAYERS, 0.0)
        for i, n in enumerate(self.names):
            layer = "sampling" if n == "reliability.sample_independent_sets" else n.split(".")[0]
            out[layer] += float(self_t[name == i].sum())
        return out

    def save_spans(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def empty_wrapper_us(reps: int = 100_000) -> float:
    """Measured cost of one traced call to a no-op, in microseconds."""
    tr = Tracer()
    noop = tr.wrap("noop", lambda: None)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(reps):
        noop()
    traced = clock() - t0
    bare = lambda: None  # noqa: E731
    t0 = clock()
    for _ in range(reps):
        bare()
    return (traced - (clock() - t0)) / reps * 1e6


def install(tr: Tracer) -> None:
    """Rebind the package's inter-layer calls to traced wrappers.

    A name is rebound where the caller looks it up: a module that did
    `from .x import f` holds its own reference to f, so `f` is patched there.
    """
    from matroid_mcmc import (matroids, polarized, random_cluster, reliability, rng,
                              sampling, vectorized, weighted_index)

    def traced_graph(g):
        return types.SimpleNamespace(
            vertex_count=g.vertex_count,
            insert_edge=tr.wrap("dyncon.insert_edge", g.insert_edge),
            delete_edge=tr.wrap("dyncon.delete_edge", g.delete_edge),
            connected=tr.wrap("dyncon.connected", g.connected),
            component_count=tr.wrap("dyncon.component_count", g.component_count))

    dyn_graph = matroids.dyn_graph
    matroids.dyn_graph = lambda *a, **k: traced_graph(dyn_graph(*a, **k))

    def traced_oracle(o):
        return types.SimpleNamespace(
            insert=tr.wrap("matroids.insert", o.insert),
            delete=tr.wrap("matroids.delete", o.delete),
            is_independent=tr.wrap("matroids.is_independent", o.is_independent),
            rank_drops_on_delete=tr.wrap("matroids.rank_drops_on_delete",
                                         o.rank_drops_on_delete),
            rank=o.rank)

    for mod in (polarized, random_cluster):
        build = mod.build_oracle
        mod.build_oracle = lambda *a, _b=build, **k: traced_oracle(_b(*a, **k))

    wi = weighted_index.WeightedIndex
    wi.set = tr.wrap("weighted_index.set", wi.set)
    wi.sample = tr.wrap("weighted_index.sample", wi.sample)
    rng.SeedStream.u = tr.wrap("rng.u", rng.SeedStream.u)
    for mod, cls in (("polarized", polarized.PolarizedChain),
                     ("random_cluster", random_cluster.RandomClusterChain)):
        cls.up_step = tr.wrap(f"{mod}.up_step", cls.up_step)
        cls.down_step = tr.wrap(f"{mod}.down_step", cls.down_step)

    tables = vectorized.SmallTables

    def record_tables(*args, **kwargs):
        tb = tables(*args, **kwargs)
        size = sum(a.nbytes for a in vars(tb).values() if isinstance(a, np.ndarray))
        tr.tables_bytes = max(tr.tables_bytes, size)
        return tb

    vectorized.SmallTables = tr.wrap("vectorized.SmallTables", record_tables)

    batch = sampling.run_polarized_batch

    def count_steps(*args, **kwargs):
        masks, stats = batch(*args, **kwargs)
        tr.chain_steps += stats.steps
        return masks, stats

    sampling.run_polarized_batch = tr.wrap("vectorized.run_polarized_batch", count_steps)
    sampling.sample_random_cluster = tr.wrap("sampling.sample_random_cluster",
                                             sampling.sample_random_cluster)
    reliability.sample_independent_sets = tr.wrap("reliability.sample_independent_sets",
                                                  reliability.sample_independent_sets)
    reliability.rel_estimate = tr.wrap("reliability.rel_estimate", reliability.rel_estimate)
    sampling.sample_independent_sets = tr.wrap("sampling.sample_independent_sets",
                                               sampling.sample_independent_sets)
