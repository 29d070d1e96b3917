"""Batch sampling front end: the input size picks the execution path.

Small ground sets (n <= VECTORIZED_MAX_N = 16) run as one vectorized
lockstep batch; larger instances run one sequential chain per sample, chain
i keyed derive_seed(seed, i).  Either way the output is ordered by chain
index and is a deterministic function of (inputs, seed).  Every chain of a
call is built on the caller's spec, so a graph is relabelled or embedded at
most once (MatroidSpec.forest_graph), however many chains run on it.
"""
from __future__ import annotations

from dataclasses import replace

from .config import ChainConfig, StepStats, check_int
from .matroids import Fields, MatroidSpec, set_bits
from .polarized import PolarizedChain
from .random_cluster import RandomClusterChain
from .rng import derive_seed
from .vectorized import VECTORIZED_MAX_N, run_polarized_batch, run_rc_batch


def execution_path(n: int) -> str:
    """The path for an n-element ground set: "vectorized" (one lockstep
    batch) when n <= VECTORIZED_MAX_N, else "sequential"."""
    return "vectorized" if n <= VECTORIZED_MAX_N else "sequential"


def _as_lists(masks: memoryview) -> list[list[int]]:
    """Each mask as a sorted index list; set_bits runs once per distinct mask
    and every sample gets its own copy.  The items of a memoryview are Python
    ints, not numpy scalars; tolist() or np.unique would hold the batch again
    and raise its peak memory (by about 0.3 MB and 1 MB at 16k chains)."""
    distinct = {m: set_bits(m) for m in set(masks)}
    return [distinct[m].copy() for m in masks]


def _sample(run_batch, make_chain, spec: MatroidSpec, law: tuple, cfg: ChainConfig,
            count: int):
    """`count` samples of one law: one lockstep batch, run_batch(spec, *law,
    cfg, count), or one sequential make_chain(spec, *law, cfg_i) per sample,
    chain i keyed derive_seed(cfg.seed, i).  Returns (samples, stats), the samples
    as sorted index lists in chain-index order."""
    check_int("count", count)
    if execution_path(spec.n) == "vectorized":
        masks, stats = run_batch(spec, *law, cfg, count)
        return _as_lists(memoryview(masks)), stats
    stats = StepStats()
    samples: list[list[int]] = []
    for i in range(count):
        chain = make_chain(spec, *law, replace(cfg, seed=derive_seed(cfg.seed, i)))
        samples.append(chain.run())
        stats.merge(chain.stats)
    return samples, stats


def sample_independent_sets(spec: MatroidSpec, fields: Fields, cfg: ChainConfig,
                            count: int):
    """Draw `count` approximate samples from the weighted independent-set law.

    Returns (samples, stats): samples is a list of sorted index lists.
    """
    return _sample(run_polarized_batch, PolarizedChain, spec, (fields,), cfg, count)


def sample_random_cluster(spec: MatroidSpec, fields: Fields, q: float,
                          cfg: ChainConfig, count: int):
    """Draw `count` approximate samples from the random cluster law; returns
    (samples, stats) as sample_independent_sets does."""
    return _sample(run_rc_batch, RandomClusterChain, spec, (fields, q), cfg, count)
