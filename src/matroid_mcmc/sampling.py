"""Batch sampling front end: the input size picks the execution path.

Small ground sets (n <= VECTORIZED_MAX_N = 16) run as one vectorized
lockstep batch; larger instances run one sequential chain per sample, chain
i keyed derive_seed(seed, i).  Either way the output is ordered by chain
index and is a deterministic function of (inputs, seed).  A planar cographic
spec is embedded once per call, and every sequential chain of the call runs
on its plane dual.
"""
from __future__ import annotations

from dataclasses import replace

from . import planar
from .config import ChainConfig, StepStats
from .errors import ValidationError
from .matroids import Fields, MatroidSpec, set_bits
from .polarized import PolarizedChain
from .random_cluster import RandomClusterChain
from .rng import derive_seed
from .vectorized import VECTORIZED_MAX_N, run_polarized_batch, run_rc_batch


def execution_path(n: int) -> str:
    """The path for an n-element ground set: "vectorized" (one lockstep
    batch) when n <= VECTORIZED_MAX_N, else "sequential"."""
    return "vectorized" if n <= VECTORIZED_MAX_N else "sequential"


def _as_lists(masks) -> list[list[int]]:
    """Each mask as a sorted index list; set_bits runs once per distinct mask
    and every sample gets its own copy.  (np.unique would do the grouping too,
    but its index arrays raise the batch's peak memory by about 1 MB.)"""
    distinct = {m: set_bits(m) for m in set(map(int, masks))}
    return [distinct[m].copy() for m in map(int, masks)]


def _dual_if_planar(spec: MatroidSpec) -> MatroidSpec:
    """The graphic spec of the plane dual of a planar cographic spec, else
    spec itself.  M*(G) = M(G*) with element i keeping index i, so chains
    built on either spec give the same samples; under "auto" one on the dual
    takes the graphic relabel path instead of embedding G again."""
    if spec.variant != "cographic":
        return spec
    dual = planar.dual_graph(spec.vertices, spec.edges)
    if dual is None:
        return spec
    faces, end = dual
    return MatroidSpec("graphic", n_elements=spec.n, edges=list(zip(end[::2], end[1::2])),
                       vertices=faces)


def _run_sequential(make_chain, count: int):
    """One fresh chain per sample; results in chain-index order."""
    stats = StepStats()
    samples: list[list[int]] = []
    for i in range(count):
        chain = make_chain(i)
        samples.append(chain.run())
        stats.merge(chain.stats)
    return samples, stats


def sample_independent_sets(spec: MatroidSpec, fields: Fields, cfg: ChainConfig,
                            count: int):
    """Draw `count` approximate samples from the weighted independent-set law.

    Returns (samples, stats): samples is a list of sorted index lists.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if execution_path(spec.n) == "vectorized":
        masks, stats = run_polarized_batch(spec, fields, cfg, count)
        return _as_lists(masks), stats

    chain_spec = _dual_if_planar(spec)

    def make_chain(i: int) -> PolarizedChain:
        c = replace(cfg, seed=derive_seed(cfg.seed, i))
        return PolarizedChain(chain_spec, fields, c)

    return _run_sequential(make_chain, count)


def sample_random_cluster(spec: MatroidSpec, fields: Fields, q: float,
                          cfg: ChainConfig, count: int):
    """Draw `count` approximate samples from the random cluster law."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    if execution_path(spec.n) == "vectorized":
        masks, stats = run_rc_batch(spec, fields, q, cfg, count)
        return _as_lists(masks), stats

    def make_chain(i: int) -> RandomClusterChain:
        c = replace(cfg, seed=derive_seed(cfg.seed, i))
        return RandomClusterChain(spec, fields, q, c)

    return _run_sequential(make_chain, count)
