"""Batch sampling front end: picks the execution path and merges results.

Small ground sets (n <= 16) run as one vectorized lockstep batch; larger
instances run one sequential chain per sample, chain i keyed
derive_seed(seed, i).  Either way the output is ordered by chain index and is
a deterministic function of (inputs, seed).
"""
from __future__ import annotations

from dataclasses import replace

from .config import ChainConfig, StepStats
from .errors import ValidationError
from .matroids import Fields, MatroidSpec
from .polarized import PolarizedChain
from .random_cluster import RandomClusterChain
from .rng import derive_seed
from .vectorized import VECTORIZED_MAX_N, run_polarized_batch, run_rc_batch


def _mask_to_sorted(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _pick_method(method: str, n: int) -> str:
    if method == "auto":
        return "vectorized" if n <= VECTORIZED_MAX_N else "sequential"
    if method not in ("vectorized", "sequential"):
        raise ValidationError(f"method must be auto|vectorized|sequential, got {method!r}")
    return method


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
                            count: int, method: str = "auto"):
    """Draw `count` approximate samples from the weighted independent-set law.

    Returns (samples, stats): samples is a list of sorted index lists.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    method = _pick_method(method, spec.n)
    if method == "vectorized":
        masks, stats = run_polarized_batch(spec, fields, cfg, count)
        return [_mask_to_sorted(int(m)) for m in masks], stats

    def make_chain(i: int) -> PolarizedChain:
        c = replace(cfg, seed=derive_seed(cfg.seed, i))
        return PolarizedChain(spec, fields, c)

    return _run_sequential(make_chain, count)


def sample_random_cluster(spec: MatroidSpec, fields: Fields, q: float,
                          cfg: ChainConfig, count: int, method: str = "auto"):
    """Draw `count` approximate samples from the random cluster law."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    method = _pick_method(method, spec.n)
    if method == "vectorized":
        masks, stats = run_rc_batch(spec, fields, q, cfg, count)
        return [_mask_to_sorted(int(m)) for m in masks], stats

    def make_chain(i: int) -> RandomClusterChain:
        c = replace(cfg, seed=derive_seed(cfg.seed, i))
        return RandomClusterChain(spec, fields, q, c)

    return _run_sequential(make_chain, count)
