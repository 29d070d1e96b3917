"""Batch sampling API: determinism and the size rule that picks the path."""

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    Fields,
    PolarizedChain,
    RandomClusterChain,
    ValidationError,
    planar,
    sampling,
)
from matroid_mcmc.sampling import sample_independent_sets, sample_random_cluster
from matroid_mcmc.vectorized import VECTORIZED_MAX_N, run_polarized_batch, run_rc_batch

from conftest import grid_edges, ones, sequential_samples, spec_of


def test_method_dispatch(monkeypatch):
    """n = 16 runs one lockstep batch, n = 17 runs sequential chains."""
    batches = []
    batch = sampling.run_polarized_batch

    def spy(spec, *args, **kwargs):
        batches.append(spec.n)
        return batch(spec, *args, **kwargs)

    monkeypatch.setattr(sampling, "run_polarized_batch", spy)
    cfg = ChainConfig(seed=4, step_override=5)
    for n in (16, 17):
        spec = spec_of({"variant": "uniform", "n": n, "k": 2})
        samples, stats = sample_independent_sets(spec, ones(n), cfg, 3)
        assert len(samples) == 3 and stats.steps == 3 * 5
    assert batches == [16]
    # the test helper that reaches the sequential path at n <= 16 runs it as is
    seq = sequential_samples(lambda c: PolarizedChain(spec, ones(17), c), cfg, 3)
    assert seq == (samples, stats)
    assert sampling.execution_path(16) == "vectorized"
    assert sampling.execution_path(17) == "sequential"


def test_sequential_replay_identical(uniform42):
    cfg = ChainConfig(seed=9, step_override=25)

    def make(c):
        return PolarizedChain(uniform42, ones(4), c)

    a, _ = sequential_samples(make, cfg, 100)
    b, _ = sequential_samples(make, cfg, 100)
    assert a == b


def test_vectorized_replay_identical(uniform42):
    cfg = ChainConfig(seed=9, step_override=25)
    a, _ = sample_independent_sets(uniform42, ones(4), cfg, 100)
    b, _ = sample_independent_sets(uniform42, ones(4), cfg, 100)
    assert a == b


def test_rc_sampling_jobs_deterministic(triangle_graphic):
    cfg = ChainConfig(seed=3, step_override=30)

    def make(c):
        return RandomClusterChain(triangle_graphic, ones(3), 0.5, c)

    a, _ = sequential_samples(make, cfg, 120)
    b, _ = sequential_samples(make, cfg, 120)
    assert a == b


def test_samples_are_sorted_lists(uniform42):
    cfg = ChainConfig(seed=1, step_override=20)
    samples, _ = sample_independent_sets(uniform42, ones(4), cfg, 50)
    for s in samples:
        assert s == sorted(s)
        assert all(0 <= i < 4 for i in s)
        assert len(s) <= 2  # rank cap of uniform(4, 2)


def test_vectorized_samples_are_distinct_lists(uniform42):
    """Samples of one mask are equal but separate lists: changing one leaves
    the others as they were."""
    cfg = ChainConfig(seed=1, step_override=20)
    samples, _ = sample_independent_sets(uniform42, ones(4), cfg, 200)
    first = samples[0]
    twins = [s for s in samples[1:] if s == first]
    assert twins
    first.append(99)
    assert all(99 not in s for s in twins)


def test_distinct_seeds_distinct_output(uniform42):
    c1 = ChainConfig(seed=100, step_override=30)
    c2 = ChainConfig(seed=101, step_override=30)
    a, _ = sample_independent_sets(uniform42, ones(4), c1, 400)
    b, _ = sample_independent_sets(uniform42, ones(4), c2, 400)
    assert a != b


def test_nearby_seeds_share_no_sample():
    """Sequential chains of seed 0 and seed 1 run on unrelated streams."""
    spec = spec_of({"variant": "uniform", "n": 20, "k": 5})
    a, _ = sample_independent_sets(spec, ones(20), ChainConfig(seed=0), 8)
    b, _ = sample_independent_sets(spec, ones(20), ChainConfig(seed=1), 8)
    assert not {tuple(s) for s in a} & {tuple(s) for s in b}


@pytest.mark.parametrize("n", [5, 17], ids=["lockstep", "sequential"])
@pytest.mark.parametrize("count", [2.5, True, np.float64(2.0)])
def test_count_must_be_an_integer(n, count):
    """A float or a bool count is refused up front on both paths, and by the
    public lockstep runners, not run as 1 or failing deep in the run."""
    spec = spec_of({"variant": "uniform", "n": n, "k": 2})
    cfg = ChainConfig(seed=1, step_override=5)
    calls = [lambda: sample_independent_sets(spec, ones(n), cfg, count),
             lambda: sample_random_cluster(spec, ones(n), 0.5, cfg, count)]
    if n <= VECTORIZED_MAX_N:
        calls += [lambda: run_polarized_batch(spec, ones(n), cfg, count),
                  lambda: run_rc_batch(spec, ones(n), 0.5, cfg, count)]
    for call in calls:
        with pytest.raises(ValidationError, match="count must be an integer >= 1"):
            call()


@pytest.mark.parametrize("arg, value", [
    ("step_override", 2.5), ("step_override", True), ("seed", True), ("seed", False)])
def test_config_integers_refuse_floats_and_bools(arg, value):
    """step_override and the seed follow the count's rule: True is not seed 1."""
    with pytest.raises(ValidationError, match=f"{arg} must be an integer"):
        ChainConfig(**{arg: value})


@pytest.mark.parametrize("n", [5, 17], ids=["lockstep", "sequential"])
def test_numpy_integers_count_as_integers(n):
    spec = spec_of({"variant": "uniform", "n": n, "k": 2})
    want = sample_independent_sets(spec, ones(n), ChainConfig(seed=3, step_override=5), 4)
    cfg = ChainConfig(seed=np.uint64(3), step_override=np.int64(5))
    assert sample_independent_sets(spec, ones(n), cfg, np.int32(4)) == want


@pytest.mark.parametrize("path", ["sequential", "vectorized"])
@pytest.mark.parametrize("model, lam", [
    ("independent", [1e308, 1e308, 1.0]),   # the sum of λ overflows
    ("random-cluster", [1e-310, 1.0, 1.0]),  # 1/λ_0 overflows
    ("random-cluster", [1e-308, 1e-308, 1.0]),  # each 1/λ is finite, their sum is not
])
def test_overflowing_proposal_total_rejected(triangle_graphic, model, lam, path):
    cfg = ChainConfig(seed=1, step_override=20)
    u31 = spec_of({"variant": "uniform", "n": 3, "k": 1})
    with pytest.raises(ValidationError, match="overflows"):
        if path == "sequential" and model == "independent":
            sequential_samples(lambda c: PolarizedChain(u31, Fields(lam), c), cfg, 10)
        elif path == "sequential":
            sequential_samples(
                lambda c: RandomClusterChain(triangle_graphic, Fields(lam), 0.5, c), cfg, 10)
        elif model == "independent":
            sample_independent_sets(u31, Fields(lam), cfg, 10)
        else:
            sample_random_cluster(triangle_graphic, Fields(lam), 0.5, cfg, 10)


def test_planar_cographic_embedded_once_per_call(monkeypatch):
    """Above the lockstep size a planar cographic spec is embedded once, not
    once per chain or per call, and its samples are those of chains that
    each embed the graph themselves.  A q = 0 random-cluster call, whose
    chains take their start basis from the dual forest, embeds at most once."""
    d = {"variant": "cographic", "edges": grid_edges(5, 6)}
    spec = spec_of(d)
    assert sampling.execution_path(spec.n) == "sequential"
    fields = Fields([0.5 + 0.25 * (i % 5) for i in range(spec.n)])
    cfg = ChainConfig(seed=11, step_override=300)
    calls = []
    embed = planar.dual_graph

    def spy(*args):
        calls.append(args)
        return embed(*args)

    monkeypatch.setattr(planar, "dual_graph", spy)
    got = sample_independent_sets(spec, fields, cfg, 5)
    assert len(calls) == 1
    assert sample_independent_sets(spec, fields, cfg, 5) == got
    assert len(calls) == 1
    # the reference builds each chain on a spec of its own, so each embeds
    per_chain = sequential_samples(lambda c: PolarizedChain(spec_of(d), fields, c), cfg, 5)
    assert len(calls) == 1 + 5
    assert got == per_chain
    calls.clear()
    sample_random_cluster(spec_of(d), fields, 0.0, cfg, 5)
    assert len(calls) <= 1


@pytest.mark.parametrize("model", ["independent", "random-cluster"])
@pytest.mark.parametrize("n, how", [(17, "sampler"), (6, "sampler"), (6, "chain")])
def test_law_with_fields_spanning_1e300(model, n, how):
    """On a free matroid (uniform, k = n) both laws are products: element i
    is in A with probability w_i / (1 + w_i), where w = λ for the polarized
    walk and w = λ/q for random cluster.  With λ from 1e-300 to 1e300 each
    marginal holds on the sequential path (n = 17), the lockstep one (n = 6)
    and a chain class stepped directly (n = 6): a heavy weight leaving the
    proposal index must leave the light ones their mass.  400 seeded samples;
    0.15 is 6σ at p = 1/2."""
    q = 0.5
    lam = [1.0, 1e300] + [1.0] * (n - 3) + [1e-300]
    spec = spec_of({"variant": "uniform", "n": n, "k": n})
    fields = Fields(lam)
    cfg = ChainConfig(seed=1)
    if model == "independent":
        w, law, chain, sample = lam, (fields,), PolarizedChain, sample_independent_sets
    else:
        w = [x / q for x in lam]
        law, chain, sample = (fields, q), RandomClusterChain, sample_random_cluster
    if how == "sampler":
        samples, _ = sample(spec, *law, cfg, 400)
    else:
        samples, _ = sequential_samples(lambda c: chain(spec, *law, c), cfg, 400)
    for i, wi in enumerate(w):
        freq = sum(i in s for s in samples) / len(samples)
        assert abs(freq - wi / (1.0 + wi)) <= 0.15, (i, freq, wi)
