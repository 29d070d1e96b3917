"""Batch sampling API: determinism and method dispatch."""

import pytest

from matroid_mcmc import ChainConfig, Fields, ValidationError
from matroid_mcmc.sampling import _pick_method, sample_independent_sets, sample_random_cluster

from conftest import ones, spec_of


def test_method_dispatch():
    assert _pick_method("auto", 10) == "vectorized"
    assert _pick_method("auto", 17) == "sequential"
    assert _pick_method("sequential", 4) == "sequential"
    assert _pick_method("vectorized", 4) == "vectorized"


def test_sequential_replay_identical(uniform42):
    cfg = ChainConfig(seed=9, step_override=25)
    a, _ = sample_independent_sets(uniform42, ones(4), cfg, 100, method="sequential")
    b, _ = sample_independent_sets(uniform42, ones(4), cfg, 100, method="sequential")
    assert a == b


def test_vectorized_replay_identical(uniform42):
    cfg = ChainConfig(seed=9, step_override=25)
    a, _ = sample_independent_sets(uniform42, ones(4), cfg, 100, method="vectorized")
    b, _ = sample_independent_sets(uniform42, ones(4), cfg, 100, method="vectorized")
    assert a == b


def test_rc_sampling_jobs_deterministic(triangle_graphic):
    cfg = ChainConfig(seed=3, step_override=30)
    a, _ = sample_random_cluster(triangle_graphic, ones(3), 0.5, cfg, 120,
                                 method="sequential")
    b, _ = sample_random_cluster(triangle_graphic, ones(3), 0.5, cfg, 120,
                                 method="sequential")
    assert a == b


def test_samples_are_sorted_lists(uniform42):
    cfg = ChainConfig(seed=1, step_override=20)
    samples, _ = sample_independent_sets(uniform42, ones(4), cfg, 50)
    for s in samples:
        assert s == sorted(s)
        assert all(0 <= i < 4 for i in s)
        assert len(s) <= 2  # rank cap of uniform(4, 2)


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


@pytest.mark.parametrize("method", ["sequential", "vectorized"])
@pytest.mark.parametrize("model, lam", [
    ("independent", [1e308, 1e308, 1.0]),   # the sum of λ overflows
    ("random-cluster", [1e-310, 1.0, 1.0]),  # 1/λ_0 overflows
    ("random-cluster", [1e-308, 1e-308, 1.0]),  # each 1/λ is finite, their sum is not
])
def test_overflowing_proposal_total_rejected(triangle_graphic, model, lam, method):
    cfg = ChainConfig(seed=1, step_override=20)
    with pytest.raises(ValidationError, match="overflows"):
        if model == "independent":
            sample_independent_sets(spec_of({"variant": "uniform", "n": 3, "k": 1}),
                                    Fields(lam), cfg, 10, method=method)
        else:
            sample_random_cluster(triangle_graphic, Fields(lam), 0.5, cfg, 10,
                                  method=method)
