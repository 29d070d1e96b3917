"""Seeded stream determinism and per-chain seed derivation."""

import dataclasses

import numpy as np
import pytest

from matroid_mcmc import (ChainConfig, Fields, NetworkInstance, SeedStream, ValidationError,
                          derive_seed, matroid_from_dict, rel_estimate)
from matroid_mcmc.rng import _BUFFER
from matroid_mcmc.sampling import sample_independent_sets


def test_same_seed_same_stream():
    a = SeedStream(1234)
    b = SeedStream(1234)
    assert [a.u() for _ in range(10_000)] == [b.u() for _ in range(10_000)]


def test_different_seeds_differ():
    a = SeedStream(1)
    b = SeedStream(2)
    assert [a.u() for _ in range(16)] != [b.u() for _ in range(16)]


def test_values_in_unit_interval():
    s = SeedStream(7)
    for _ in range(5000):
        u = s.u()
        assert 0.0 <= u < 1.0


def test_buffer_refill_is_seamless():
    # draw past several internal buffer boundaries and compare with a twin
    a = SeedStream(99)
    b = SeedStream(99)
    xs = [a.u() for _ in range(3 * 4096 + 17)]
    ys = [b.u() for _ in range(3 * 4096 + 17)]
    assert xs == ys


def test_draws_are_python_floats_in_generator_order():
    """A stream hands out plain floats, the Philox generator's doubles in its
    own order, across three refills of the buffer."""
    key = derive_seed(23, 1)
    s = SeedStream(key)
    draws = [s.u() for _ in range(3 * _BUFFER)]
    assert {type(u) for u in draws} == {float}
    ref = np.random.Generator(np.random.Philox(key=key)).random(3 * _BUFFER)
    assert draws == ref.tolist()


def test_derive_seed_distinct_and_stable():
    base = 0xDEADBEEF
    seen = {derive_seed(base, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(base, 3) == derive_seed(base, 3)
    assert derive_seed(1, 0) != derive_seed(0, 1)  # a xor of the pair would tie
    assert 0 <= derive_seed(2**63, 2**62) < 2**64


def test_derive_seed_keys_distinct_across_seeds():
    keys = {derive_seed(s, i) for s in range(64) for i in range(64)}
    assert len(keys) == 64 * 64


@pytest.mark.parametrize("seed", [-1, 1 << 64, 3 + (1 << 64), 3 - (1 << 64), 3.0, "3"])
def test_seed_outside_64_bits_is_rejected(seed):
    """A seed is an integer in [0, 2^64): every stream is keyed by 64 bits, so
    3 + 2^64 would replay seed 3.  ChainConfig checks it, and so does
    rel_estimate on the seed it derives its level keys from."""
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\^64\)"):
        ChainConfig(seed=seed)
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\^64\)"):
        rel_estimate(NetworkInstance(2, [(0, 1), (0, 1)], 0.5), 0.5, 0.5, seed=seed)
    with pytest.raises(dataclasses.FrozenInstanceError):  # nor can one be set later
        ChainConfig().seed = seed


@pytest.mark.parametrize("n,pinned", [
    (5, [[2], [1, 4], [0], [0, 1]]),  # one lockstep batch
    (20, [[13, 17], [2, 15], [2, 15], [11, 13]]),  # sequential chains
], ids=["lockstep", "sequential"])
def test_top_seed_is_pinned(n, pinned):
    """The largest seed, 2^64 - 1, is accepted on both paths and keys the
    streams it always did."""
    spec = matroid_from_dict({"variant": "uniform", "n": n, "k": 2})
    cfg = ChainConfig(seed=(1 << 64) - 1, step_override=25)
    assert sample_independent_sets(spec, Fields.constant(n, 1.0), cfg, 4)[0] == pinned
