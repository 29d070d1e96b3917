"""Batch (table-driven) execution vs the sequential chains: same law, same caps."""

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    Fields,
    SizeLimitError,
    ValidationError,
    matroid_from_dict,
)
from matroid_mcmc.exact import (
    BruteMatroid,
    empirical_distribution,
    exact_mu,
    exact_rc,
    tv_distance,
)
from matroid_mcmc.sampling import sample_independent_sets, sample_random_cluster
from matroid_mcmc.vectorized import (
    VECTORIZED_MAX_N,
    SmallTables,
    greedy_basis_mask,
    run_polarized_batch,
    run_rc_batch,
)

from conftest import K4_EDGES, TRIANGLE_EDGES, masks_of, ones, spec_of


def test_tables_match_brute():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})
    f = Fields([1, 2, 0.5, 1, 3, 0.25])
    ref = BruteMatroid(spec)
    tp = SmallTables(spec, f, need="polarized")
    tr = SmallTables(spec, f, need="rc")
    for m in range(1 << 6):
        assert bool(tp.indep[m]) == ref.is_independent(m)
        assert int(tr.rank[m]) == ref.rank(m)
        assert tp.popcnt[m] == bin(m).count("1")
        # mass = total weight of elements outside the mask
        want = sum(f.lam[i] for i in range(6) if not m >> i & 1)
        assert tp.mass[m] == pytest.approx(want, rel=1e-12)
        # rc tables are indexed by the complement of the cluster set m
        want_inv = sum(1 / f.lam[i] for i in range(6) if m >> i & 1)
        assert tr.mass[m ^ 0b111111] == pytest.approx(want_inv, rel=1e-12)


def test_greedy_basis_is_max_rank():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})
    tb = SmallTables(spec, ones(6), need="rc")
    mask = greedy_basis_mask(tb)
    ref = BruteMatroid(spec)
    assert ref.rank(mask) == ref.rank((1 << 6) - 1)
    assert ref.is_independent(mask)


def test_size_cap_enforced():
    spec = matroid_from_dict({"variant": "uniform", "n": VECTORIZED_MAX_N + 1,
                              "k": 3})
    with pytest.raises(SizeLimitError):
        run_polarized_batch(spec, ones(spec.n), ChainConfig(seed=0), count=4)


def test_dependent_initial_mask_rejected():
    spec = spec_of({"variant": "uniform", "n": 4, "k": 1})
    with pytest.raises(ValidationError):
        run_polarized_batch(spec, ones(4), ChainConfig(seed=0), count=4,
                            initial_mask=0b11)


BATCH_CASES = [
    ({"variant": "uniform", "n": 4, "k": 2}, [1.0, 2.0, 3.0, 4.0]),
    ({"variant": "cographic", "edges": [list(e) for e in TRIANGLE_EDGES]},
     [1.0, 1.0, 1.0]),
    ({"variant": "partition", "blocks": [[0, 1, 2], [3, 4]], "caps": [1, 1]},
     [0.5, 1.0, 2.0, 1.0, 3.0]),
]


@pytest.mark.parametrize("d,lam", BATCH_CASES,
                         ids=[c[0]["variant"] for c in BATCH_CASES])
def test_polarized_batch_and_sequential_same_law(d, lam):
    spec = spec_of(d)
    f = Fields(lam)
    cfg = ChainConfig(epsilon=0.05, seed=31)
    mu = exact_mu(spec, f)
    seq, _ = sample_independent_sets(spec, f, cfg, 6_000, method="sequential")
    vec, _ = sample_independent_sets(spec, f, cfg, 12_000, method="vectorized")
    tv_seq = tv_distance(empirical_distribution(masks_of(seq)), mu)
    tv_vec = tv_distance(empirical_distribution(masks_of(vec)), mu)
    assert tv_seq <= 0.03, tv_seq
    assert tv_vec <= 0.03, tv_vec


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_rc_batch_and_sequential_same_law(q):
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    f = Fields([1.0, 2.0, 0.5])
    cfg = ChainConfig(epsilon=0.05, seed=37)
    rcd = exact_rc(spec, f, q)
    seq, sseq = sample_random_cluster(spec, f, q, cfg, 6_000, method="sequential")
    vec, svec = sample_random_cluster(spec, f, q, cfg, 12_000, method="vectorized")
    assert tv_distance(empirical_distribution(masks_of(seq)), rcd) <= 0.03
    assert tv_distance(empirical_distribution(masks_of(vec)), rcd) <= 0.03
    # both paths must see comparable rejection pressure
    assert abs(sseq.rejection_rate - svec.rejection_rate) < 0.05


def test_batch_states_stay_independent():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})
    f = ones(6)
    ref = BruteMatroid(spec)
    masks, _ = run_polarized_batch(spec, f, ChainConfig(seed=5, step_override=25),
                                   count=5000)
    for m in np.unique(masks):
        assert ref.is_independent(int(m))


def test_rc_batch_q0_stays_max_rank():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})
    ref = BruteMatroid(spec)
    rmax = ref.rank((1 << 6) - 1)
    masks, _ = run_rc_batch(spec, ones(6), 0.0,
                            ChainConfig(seed=5, step_override=25), count=5000)
    for m in np.unique(masks):
        assert ref.rank(int(m)) == rmax


def test_batch_deterministic():
    spec = spec_of({"variant": "uniform", "n": 4, "k": 2})
    cfg = ChainConfig(seed=101, step_override=40)
    m1, s1 = run_polarized_batch(spec, ones(4), cfg, count=2000)
    m2, s2 = run_polarized_batch(spec, ones(4), cfg, count=2000)
    assert (m1 == m2).all()
    assert s1.proposals == s2.proposals and s1.rejections == s2.rejections
