"""Chain behavior: realized transition law vs enumerated kernels, stats, guards."""

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    Fields,
    PolarizedChain,
    RandomClusterChain,
    UnsupportedOperationError,
    ValidationError,
    exact_kernel,
    matroid_from_dict,
    run_polarized_batch,
    run_rc_batch,
)
from matroid_mcmc.exact import exact_rc
from matroid_mcmc.matroids import ForestOracle

from conftest import LOOP_PARALLEL_EDGES, TRIANGLE_EDGES, grid_edges, ones, spec_of


def test_fresh_chain_stats_zero(uniform42):
    chain = PolarizedChain(uniform42, ones(4), ChainConfig(seed=0))
    assert chain.stats.steps == 0
    assert chain.stats.proposals == 0
    assert chain.stats.rejections == 0


def test_steps_counter_matches_run(uniform42):
    cfg = ChainConfig(seed=3, step_override=37)
    chain = PolarizedChain(uniform42, ones(4), cfg)
    chain.run()
    assert chain.stats.steps == 37
    assert chain.stats.proposals >= chain.stats.steps
    assert chain.stats.rejections <= chain.stats.proposals


def test_initial_state_is_empty(uniform42):
    chain = PolarizedChain(uniform42, ones(4), ChainConfig(seed=0))
    assert chain.state_mask() == 0
    assert chain.widx.active_count == 4


def test_fields_length_checked(uniform42):
    with pytest.raises(ValidationError):
        PolarizedChain(uniform42, ones(3), ChainConfig(seed=0))


def _set_polarized_state(chain, amask):
    """Make A = amask: the oracle holds A; widx has 0 on A and λ_i elsewhere."""
    for i in range(chain.n):
        want = bool(amask >> i & 1)
        if want != (i in chain.oracle.current):
            (chain.oracle.insert if want else chain.oracle.delete)(i)
            chain.widx.set(i, 0.0 if want else chain.weight[i])


def _set_rc_state(chain, amask):
    """Make the cluster set A = amask: the oracle holds A; widx has 1/λ_j on A."""
    for i in range(chain.n):
        want = bool(amask >> i & 1)
        if want != (i in chain.oracle.current):
            (chain.oracle.insert if want else chain.oracle.delete)(i)
            chain.widx.set(i, chain.weight[i] if want else 0.0)


def test_down_step_class_frequencies():
    """From a fixed state with |A|=3, n=6: P(drop from A) = 1/2 +- 0.01."""
    spec = spec_of({"variant": "uniform", "n": 6, "k": 6})
    cfg = ChainConfig(seed=21)
    chain = PolarizedChain(spec, ones(6), cfg)
    trials, from_a = 100_000, 0
    for _ in range(trials):
        _set_polarized_state(chain, 0b000111)  # rebuild the fixed state {0,1,2}
        if chain.down_step() == "x":
            from_a += 1
        chain.up_step()
    assert abs(from_a / trials - 0.5) < 0.01


def test_free_matroid_never_rejects():
    spec = spec_of({"variant": "uniform", "n": 5, "k": 5})
    cfg = ChainConfig(seed=2, step_override=4000)
    chain = PolarizedChain(spec, Fields([1, 2, 3, 0.5, 1.5]), cfg)
    chain.run()
    assert chain.stats.rejections == 0
    assert chain.stats.proposals == chain.stats.steps


def test_rc_q1_never_rejects(triangle_graphic):
    cfg = ChainConfig(seed=4, step_override=5000)
    chain = RandomClusterChain(triangle_graphic, Fields([1, 2, 0.5]), 1.0, cfg)
    chain.run()
    assert chain.stats.rejections == 0


def test_rc_q1_product_marginals():
    """q=1 with arbitrary weights: P(i in A) = lambda_i / (1 + lambda_i)."""
    spec = spec_of({"variant": "uniform", "n": 3, "k": 3})
    lam = [0.5, 1.0, 3.0]
    cfg = ChainConfig(seed=8, step_override=60)
    masks, _ = run_rc_batch(spec, Fields(lam), 1.0, cfg, count=60_000)
    for i, li in enumerate(lam):
        freq = float(((masks >> i) & 1).mean())
        assert abs(freq - li / (1 + li)) < 0.01, (i, freq)


def test_rc_q0_initial_state_is_basis(triangle_graphic):
    chain = RandomClusterChain(triangle_graphic, ones(3), 0.0, ChainConfig(seed=1))
    assert len(chain.A) == 2  # greedy spanning tree of the triangle
    # the walk runs on the complement: |A| free auxiliary slots
    assert chain.widx.active_count == 2


def test_rc_q0_all_loops_starts_empty():
    spec = matroid_from_dict({"variant": "graphic", "edges": [[0, 0], [0, 0]]})
    chain = RandomClusterChain(spec, ones(2), 0.0, ChainConfig(seed=1))
    assert chain.A == []


def test_rc_rank_never_decreases_at_q0(triangle_graphic):
    cfg = ChainConfig(seed=10, step_override=1)
    chain = RandomClusterChain(triangle_graphic, ones(3), 0.0, cfg)
    for _ in range(3000):
        chain.step()
        assert chain.oracle.rank() == 2


def test_rc_rejects_bad_q(triangle_graphic):
    with pytest.raises(ValidationError):
        RandomClusterChain(triangle_graphic, ones(3), 1.5, ChainConfig(seed=0))
    with pytest.raises(ValidationError):
        RandomClusterChain(triangle_graphic, ones(3), -0.1, ChainConfig(seed=0))


def test_rc_needs_rank_capable_spec(triangle_cographic):
    with pytest.raises(UnsupportedOperationError):
        RandomClusterChain(triangle_cographic, ones(3), 0.5, ChainConfig(seed=0))


def test_debug_asserts_smoke(monkeypatch, triangle_graphic, triangle_cographic):
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    cfg = ChainConfig(seed=6, step_override=300)
    PolarizedChain(triangle_cographic, ones(3), cfg).run()
    RandomClusterChain(triangle_graphic, ones(3), 0.5, cfg).run()
    RandomClusterChain(triangle_graphic, ones(3), 0.0, cfg).run()


def test_state_check_catches_desync(triangle_graphic, triangle_cographic):
    """The debug invariant: widx's zero weights are A (polarized) or E \\ A (rc)."""
    chain = PolarizedChain(triangle_cographic, ones(3), ChainConfig(seed=6))
    chain._check_state()
    chain.widx.set(0, 0.0)  # widx says 0 ∈ A, the oracle does not
    with pytest.raises(AssertionError):
        chain._check_state()
    rc = RandomClusterChain(triangle_graphic, ones(3), 0.0, ChainConfig(seed=6))
    rc._check_state()
    rc.widx.set(rc.A[0], 0.0)  # widx says the first cluster edge left A
    with pytest.raises(AssertionError):
        rc._check_state()


# ---------------------------------------------------------------------------
# realized one-step law vs the enumerated kernel (per start state)


def _simulated_row_tv(kind, spec, fields, q, start, target_row, states, trials):
    cfg = ChainConfig(seed=start + 1, step_override=1)
    if kind == "polarized":
        masks, _ = run_polarized_batch(spec, fields, cfg, count=trials, initial_mask=start)
    else:
        masks, _ = run_rc_batch(spec, fields, q, cfg, count=trials, initial_mask=start)
    idx = {m: i for i, m in enumerate(states)}
    counts = np.zeros(len(states))
    uniq, cnt = np.unique(masks, return_counts=True)
    for m, c in zip(uniq, cnt):
        counts[idx[int(m)]] = c
    return 0.5 * np.abs(counts / trials - target_row).sum()


def test_polarized_simulated_kernel_rows():
    spec = spec_of({"variant": "uniform", "n": 4, "k": 2})
    f = Fields([1.0, 2.0, 3.0, 4.0])
    states, P = exact_kernel("polarized", spec, f)
    for si, start in enumerate(states):
        tv = _simulated_row_tv("polarized", spec, f, None, start,
                               P[si], states, trials=1_000_000)
        assert tv <= 0.01, (start, tv)


def test_rc_simulated_kernel_rows():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    f = Fields([1.0, 0.5, 2.0])
    q = 0.5
    states, P = exact_kernel("random-cluster", spec, f, q=q)
    for si, start in enumerate(states):
        tv = _simulated_row_tv("random-cluster", spec, f, q, start,
                               P[si], states, trials=1_000_000)
        assert tv <= 0.01, (start, tv)


def test_polarized_simulated_kernel_rows_with_rejections():
    """A cographic multigraph with a self-loop and parallel edges, where the
    re-add rejects: the batch's one-step law still matches every kernel row."""
    spec = spec_of({"variant": "cographic", "edges": [list(e) for e in LOOP_PARALLEL_EDGES]})
    f = Fields([1.0, 2.0, 0.5, 1.0, 3.0, 0.25])
    _, stats = run_polarized_batch(spec, f, ChainConfig(seed=1, step_override=5), count=1000)
    assert stats.rejections > 0
    states, P = exact_kernel("polarized", spec, f)
    for si, start in enumerate(states):
        tv = _simulated_row_tv("polarized", spec, f, None, start,
                               P[si], states, trials=1_000_000)
        assert tv <= 0.01, (start, tv)


def _sequential_rows_tv(chain, set_state, states, P, trials):
    """Largest TV distance of one sequential step from its kernel row, over starts."""
    idx = {m: k for k, m in enumerate(states)}
    worst = 0.0
    for si, start in enumerate(states):
        counts = np.zeros(len(states))
        for _ in range(trials):
            set_state(chain, start)
            chain.step()
            counts[idx[chain.state_mask()]] += 1
        worst = max(worst, 0.5 * np.abs(counts / trials - P[si]).sum())
    return worst


def test_polarized_sequential_kernel_rows():
    spec = spec_of({"variant": "uniform", "n": 4, "k": 2})
    f = Fields([1.0, 2.0, 3.0, 4.0])
    states, P = exact_kernel("polarized", spec, f)
    chain = PolarizedChain(spec, f, ChainConfig(seed=31))
    assert _sequential_rows_tv(chain, _set_polarized_state, states, P, 40_000) <= 0.02


def test_rc_sequential_kernel_rows():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    f = Fields([1.0, 0.5, 2.0])
    states, P = exact_kernel("random-cluster", spec, f, q=0.5)
    chain = RandomClusterChain(spec, f, 0.5, ChainConfig(seed=32))
    assert _sequential_rows_tv(chain, _set_rc_state, states, P, 40_000) <= 0.02


def test_sequential_chain_matches_kernel_row():
    """Long sequential run from one start: occupancy matches the stationary law.

    This pins the pure-Python transition code against the enumerated kernel
    (the batch runner is checked separately above).
    """
    spec = spec_of({"variant": "uniform", "n": 4, "k": 2})
    f = Fields([1.0, 2.0, 3.0, 4.0])
    states, P = exact_kernel("polarized", spec, f)
    # stationary occupancy from a long trajectory
    chain = PolarizedChain(spec, f, ChainConfig(seed=77))
    counts = {m: 0 for m in states}
    burn, keep = 2000, 300_000
    for _ in range(burn):
        chain.step()
    for _ in range(keep):
        chain.step()
        counts[chain.state_mask()] += 1
    pi = np.array([counts[m] / keep for m in states])
    target = np.linalg.matrix_power(P.T, 200) @ np.ones(len(states)) / len(states)
    assert 0.5 * np.abs(pi - target).sum() <= 0.02


def test_rc_sequential_matches_exact_law():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    f = Fields([1.0, 0.5, 2.0])
    q = 0.25
    rcd = exact_rc(spec, f, q)
    chain = RandomClusterChain(spec, f, q, ChainConfig(seed=13))
    counts = {}
    burn, keep = 2000, 300_000
    for _ in range(burn):
        chain.step()
    for _ in range(keep):
        chain.step()
        m = chain.state_mask()
        counts[m] = counts.get(m, 0) + 1
    tv = 0.5 * sum(abs(counts.get(m, 0) / keep - rcd.prob_of(m))
                   for m in range(1 << 3))
    assert tv <= 0.02


def test_polarized_cographic_grid_hdt_matches_naive():
    """Oracle answers are exact, so every backend gives one trajectory; on
    this 144-vertex grid, auto is the forest oracle, over the plane dual
    (cographic) or over the grid itself (graphic)."""
    for variant in ("cographic", "graphic"):
        spec = matroid_from_dict({"variant": variant, "edges": grid_edges(12, 12)})
        fields = Fields([0.5 + (i % 7) / 4 for i in range(spec.n)])
        cfg = ChainConfig(seed=21, step_override=4000)
        chains = [PolarizedChain(spec, fields, cfg, dyncon_backend=b)
                  for b in ("hdt", "naive", "auto")]
        hdt, naive, auto = chains
        assert type(hdt.oracle._g).__name__ != type(naive.oracle._g).__name__
        assert type(auto.oracle) is ForestOracle
        assert hdt.run() == naive.run() == auto.run(), variant
        assert hdt.stats == naive.stats == auto.stats, variant
        assert hdt.stats.rejections > 0


def test_polarized_planar_multigraph_dual_matches_hdt(monkeypatch):
    """A 7x7 grid with parallel edges, self-loops and a pendant bridge (50
    vertices, so auto picks the forest oracle): the forest and HDT walk
    alike on both graph variants, with both oracles' invariants checked
    after every mutation."""
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    edges = grid_edges(7, 7)
    edges += [edges[i] for i in (0, 5, 5, 40, 83)] + [[3, 3], [24, 24], [24, 24]]
    edges += [[48, 49], [49, 49]]
    for variant in ("cographic", "graphic"):
        spec = matroid_from_dict({"variant": variant, "edges": edges})
        fields = Fields([0.4 + (i % 5) / 3 for i in range(spec.n)])
        cfg = ChainConfig(seed=23, step_override=3000)
        auto, hdt = (PolarizedChain(spec, fields, cfg, dyncon_backend=b)
                     for b in ("auto", "hdt"))
        assert type(auto.oracle) is ForestOracle and hdt.oracle._g.name == "hdt"
        assert auto.run() == hdt.run(), variant
        assert auto.stats == hdt.stats, variant
        assert auto.stats.rejections > 0


@pytest.mark.parametrize("q", [0.5, 0.0])
def test_rc_graphic_grid_hdt_matches_naive(q):
    """The random-cluster twin: rank_drops_on_delete (and, at q = 0, the
    greedy start's rank()) answer alike on both backends."""
    spec = matroid_from_dict({"variant": "graphic", "edges": grid_edges(10, 10)})
    fields = Fields([0.5 + (i % 7) / 4 for i in range(spec.n)])
    cfg = ChainConfig(seed=22, step_override=4000)
    chains = [RandomClusterChain(spec, fields, q, cfg, dyncon_backend=b)
              for b in ("hdt", "naive")]
    hdt, naive = chains
    assert type(hdt.oracle._g).__name__ != type(naive.oracle._g).__name__
    assert hdt.A == naive.A
    assert hdt.run() == naive.run()
    assert hdt.stats == naive.stats
    assert hdt.stats.rejections > 0
