"""Chain behavior: realized transition law vs enumerated kernels, stats, guards."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    Fields,
    PolarizedChain,
    RandomClusterChain,
    StepStats,
    ValidationError,
    exact_kernel,
    matroid_from_dict,
    run_polarized_batch,
    run_rc_batch,
)
from matroid_mcmc.cli import main as cli_main
from matroid_mcmc.exact import exact_mu, exact_pi, exact_rc, tv_distance
from matroid_mcmc.matroids import ForestOracle
from matroid_mcmc.vectorized import SmallTables

from conftest import (K4_EDGES, LOOP_PARALLEL_EDGES, TRIANGLE_EDGES, grid_edges, masks_of,
                      ones, sequential_samples, spec_of)
from reference import empirical_distribution


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


@pytest.mark.parametrize("size", [3, 5], ids=["short", "long"])
def test_fields_size_checked_everywhere(uniform42, size):
    """Every entry point that takes a spec and its fields checks one weight
    per element, with Fields.require_size's error: a short vector does not
    reach an index, and a long one's extra weights are not dropped."""
    f = ones(size)
    cfg = ChainConfig(seed=0, step_override=1)
    calls = [lambda: exact_mu(uniform42, f), lambda: exact_pi(uniform42, f),
             lambda: exact_rc(uniform42, f, 0.5),
             lambda: exact_kernel("polarized", uniform42, f),
             lambda: exact_kernel("random-cluster", uniform42, f, q=0.5),
             lambda: PolarizedChain(uniform42, f, cfg),
             lambda: RandomClusterChain(uniform42, f, 0.5, cfg),
             lambda: SmallTables(uniform42, f, need="polarized"),
             lambda: run_polarized_batch(uniform42, f, cfg, count=2),
             lambda: run_rc_batch(uniform42, f, 0.5, cfg, count=2)]
    for call in calls:
        with pytest.raises(ValidationError, match="the fields vector has"):
            call()


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


@pytest.mark.parametrize("q", [-0.5, 1.5, math.nan])
def test_q_rule_rejects_everywhere(q, uniform42, tmp_path, capsys):
    """0 <= q <= 1 has one owner, matroids.check_q, and one error wherever a
    q comes in (a kernel at q = -0.5 would have negative entries)."""
    f = ones(4)
    cfg = ChainConfig(seed=0, step_override=1)
    calls = [lambda: RandomClusterChain(uniform42, f, q, cfg),
             lambda: run_rc_batch(uniform42, f, q, cfg, count=2),
             lambda: exact_rc(uniform42, f, q),
             lambda: exact_kernel("random-cluster", uniform42, f, q=q)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"q must lie in \[0, 1\]"):
            call()
    spec = tmp_path / "u42.json"
    spec.write_text(json.dumps({"variant": "uniform", "n": 4, "k": 2}))
    argv = ["sample", "--model", "random-cluster", "--matroid", str(spec), f"--q={q}"]
    assert cli_main(argv) == 2  # the exit code of a ValidationError
    assert "q must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("name,q,count,tol", [
    ("triangle", 0.0, 6_000, 0.03), ("triangle", 0.5, 6_000, 0.03),
    # 64 cluster sets: the TV of 10,000 exact draws averages 0.028 (99th
    # percentile 0.036), and this law lies 0.077 from the graphic K4's
    ("K4", 0.25, 10_000, 0.045)], ids=["triangle-q0", "triangle-q0.5", "K4-q0.25"])
def test_rc_law_on_cographic_specs(name, q, count, tol):
    """The cographic oracle answers rank, so the random-cluster walk runs on a
    cographic spec: its law on both paths against exact_rc."""
    edges = {"triangle": TRIANGLE_EDGES, "K4": K4_EDGES}[name]
    spec = spec_of({"variant": "cographic", "edges": [list(e) for e in edges]})
    f = Fields([1.0, 2.0, 0.5, 1.5, 0.75, 1.0][:spec.n])
    cfg = ChainConfig(epsilon=0.05, seed=41)
    rcd = exact_rc(spec, f, q)
    seq, _ = sequential_samples(lambda c: RandomClusterChain(spec, f, q, c), cfg, count)
    vec, _ = run_rc_batch(spec, f, q, cfg, 2 * count)
    tv_seq = tv_distance(empirical_distribution(masks_of(seq)), rcd)
    tv_vec = tv_distance(empirical_distribution(vec), rcd)
    assert tv_seq <= tol, tv_seq
    assert tv_vec <= tol, tv_vec


@pytest.mark.parametrize("q", [1.0, 0.5])
def test_rc_asks_the_bridge_question_only_below_q1(triangle_graphic, q):
    """At q = 1 every removal is accepted, so no proposal asks whether it
    would drop the rank; below 1 the walk must ask."""
    chain = RandomClusterChain(triangle_graphic, ones(3), q,
                               ChainConfig(seed=2, step_override=500))
    asked = []
    real = chain.oracle.rank_drops_on_delete
    chain.oracle.rank_drops_on_delete = lambda j: asked.append(j) or real(j)
    chain.run()
    assert chain.stats.proposals >= 500
    assert (len(asked) > 0) == (q < 1.0), len(asked)


def test_rc_draws_the_coin_before_the_bridge_question():
    """The q coin is drawn first, so the rank question is asked only when the
    coin would reject: at q = 0 on every proposal of an element of A, at
    q = 1 on none, and at q = 0.5 on about half of them."""
    spec = spec_of({"variant": "graphic", "edges": grid_edges(3, 4)})
    asked = {}
    for q in (0.0, 0.5, 1.0):
        chain = RandomClusterChain(spec, ones(spec.n), q, ChainConfig(seed=8, step_override=3000))
        proposed, queried = [], []
        accepts, drops = chain._accepts, chain.oracle.rank_drops_on_delete

        def propose(j):
            assert j in chain.oracle.current  # the down step proposes only elements of A
            proposed.append(j)
            return accepts(j)

        chain._accepts = propose
        chain.oracle.rank_drops_on_delete = lambda j: queried.append(j) or drops(j)
        chain.run()
        assert len(proposed) > 1000, (q, len(proposed))
        asked[q] = len(queried)
        if q == 0.0:
            assert queried == proposed
        elif q == 0.5:
            assert 0.4 < len(queried) / len(proposed) < 0.6, (len(queried), len(proposed))
    assert asked[1.0] == 0
    assert asked[0.5] < 0.75 * asked[0.0], asked


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


def _pinned_fields(n):
    return Fields([0.5 + 0.25 * (i % 5) for i in range(n)])


def _pinned_chain(case):
    cfg = ChainConfig(seed=2301, step_override=4000)
    if case == "cographic-forest":
        spec = spec_of({"variant": "cographic", "edges": grid_edges(5, 6)})
        chain = PolarizedChain(spec, _pinned_fields(spec.n), cfg)
        assert type(chain.oracle) is ForestOracle
        return chain
    if case == "graphic":
        spec = spec_of({"variant": "graphic", "edges": grid_edges(4, 5)})
        return PolarizedChain(spec, _pinned_fields(spec.n), replace(cfg, seed=2302))
    spec = spec_of({"variant": "graphic", "edges": grid_edges(4, 6)})
    backend = case.removeprefix("rc-")
    chain = RandomClusterChain(spec, _pinned_fields(spec.n), 0.5, replace(cfg, seed=2303),
                               dyncon_backend=backend)
    assert chain.oracle._g.name == backend
    return chain


_RC_PINNED = ([1, 2, 3, 4, 5, 9, 11, 12, 13, 14, 15, 17, 19, 21, 22, 26, 27, 28, 29, 31,
               32, 33, 34, 35, 37], StepStats(proposals=4900, rejections=900, steps=4000))
# final A and stats of each case, recorded before the sequential step ran on
# Python floats
_PINNED = {
    "cographic-forest": ([1, 7, 8, 12, 13, 15, 20, 23, 24, 27, 31, 36, 39, 46, 47, 48],
                         StepStats(proposals=5228, rejections=1228, steps=4000)),
    "graphic": ([0, 1, 8, 9, 12, 13, 14, 16, 20, 23, 24, 26, 29],
                StepStats(proposals=4446, rejections=446, steps=4000)),
    "rc-naive": _RC_PINNED,
    "rc-hdt": _RC_PINNED,
}


@pytest.mark.parametrize("case", list(_PINNED))
def test_pinned_sequential_outputs(case):
    """Seeded sequential chains keep the final set and counts they had when
    the values were recorded: a speed-up of the step must not move a byte."""
    chain = _pinned_chain(case)
    assert (chain.run(), chain.stats) == _PINNED[case]
