"""Batch (table-driven) execution vs the sequential chains: same law, same caps."""

import ast
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_mcmc import (
    ChainConfig,
    Fields,
    PolarizedChain,
    RandomClusterChain,
    SizeLimitError,
    ValidationError,
    build_oracle,
    derive_seed,
    matroid_from_dict,
)
from matroid_mcmc.exact import (
    BruteMatroid,
    empirical_distribution,
    exact_mu,
    exact_rc,
    tv_distance,
)
from matroid_mcmc.matroids import greedy_basis
from matroid_mcmc import vectorized
from matroid_mcmc.sampling import sample_independent_sets, sample_random_cluster
from matroid_mcmc.vectorized import (
    VECTORIZED_MAX_N,
    SmallTables,
    readd_tables,
    run_polarized_batch,
    run_rc_batch,
)

from conftest import (
    K4_EDGES,
    LOOP_PARALLEL_EDGES,
    REPO_ROOT,
    TRIANGLE_EDGES,
    grid_edges,
    masks_of,
    ones,
    sequential_samples,
    spec_of,
)

TABLE_CASES = {
    "graphic-K4": {"variant": "graphic", "edges": [list(e) for e in K4_EDGES]},
    "graphic-loop-parallel": {"variant": "graphic",
                              "edges": [list(e) for e in LOOP_PARALLEL_EDGES]},
    "cographic-loop-parallel": {"variant": "cographic",
                                "edges": [list(e) for e in LOOP_PARALLEL_EDGES]},
    "uniform": {"variant": "uniform", "n": 6, "k": 3},
    "partition": {"variant": "partition", "blocks": [[0, 3], [1, 4, 5], [2]],
                  "caps": [1, 2, 0]},
    "binary-linear": {"variant": "binary-linear",
                      "matrix": [[1, 0, 1, 1, 0, 0], [0, 1, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0]]},
    # U(2, 3) on {0, 1, 2}, U(1, 2) on {3, 4}, and the loop 5
    "explicit": {"variant": "explicit", "n": 6, "independent_sets": [
        a + b for a in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2]) for b in ([], [3], [4])]},
}


@pytest.mark.parametrize("name", list(TABLE_CASES))
def test_tables_match_brute(name):
    """The tables, filled by the production oracles, agree with the reference."""
    spec = spec_of(TABLE_CASES[name])
    f = Fields([1, 2, 0.5, 1, 3, 0.25])
    ref = BruteMatroid(spec)
    tp = SmallTables(spec, f, need="polarized")
    tr = SmallTables(spec, f, need="rc") if spec.rank_capable else None
    acc_p = readd_tables(tp)[2]
    acc_r = readd_tables(tr, 0.5)[2] if tr is not None else None
    for m in range(1 << 6):
        assert bool(tp.indep[m]) == ref.is_independent(m), m
        if tr is not None:
            assert int(tr.rank[m]) == ref.rank(m), m
        # re-add row: n - |m| auxiliary slots plus the weight of every j that
        # may join m (rc: j leaves the cluster set ~m, at rate q if rk drops)
        out = [j for j in range(6) if not m >> j & 1]
        want = len(out) + sum(f.lam[j] for j in out if ref.is_independent(m | 1 << j))
        assert acc_p[m] == pytest.approx(want, rel=1e-12), m
        if tr is not None:
            a = m ^ 0b111111
            want = len(out) + sum((1.0 if ref.rank(a ^ 1 << j) == ref.rank(a) else 0.5)
                                  / f.lam[j] for j in out)
            assert acc_r[m] == pytest.approx(want, rel=1e-12), m


def test_table_fill_walks_only_the_independent_sets(monkeypatch):
    """The fill walks the independent sets, not all 2^n masks.  The 2x5
    grid's cographic matroid (m = 13, 2^13 = 8,192 masks) has 479 independent
    sets; the walk asks 1,292 independence queries, each between one insert
    and one delete, and no rank query."""
    calls = Counter()
    kinds = []
    real = vectorized.build_oracle

    def counting(spec, kind="independence", *args, **kwargs):
        kinds.append(kind)
        oracle = real(spec, kind, *args, **kwargs)
        for name in ("insert", "delete", "is_independent", "rank"):
            method = getattr(oracle, name)

            def counted(*a, _method=method, _name=name):
                calls[_name] += 1
                return _method(*a)

            setattr(oracle, name, counted)
        return oracle

    monkeypatch.setattr(vectorized, "build_oracle", counting)
    spec = spec_of({"variant": "cographic", "edges": grid_edges(2, 5)})
    tb = SmallTables(spec, ones(spec.n), need="polarized")
    assert int(tb.indep.sum()) == 479
    assert kinds == ["independence"]
    assert calls == {"is_independent": 1292, "insert": 1292, "delete": 1292}


@st.composite
def multigraph_specs(draw):
    """A graphic or cographic spec on a random multigraph with at most 10
    edges, self-loops and parallel edges included; a cographic one gets a
    spanning path among its edges, so its graph is connected."""
    variant = draw(st.sampled_from(["graphic", "cographic"]))
    vertices = draw(st.integers(1, 5))
    path = [[v, v + 1] for v in range(vertices - 1)] if variant == "cographic" else []
    end = st.integers(0, vertices - 1)
    extra = draw(st.lists(st.lists(end, min_size=2, max_size=2),
                          min_size=1, max_size=10 - len(path)))
    return {"variant": variant, "edges": draw(st.permutations(path + extra))}


@settings(max_examples=60, deadline=None)
@given(multigraph_specs())
def test_tables_match_brute_on_random_multigraphs(d):
    spec = matroid_from_dict(d)
    ref = BruteMatroid(spec)
    every = range(1 << spec.n)
    tb = SmallTables(spec, ones(spec.n), need="polarized")
    assert tb.indep.tolist() == [ref.is_independent(m) for m in every]
    if spec.rank_capable:
        tb = SmallTables(spec, ones(spec.n), need="rc")
        assert tb.rank.tolist() == [ref.rank(m) for m in every]


LAW_FIELDS = {
    "moderate": [1, 2, 0.5, 1, 3, 0.25],
    # spans 1e±300, yet both Σλ and Σ1/λ stay finite
    "extreme": [1e300, 1e-300, 1.0, 3.0, 1e-150, 1e150],
}


def _readd_masses(ref, lam, q, m):
    """Row m of the re-add law from the reference: the n - |m| auxiliary
    slots, then the accepted weight of each j (0 for j ∈ m); q None is the
    polarized law, else the random-cluster law on complement masks."""
    n = len(lam)
    out = [j for j in range(n) if not m >> j & 1]
    row = [float(len(out))] + [0.0] * n
    for j in out:
        if q is None:
            row[j + 1] = lam[j] if ref.is_independent(m | 1 << j) else 0.0
        else:
            a = m ^ ((1 << n) - 1)
            row[j + 1] = (1.0 if ref.rank(a ^ 1 << j) == ref.rank(a) else q) / lam[j]
    return np.array(row)


@pytest.mark.parametrize("lam_name", list(LAW_FIELDS))
@pytest.mark.parametrize("name", list(TABLE_CASES))
def test_alias_tables_rebuild_readd_law(name, lam_name):
    """Each row's alias table draws the re-add law: column k is kept with
    probability prob[k] and otherwise gives way to alias[k], so its law is
    (prob[k] + Σ_{alias[j] = k} (1 - prob[j])) / (n + 1).  A column of zero
    mass must never be drawn: prob 0 and no column's alias."""
    spec = spec_of(TABLE_CASES[name])
    lam = LAW_FIELDS[lam_name]
    f = Fields(lam)
    ref = BruteMatroid(spec)
    laws = [None] + ([0.0, 0.5, 1.0] if spec.rank_capable else [])
    width, full = 7, (1 << 6) - 1
    for q in laws:
        tb = SmallTables(spec, f, need="polarized" if q is None else "rc")
        prob, alias, accepted, _ = readd_tables(tb, q)
        assert prob.dtype == np.float64 and alias.dtype == np.int8
        prob, alias = prob.reshape(-1, width), alias.reshape(-1, width)
        assert (prob[full] == 0.0).all()
        for m in range(full):
            mass = _readd_masses(ref, lam, q, m)
            assert accepted[m] == pytest.approx(mass.sum(), rel=1e-12), (q, m)
            law = prob[m].copy()
            np.add.at(law, alias[m], 1.0 - prob[m])
            assert law / width == pytest.approx(mass / mass.sum(), rel=1e-12, abs=0), (q, m)
            zero = np.flatnonzero(mass == 0.0)
            assert (prob[m, zero] == 0.0).all(), (q, m)
            assert not set(zero) & set(alias[m].tolist()), (q, m)


def _imported(tree):
    """Every module an import names; a relative one keeps its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = "." * node.level + (node.module or "")
            yield mod
            sep = "" if mod.endswith(".") else "."
            yield from (mod + sep + a.name for a in node.names)


def test_only_cli_and_package_import_exact():
    """The brute-force module is a test reference: no sampler imports it."""
    importers = [
        path.name for path in sorted((REPO_ROOT / "src" / "matroid_mcmc").glob("*.py"))
        if {".exact", "matroid_mcmc.exact"} & set(_imported(ast.parse(path.read_text("utf-8"))))]
    assert importers == ["__init__.py", "cli.py"]


def test_greedy_basis_is_max_rank():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})
    oracle = build_oracle(spec, "rank")
    basis = greedy_basis(oracle, spec.n)
    mask = sum(1 << i for i in basis)
    ref = BruteMatroid(spec)
    assert ref.rank(mask) == ref.rank((1 << 6) - 1)
    assert ref.is_independent(mask)
    assert sorted(oracle.current) == basis


def test_size_cap_enforced():
    spec = matroid_from_dict({"variant": "uniform", "n": VECTORIZED_MAX_N + 1,
                              "k": 3})
    with pytest.raises(SizeLimitError):
        run_polarized_batch(spec, ones(spec.n), ChainConfig(seed=0), count=4)


@pytest.mark.parametrize("mask", [-1, 1 << 4])
@pytest.mark.parametrize("runner", ["polarized", "rc"])
def test_out_of_range_initial_mask_rejected(runner, mask):
    spec = spec_of({"variant": "uniform", "n": 4, "k": 4})
    cfg = ChainConfig(seed=0, step_override=3)
    with pytest.raises(ValidationError):
        if runner == "polarized":
            run_polarized_batch(spec, ones(4), cfg, count=3, initial_mask=mask)
        else:
            run_rc_batch(spec, ones(4), 0.5, cfg, count=3, initial_mask=mask)


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
    seq, _ = sequential_samples(lambda c: PolarizedChain(spec, f, c), cfg, 6_000)
    vec, _ = sample_independent_sets(spec, f, cfg, 12_000)
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
    seq, sseq = sequential_samples(lambda c: RandomClusterChain(spec, f, q, c), cfg, 6_000)
    vec, svec = sample_random_cluster(spec, f, q, cfg, 12_000)
    assert tv_distance(empirical_distribution(masks_of(seq)), rcd) <= 0.03
    assert tv_distance(empirical_distribution(masks_of(vec)), rcd) <= 0.03
    # both paths must see comparable rejection pressure
    assert abs(sseq.rejection_rate - svec.rejection_rate) < 0.05


REJECTION_RATE_CASES = {
    "polarized-K4-lam3": ({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]},
                          [3.0, 1.0, 1.0, 1.0, 1.0, 1.0], None),
    "rc-triangle-q0.5": ({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]},
                         [1.0, 2.0, 0.5], 0.5),
}


@pytest.mark.parametrize("name", list(REJECTION_RATE_CASES))
def test_batch_and_sequential_same_rejection_rate(name):
    """The batch path draws its rejection counts from their law instead of
    running the loop: over the same 4096 chains x 30 steps (>= 1e5 proposals
    each), its rate must match the sequential loop's within 0.01, about five
    standard errors of the difference at these counts."""
    d, lam, q = REJECTION_RATE_CASES[name]
    spec = spec_of(d)
    f = Fields(lam)
    cfg = ChainConfig(seed=43, step_override=30)
    if q is None:
        _, seq = sequential_samples(lambda c: PolarizedChain(spec, f, c), cfg, 4096)
        _, vec = run_polarized_batch(spec, f, cfg, count=4096)
    else:
        _, seq = sequential_samples(lambda c: RandomClusterChain(spec, f, q, c), cfg, 4096)
        _, vec = run_rc_batch(spec, f, q, cfg, count=4096)
    assert seq.steps == vec.steps == 4096 * 30
    assert min(seq.proposals, vec.proposals) >= 100_000
    assert vec.proposals == vec.steps + vec.rejections
    assert abs(seq.rejection_rate - vec.rejection_rate) <= 0.01, (seq, vec)


def test_free_matroid_batch_never_rejects():
    spec = spec_of({"variant": "uniform", "n": 5, "k": 5})
    _, stats = run_polarized_batch(spec, Fields([0.5, 1.0, 2.0, 3.0, 4.0]),
                                   ChainConfig(seed=9, step_override=50), count=1000)
    assert stats.steps == 50_000
    assert stats.rejections == 0
    assert stats.proposals == stats.steps


def test_batch_states_stay_independent():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})
    f = ones(6)
    ref = BruteMatroid(spec)
    masks, _ = run_polarized_batch(spec, f, ChainConfig(seed=5, step_override=25),
                                   count=5000)
    for m in np.unique(masks):
        assert ref.is_independent(int(m))


def test_debug_asserts_pass_on_lockstep_runs(monkeypatch):
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    spec = spec_of(TABLE_CASES["graphic-loop-parallel"])
    cfg = ChainConfig(seed=5, step_override=25)
    run_polarized_batch(spec, ones(6), cfg, count=2000)
    for q in (0.0, 0.5):
        run_rc_batch(spec, ones(6), q, cfg, count=2000)


@pytest.mark.parametrize("runner", ["polarized", "rc"])
def test_debug_asserts_catch_a_bad_readd_table(monkeypatch, runner):
    """Zero-mass columns made drawable send chains to dependent sets (polarized)
    or below full rank (rc at q = 0); with the debug flag on, the runner says so."""
    real = vectorized.readd_tables

    def leaky(tb, q=None):
        prob, alias, accepted, rej = real(tb, q)
        prob[:] = 1.0  # every column kept, zero-mass ones included
        return prob, alias, accepted, rej

    monkeypatch.setattr(vectorized, "readd_tables", leaky)
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]})
    cfg = ChainConfig(seed=5, step_override=25)

    def run():
        if runner == "polarized":
            run_polarized_batch(spec, ones(6), cfg, count=500)
        else:
            run_rc_batch(spec, ones(6), 0.0, cfg, count=500)

    monkeypatch.delenv("MATROID_MCMC_DEBUG_ASSERTS", raising=False)
    run()  # off: the runner does not look
    monkeypatch.setenv("MATROID_MCMC_DEBUG_ASSERTS", "1")
    with pytest.raises(AssertionError):
        run()


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


@pytest.mark.parametrize("runner", ["polarized", "rc"])
def test_lockstep_stream_replays_per_key(runner):
    """A batch draws from one stream keyed by cfg.seed: a key replays its masks
    and StepStats exactly, and the next derived key gives different masks."""
    spec = spec_of(TABLE_CASES["graphic-loop-parallel"])

    def run(key):
        cfg = ChainConfig(seed=key, step_override=30)
        if runner == "polarized":
            return run_polarized_batch(spec, ones(6), cfg, count=3000)
        return run_rc_batch(spec, ones(6), 0.5, cfg, count=3000)

    for s in (0, 7, 2**64 - 1):
        masks, stats = run(derive_seed(s, 0))
        again, again_stats = run(derive_seed(s, 0))
        assert np.array_equal(masks, again)
        assert stats == again_stats and stats.rejections > 0
        assert not np.array_equal(masks, run(derive_seed(s, 1))[0])
