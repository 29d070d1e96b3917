"""Network reliability: parsing, exact values, sampling laws, estimator mechanics."""

import math

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    NetworkInstance,
    ValidationError,
    cographic_spec,
    exact_mu,
    failure_fields,
    log_rel_exact,
    parse_graph_file,
    rel_connected_subgraph,
    rel_estimate,
    rel_exact,
    rel_sample,
    tv_distance,
)
from matroid_mcmc.exact import empirical_distribution
from matroid_mcmc.sampling import sample_independent_sets

from conftest import K4_EDGES, TRIANGLE_EDGES, masks_of

TRI = NetworkInstance(3, list(TRIANGLE_EDGES), 0.5)
K4 = NetworkInstance(4, list(K4_EDGES), 0.5)


# ---------------------------------------------------------------------------
# parsing


def _write(tmp_path, text):
    p = tmp_path / "g.txt"
    p.write_text(text)
    return str(p)


def test_parse_round_trip(tmp_path):
    path = _write(tmp_path, "3 3\n0 1 0.5\n1 2 0.25\n0 2 0.75\n")
    inst = parse_graph_file(path)
    assert inst.vertices == 3
    assert inst.edges == [(0, 1), (1, 2), (0, 2)]
    assert inst.p == [0.5, 0.25, 0.75]


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("3\n", 1),
    ("x y\n", 1),
    ("0 1\n", 1),
    ("2 1\n0 1\n", 2),
    ("2 1\n0 1 zebra\n", 2),
    ("2 1\n0 2 0.5\n", 2),
    ("2 1\n0 1 0.0\n", 2),
    ("2 1\n0 1 1.0\n", 2),
    ("2 1\n0 1 nan\n", 2),
    ("2 2\n0 1 0.5\n", 3),           # missing edge line
    ("2 1\n0 1 0.5\ntrailing\n", 3),  # junk after the edges
])
def test_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = _write(tmp_path, text)
    with pytest.raises(ValidationError) as exc:
        parse_graph_file(path)
    assert f":{line}:" in str(exc.value)


def test_parse_fuzz_never_crashes(tmp_path):
    rng = np.random.default_rng(0)
    base = "3 3\n0 1 0.5\n1 2 0.25\n0 2 0.75\n"
    alphabet = "0123456789. \n-+eXnaqz"
    for trial in range(300):
        chars = list(base)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(len(chars)))
            chars[pos] = alphabet[int(rng.integers(len(alphabet)))]
        path = _write(tmp_path, "".join(chars))
        try:
            inst = parse_graph_file(path)
            assert inst.vertices >= 1
        except ValidationError:
            pass  # rejection is fine; crashing is not


def test_instance_validation():
    with pytest.raises(ValidationError):
        NetworkInstance(0, [], [])
    with pytest.raises(ValidationError):
        NetworkInstance(2, [(0, 5)], [0.5])
    with pytest.raises(ValidationError):
        NetworkInstance(2, [(0, 1)], [1.5])
    with pytest.raises(ValidationError):
        cographic_spec(NetworkInstance(3, [(0, 1)], [0.5]))  # disconnected


# ---------------------------------------------------------------------------
# exact reliability


def test_rel_exact_frozen_values():
    assert rel_exact(NetworkInstance(2, [(0, 1)], 0.3)) == pytest.approx(0.7)
    assert rel_exact(TRI) == pytest.approx(0.5)
    assert rel_exact(K4) == pytest.approx(38 / 64)


def test_rel_exact_with_self_loop():
    inst = NetworkInstance(2, [(0, 1), (1, 1)], [0.3, 0.9])
    assert rel_exact(inst) == pytest.approx(0.7)  # the loop never matters


def test_rel_exact_log_space_below_float_range():
    # a path survives only if no edge fails: log Z = Σ log(1 - p_e), here
    # about -774, so Z itself is below the smallest float
    p = [1 - 10.0 ** -(15 - i % 3) for i in range(24)]
    inst = NetworkInstance(25, [(i, i + 1) for i in range(24)], p)
    want = sum(math.log1p(-pe) for pe in p)
    assert math.exp(want) == 0.0
    assert log_rel_exact(inst) == pytest.approx(want, rel=1e-12)
    assert log_rel_exact(K4) == pytest.approx(math.log(38 / 64), abs=1e-12)
    assert log_rel_exact(NetworkInstance(3, [(0, 1)], 0.5)) == -math.inf


def test_rel_exact_size_guard():
    from matroid_mcmc import SizeLimitError
    edges = [(0, 1)] * 25
    with pytest.raises(SizeLimitError):
        rel_exact(NetworkInstance(2, edges, [0.5] * 25))


# ---------------------------------------------------------------------------
# sampling laws


def test_failure_fields_values():
    inst = NetworkInstance(3, list(TRIANGLE_EDGES), [0.75, 0.25, 0.25])
    f = failure_fields(inst)
    assert f.lam == pytest.approx([3.0, 1 / 3, 1 / 3])


def test_rel_sample_single_edge_always_empty():
    inst = NetworkInstance(2, [(0, 1)], 0.4)
    for seed in range(5):
        assert rel_sample(inst, 0.2, seed=seed) == []
        assert rel_connected_subgraph(inst, 0.2, seed=seed) == [0]


def test_rel_sample_triangle_uniform_law():
    spec = cographic_spec(TRI)
    fields = failure_fields(TRI)
    cfg = ChainConfig(epsilon=0.05, seed=77)
    samples, _ = sample_independent_sets(spec, fields, cfg, 40_000)
    emp = empirical_distribution(masks_of(samples))
    exact = exact_mu(spec, fields)
    assert tv_distance(emp, exact) <= 0.02


def test_rel_sample_weighted_triangle_law():
    # p = (3/4, 1/4, 1/4)  =>  lambda = (3, 1/3, 1/3); mass ratio 1 : 3 : 1/3 : 1/3
    inst = NetworkInstance(3, list(TRIANGLE_EDGES), [0.75, 0.25, 0.25])
    exact = exact_mu(cographic_spec(inst), failure_fields(inst))
    want = {0b000: 3 / 14, 0b001: 9 / 14, 0b010: 1 / 14, 0b100: 1 / 14}
    for m, p in want.items():
        assert exact.prob_of(m) == pytest.approx(p, rel=1e-12)
    cfg = ChainConfig(epsilon=0.05, seed=3)
    samples, _ = sample_independent_sets(cographic_spec(inst), failure_fields(inst),
                                         cfg, 40_000)
    assert tv_distance(empirical_distribution(masks_of(samples)), exact) <= 0.02


def test_connected_subgraph_is_complement():
    got = rel_connected_subgraph(TRI, 0.1, seed=11)
    fail = rel_sample(TRI, 0.1, seed=11)
    assert sorted(got + fail) == [0, 1, 2]


# ---------------------------------------------------------------------------
# estimator


def test_estimate_single_edge_exact():
    est = rel_estimate(NetworkInstance(2, [(0, 1)], 0.3), 0.1, 0.05, seed=0)
    assert est.z_hat == pytest.approx(0.7, abs=1e-12)
    assert len(est.trace) == 1
    assert est.trace[0]["branch"] == "contract"


@pytest.mark.parametrize("c0", [math.nan, math.inf, 0.0, -1.0])
def test_estimate_rejects_bad_c0(c0):
    with pytest.raises(ValidationError, match="c0"):
        rel_estimate(TRI, 0.1, 0.05, seed=0, c0=c0)


@pytest.mark.parametrize("eps, delta, c0", [(1e-200, 0.05, 8.0), (0.1, 1e-320, 8.0),
                                            (0.1, 0.05, 1e308)])
def test_estimate_rejects_uncountable_sample_size(eps, delta, c0):
    with pytest.raises(ValidationError, match="more samples"):
        rel_estimate(TRI, eps, delta, seed=0, c0=c0)


def test_estimate_trace_invariants():
    est = rel_estimate(K4, 0.2, 0.2, seed=4, c0=1.0)
    assert len(est.trace) == K4.m
    assert 0.0 < est.z_hat <= 1.0
    for entry in est.trace:
        assert entry["branch"] in ("delete", "contract", "loop")
        if entry["branch"] == "loop":
            assert entry["marginal"] is None


def test_estimate_triangle_within_tolerance():
    for seed in (0, 1, 2):
        est = rel_estimate(TRI, 0.1, 0.05, seed=seed)
        assert 1 / 1.15 <= est.z_hat / 0.5 <= 1.15, (seed, est.z_hat)


def test_estimate_deterministic():
    a = rel_estimate(TRI, 0.15, 0.1, seed=9)
    b = rel_estimate(TRI, 0.15, 0.1, seed=9)
    assert a.z_hat == b.z_hat
    assert a.trace == b.trace


def test_bridges_always_contract():
    # every edge of a path is a bridge: the failed-set marginal is exactly 0,
    # so the deletion branch must never fire regardless of p
    inst = NetworkInstance(4, [(0, 1), (1, 2), (2, 3)], 0.9)
    est = rel_estimate(inst, 0.3, 0.3, seed=2, c0=0.5)
    assert [t["branch"] for t in est.trace] == ["contract"] * 3
    want = (1 - 0.9) ** 3
    assert est.z_hat == pytest.approx(want, abs=1e-12)
    assert est.log_z_hat == pytest.approx(math.log(want), abs=1e-12)


@pytest.mark.parametrize("inst, branches, pinned", [
    # contract, then the second copy is a loop
    (NetworkInstance(2, [(0, 1), (0, 1)], [0.01, 0.5]), ["contract", "loop"],
     {1: (185, -0.010050335853501442), 2: (185, -0.010050335853501442)}),
    # three contractions that each merge a higher label into a lower one
    # (3 into 2, then 2 into 0, then 1 into 0), then four loops
    (NetworkInstance(4, [(2, 3), (0, 3), (1, 2), (0, 1), (1, 3), (0, 2), (3, 3)], 0.3),
     ["contract"] * 3 + ["loop"] * 4,
     {1: (2595, -0.0920119640599164), 2: (2595, -0.07060937835571496)}),
])
def test_estimate_pinned_through_contractions(inst, branches, pinned):
    """The estimator's exact output on minors built by contraction, and its
    accuracy there."""
    for seed, (used, log_z) in pinned.items():
        est = rel_estimate(inst, 0.2, 0.1, seed, c0=1.0)
        assert [t["branch"] for t in est.trace] == branches
        assert (est.samples_used, est.log_z_hat) == (used, log_z)
        assert abs(est.log_z_hat - log_rel_exact(inst)) <= math.log(1.2)

def test_telescoping_identity_with_exact_marginals():
    """Replace sampled marginals by exact ones: the product telescopes to Z."""
    for inst in (TRI, K4, NetworkInstance(3, list(TRIANGLE_EDGES), [0.75, 0.25, 0.25])):
        z = 1.0
        cur = inst
        while cur.m:
            exact = exact_mu(cographic_spec(cur), failure_fields(cur))
            # marginal of edge 0 failing
            q0 = sum(exact.prob_of(m) for m in exact.support if m & 1)
            pe = cur.p[0]
            u, v = cur.edges[0]
            rest = list(range(1, cur.m))
            if q0 >= 0.5:
                z *= pe / q0
                edges = [cur.edges[i] for i in rest]
                cur = NetworkInstance(cur.vertices, edges, [cur.p[i] for i in rest])
            else:
                z *= (1 - pe) / (1 - q0)
                # contract: relabel v as u, keep the rest
                def squash(w):
                    w = u if w == v else w
                    return w - 1 if w > v else w
                edges = [(squash(a), squash(b)) for a, b in
                         (cur.edges[i] for i in rest)]
                cur = NetworkInstance(cur.vertices - 1, edges,
                                      [cur.p[i] for i in rest])
            # drop self-loops created by the contraction
            keep = [i for i, (a, b) in enumerate(cur.edges) if a != b]
            cur = NetworkInstance(cur.vertices, [cur.edges[i] for i in keep],
                                  [cur.p[i] for i in keep])
        assert z == pytest.approx(rel_exact(inst), abs=1e-10)
