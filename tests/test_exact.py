"""Exact reference distributions, kernels, and distance helpers."""

import ast
import math

import numpy as np
import pytest

from matroid_mcmc import (
    Fields,
    SizeLimitError,
    UnsupportedOperationError,
    exact_kernel,
    exact_mu,
    exact_pi,
    exact_rc,
    matroid_from_dict,
    stationary_residual,
    tv_distance,
)
from matroid_mcmc.exact import BruteMatroid, independent_masks

from conftest import K4_EDGES, LOOP_PARALLEL_EDGES, REPO_ROOT, TRIANGLE_EDGES, ones, spec_of
from reference import empirical_distribution, labeled_polarized_kernel, pi_x_marginal


def test_exact_mu_free2_uniform():
    spec = spec_of({"variant": "uniform", "n": 2, "k": 2})
    dist = exact_mu(spec, ones(2))
    assert sorted(dist.support) == [0, 1, 2, 3]
    assert np.allclose(dist.prob, 0.25)


def test_exact_mu_cographic_triangle_uniform():
    spec = spec_of({"variant": "cographic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    dist = exact_mu(spec, ones(3))
    assert sorted(dist.support) == [0b000, 0b001, 0b010, 0b100]
    assert np.allclose(dist.prob, 0.25)


@pytest.mark.parametrize("edges", [K4_EDGES, LOOP_PARALLEL_EDGES], ids=["K4", "loop-parallel"])
def test_brute_cographic_rank_is_largest_independent_subset(edges):
    """The brute dual rank, counted from the complement's components, agrees
    with the largest independent subset that the complement-connectivity
    check finds, on every mask."""
    spec = spec_of({"variant": "cographic", "edges": [list(e) for e in edges]})
    ref = BruteMatroid(spec)
    indep = independent_masks(spec)
    for m in range(1 << spec.n):
        assert ref.rank(m) == max(s.bit_count() for s in indep if not s & ~m), m


FANO = [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]
C5_EDGES = [[i, (i + 1) % 5] for i in range(5)]


@pytest.mark.parametrize("spec_dict,count,bases", [
    # K4: 1 + 6 + 15 + 16 forests, and Cayley's formula gives 4^2 = 16
    # spanning trees; K4 is its own plane dual, so it has as many connected
    # spanning subgraphs (the complements of its cographic independent sets)
    ({"variant": "graphic", "edges": [list(e) for e in K4_EDGES]}, 38, 16),
    ({"variant": "cographic", "edges": [list(e) for e in K4_EDGES]}, 38, 16),
    # C5: every proper subset is a forest; it stays connected minus <= 1 edge
    ({"variant": "graphic", "edges": C5_EDGES}, 2 ** 5 - 1, 5),
    ({"variant": "cographic", "edges": C5_EDGES}, 1 + 5, 5),
    # Fano: every set of <= 2 points, and the 35 - 7 triples that are not lines
    ({"variant": "binary-linear", "matrix": FANO}, 1 + 7 + 21 + 28, 28),
    # one of three (or none) times any subset of two: 4 · 4
    ({"variant": "partition", "blocks": [[0, 1, 2], [3, 4]], "caps": [1, 2]}, 16, 3),
], ids=["graphic-K4", "cographic-K4", "graphic-C5", "cographic-C5", "fano", "partition"])
def test_independent_set_counts_match_closed_forms(spec_dict, count, bases):
    """The reference's independence is its rank, so check it against counts
    that no code here produces: closed forms and classical values."""
    masks = independent_masks(spec_of(spec_dict))
    assert len(masks) == count
    top = max(m.bit_count() for m in masks)
    assert sum(m.bit_count() == top for m in masks) == bases


def test_exact_mu_uniform31_weighted():
    spec = spec_of({"variant": "uniform", "n": 3, "k": 1})
    dist = exact_mu(spec, Fields([1.0, 2.0, 3.0]))
    got = dist.as_dict()
    want = {0b000: 1 / 7, 0b001: 1 / 7, 0b010: 2 / 7, 0b100: 3 / 7}
    for m, p in want.items():
        assert got[m] == pytest.approx(p, abs=1e-15)


def test_exact_pi_free2_marginal():
    spec = spec_of({"variant": "uniform", "n": 2, "k": 2})
    dist = exact_pi(spec, ones(2))
    # weights by |A|: 1/C(2,0), 1/C(2,1) x4 atoms, 1/C(2,2) -> P(A = empty) = 1/4
    p_empty = sum(p for m, p in dist.as_dict().items() if (m & 0b11) == 0)
    assert p_empty == pytest.approx(0.25, abs=1e-14)


def test_exact_pi_n1():
    spec = spec_of({"variant": "uniform", "n": 1, "k": 1})
    dist = exact_pi(spec, ones(1))
    assert len(dist.support) == 2
    assert np.allclose(dist.prob, 0.5)


def test_pi_x_marginal_equals_mu():
    cases = [
        ({"variant": "uniform", "n": 5, "k": 3}, Fields([1, 2, 0.5, 3, 1.5])),
        ({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]},
         Fields([2.0, 0.7, 1.3])),
        ({"variant": "partition", "blocks": [[0, 1], [2, 3]], "caps": [1, 1]},
         Fields([1, 4, 2, 1])),
    ]
    for d, f in cases:
        spec = spec_of(d)
        mu = exact_mu(spec, f)
        marg = pi_x_marginal(spec, f)
        for m in mu.support:
            assert abs(mu.prob_of(m) - marg.prob_of(m)) <= 1e-12


def test_exact_rc_q1_is_product_measure():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    f = Fields([1.0, 2.0, 3.0])
    dist = exact_rc(spec, f, 1.0)
    z = math.prod(1 + li for li in f.lam)
    for m, p in dist.as_dict().items():
        w = math.prod(f.lam[i] for i in range(3) if m >> i & 1)
        assert p == pytest.approx(w / z, rel=1e-12)


def test_exact_rc_triangle_half_weights():
    # q = 1/2, unit weights: atom weights are 2^rank(S)
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    dist = exact_rc(spec, ones(3), 0.5)
    ranks = {0: 0, 1: 1, 2: 1, 4: 1, 3: 2, 5: 2, 6: 2, 7: 2}
    z = sum(2.0 ** r for r in ranks.values())
    for m, p in dist.as_dict().items():
        assert p == pytest.approx(2.0 ** ranks[m] / z, rel=1e-12)


def test_exact_rc_q0_connected_support():
    spec = spec_of({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]})
    dist = exact_rc(spec, ones(3), 0.0)
    assert sorted(dist.support) == [0b011, 0b101, 0b110, 0b111]
    assert np.allclose(dist.prob, 0.25)


def test_tv_distance_examples():
    assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert tv_distance({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
    a = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
    b = {0: 0.4, 1: 0.2, 2: 0.2, 3: 0.2}
    assert tv_distance(a, b) == pytest.approx(0.15, abs=1e-15)


def test_empirical_distribution_counts():
    d = empirical_distribution([1, 1, 2, 3])
    assert d == {1: 0.5, 2: 0.25, 3: 0.25}


def test_kernel_rows_are_stochastic():
    spec = spec_of({"variant": "uniform", "n": 4, "k": 2})
    f = Fields([1, 2, 3, 4])
    _, P = exact_kernel("polarized", spec, f)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert (P >= 0).all()
    _, Q = exact_kernel("random-cluster", spec, f, q=0.25)
    assert np.allclose(Q.sum(axis=1), 1.0)
    assert (Q >= 0).all()


def test_free_n1_kernel_doubly_stochastic():
    spec = spec_of({"variant": "uniform", "n": 1, "k": 1})
    _, P = exact_kernel("polarized", spec, ones(1))
    assert np.allclose(P, 0.5)


def test_labeled_kernel_lumps_to_collapsed():
    """Collapsing Y labels to a counter must not change the law on A."""
    for d, lam in [
        ({"variant": "uniform", "n": 3, "k": 2}, [1.0, 2.0, 0.5]),
        ({"variant": "graphic", "edges": [list(e) for e in TRIANGLE_EDGES]},
         [1.0, 1.0, 1.0]),
        ({"variant": "uniform", "n": 4, "k": 4}, [1.0, 3.0, 1.0, 2.0]),
    ]:
        spec = spec_of(d)
        f = Fields(lam)
        n = spec.n
        xmask = (1 << n) - 1
        states, P = exact_kernel("polarized", spec, f)
        lstates, LP = labeled_polarized_kernel(spec, f)
        # lump labeled states by their X part and compare transition laws
        idx = {m: i for i, m in enumerate(states)}
        for li, ls in enumerate(lstates):
            row = np.zeros(len(states))
            for lj, p in enumerate(LP[li]):
                row[idx[lstates[lj] & xmask]] += p
            assert np.abs(row - P[idx[ls & xmask]]).max() < 1e-12


def test_kernel_needs_q_for_rc():
    spec = spec_of({"variant": "uniform", "n": 2, "k": 2})
    with pytest.raises(UnsupportedOperationError):
        exact_kernel("random-cluster", spec, ones(2))
    with pytest.raises(UnsupportedOperationError):
        exact_kernel("bogus", spec, ones(2))



@pytest.mark.parametrize("q", [-7.0, 0.0, 0.5])
def test_polarized_kernel_takes_no_q(q):
    """The polarized kernel has no q: passing one is an error, not ignored."""
    spec = spec_of({"variant": "uniform", "n": 3, "k": 2})
    with pytest.raises(UnsupportedOperationError, match="polarized kernel takes no q"):
        exact_kernel("polarized", spec, ones(3), q=q)

def test_size_guards():
    big = matroid_from_dict({"variant": "uniform", "n": 21, "k": 21})
    with pytest.raises(SizeLimitError):
        exact_mu(big, ones(21))
    with pytest.raises(SizeLimitError):
        exact_rc(big, ones(21), 0.5)
    mid = matroid_from_dict({"variant": "uniform", "n": 11, "k": 11})
    with pytest.raises(SizeLimitError):
        exact_pi(mid, ones(11))
    with pytest.raises(SizeLimitError):
        exact_kernel("random-cluster", matroid_from_dict(
            {"variant": "uniform", "n": 12, "k": 12}), ones(12), q=0.5)


def test_independent_masks_counts():
    spec = spec_of({"variant": "uniform", "n": 5, "k": 2})
    assert len(independent_masks(spec)) == 1 + 5 + 10


def _names_used(nodes):
    """Every name the syntax trees `nodes` read, import, or take an attribute of."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rsplit(".", 1)[-1]


def test_exact_holds_no_test_only_code():
    """Each public function and class of exact.py is used somewhere in src/
    outside its own definition; what only tests use lives in tests/."""
    src = REPO_ROOT / "src" / "matroid_mcmc"
    body = ast.parse((src / "exact.py").read_text("utf-8")).body
    elsewhere = set()
    for path in src.glob("*.py"):
        if path.name != "exact.py":
            elsewhere.update(_names_used(ast.parse(path.read_text("utf-8")).body))
    public = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert len(public) >= 9
    unused = [node.name for node in public
              if node.name not in elsewhere
              and node.name not in _names_used(n for n in body if n is not node)]
    assert unused == []
