"""WeightedIndex: exact totals, selection law, no drift, and error contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_mcmc import EmptySelectionError, ValidationError, WeightedIndex


def test_empty_total_zero():
    w = WeightedIndex([0.0] * 8)
    assert w.total == 0.0
    assert w.active_count == 0


def test_set_and_total_singleton():
    w = WeightedIndex([0.0] * 4)
    w.set(0, 2.5)
    assert w.total == 2.5
    assert w.active_count == 1
    w.set(0, 0.0)
    assert w.total == 0.0
    assert w.active_count == 0


def test_two_point_selection():
    w = WeightedIndex([1.0, 1.0])
    assert w.sample(0.5) == 0
    assert w.sample(1.5) == 1
    # boundary tie resolves to the lower index
    assert w.sample(1.0) == 0


def test_zero_weight_elements_never_selected():
    w = WeightedIndex([5.0, 0.0, 0.0, 0.0])
    for u in np.linspace(1e-9, 5.0, 37):
        assert w.sample(float(u)) == 0


def test_sample_on_zero_total_raises():
    w = WeightedIndex([0.0, 0.0])
    with pytest.raises(EmptySelectionError):
        w.sample(0.5)


def test_residue_in_zeroed_subtree_never_selected():
    # zeroing 0.1 and 0.2 by deltas would leave about 2.8e-17 in their subtree
    w = WeightedIndex([0.1, 0.2, 0.5])
    w.set(0, 0.0)
    w.set(1, 0.0)
    assert w.sample(1e-18) == 2
    w = WeightedIndex([0.1, 0.2])
    w.set(0, 0.0)
    w.set(1, 0.0)
    assert w.total == 0.0  # no residue
    with pytest.raises(EmptySelectionError):
        w.sample(1e-18)
    # u = total lands on element 2, the last positive one, not on the zeroed 3
    w = WeightedIndex([0.001, 0.1, 0.3, 0.1])
    w.set(1, 0.0)
    w.set(3, 0.0)
    assert w.sample(w.total) == 2


def test_u_at_zero_takes_the_first_positive_weight():
    # frac * total is 0.0 for a small enough frac and a subnormal total
    w = WeightedIndex([0.0, 5e-324, 0.0, 1e-323])
    assert 1e-9 * w.total == 0.0
    assert w.sample(1e-9 * w.total) == 1 and w.sample(0.0) == 1


def test_bad_weights_rejected():
    w = WeightedIndex([1.0, 1.0])
    with pytest.raises(ValidationError):
        w.set(0, -1.0)
    with pytest.raises(ValidationError):
        w.set(0, float("nan"))
    with pytest.raises(ValidationError):
        w.set(0, float("inf"))
    with pytest.raises(ValidationError):
        w.set(0, float("-inf"))
    with pytest.raises(ValidationError):
        WeightedIndex([1.0, -2.0])
    with pytest.raises(IndexError):
        w.set(5, 1.0)


@pytest.mark.parametrize("x", [0, 0.0, -0.0, 3, 2.5, 1e308, 5e-324])
def test_good_weights_accepted(x):
    w = WeightedIndex([1.0, 1.0])
    w.set(0, x)
    assert w.weight[0] == x and type(w.weight[0]) is float
    assert w.total == 1.0 + x
    assert w.active_count == (2 if x else 1)


def test_differential_total_vs_fresh_sum():
    rng = np.random.default_rng(11)
    n = 93
    w = WeightedIndex([0.0] * n)
    ref = [0.0] * n
    for _ in range(1000):
        i = int(rng.integers(n))
        x = float(rng.uniform(0.0, 10.0)) if rng.random() < 0.8 else 0.0
        w.set(i, x)
        ref[i] = x
        fresh = math.fsum(ref)
        assert abs(w.total - fresh) <= 1e-9 * max(1.0, fresh)
        assert w.active_count == sum(1 for v in ref if v != 0.0)


def test_selection_matches_linear_scan():
    rng = np.random.default_rng(5)
    n = 17
    vals = rng.uniform(0.0, 3.0, n)
    vals[rng.random(n) < 0.3] = 0.0
    w = WeightedIndex(list(vals))
    cum = np.cumsum(vals)
    for _ in range(500):
        u = float(rng.uniform(1e-12, w.total))
        expect = int(np.argmax(cum >= u))
        assert w.sample(u) == expect


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1, max_size=40),
       st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_sample_always_lands_on_positive_weight(vals, frac):
    w = WeightedIndex(vals)
    if w.total <= 0.0:
        with pytest.raises(EmptySelectionError):
            w.sample(0.5)
        return
    u = frac * w.total
    i = w.sample(u)
    assert 0 <= i < len(vals)
    assert vals[i] > 0.0


def test_empirical_frequencies_1_2_3():
    w = WeightedIndex([1.0, 2.0, 3.0])
    rng = np.random.default_rng(42)
    draws = 600_000
    us = (1.0 - rng.random(draws)) * w.total
    counts = np.zeros(3)
    for u in us:
        counts[w.sample(float(u))] += 1
    freq = counts / draws
    want = np.array([1.0, 2.0, 3.0]) / 6.0
    assert np.abs(freq - want).max() < 0.01


def test_drift_after_1e6_updates():
    rng = np.random.default_rng(99)
    n = 512
    w = WeightedIndex([0.0] * n)
    ref = np.zeros(n)
    idx = rng.integers(0, n, 1_000_000)
    raw = rng.uniform(-3.0, 3.0, 1_000_000)
    vals = 10.0 ** raw  # weights spread over [1e-3, 1e3]
    for i, x in zip(idx, vals):
        w.set(int(i), float(x))
        ref[int(i)] = x
    fresh = math.fsum(ref)
    assert abs(w.total - fresh) / fresh <= 1e-9
    assert w._tree == WeightedIndex(w.weight)._tree  # no drift at all


_WEIGHTS = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300))


@settings(max_examples=200, deadline=None)
@given(st.lists(_WEIGHTS, min_size=1, max_size=20),
       st.lists(st.tuples(st.integers(min_value=0), _WEIGHTS), max_size=60))
def test_sets_leave_the_tree_of_a_fresh_build(start, sets):
    """After any sets, every subtree sum is bit for bit that of a fresh
    build from the current weights: heavy weights leaving take nothing of
    the light ones with them, and zeroed subtrees sum to exactly 0."""
    w = WeightedIndex(start)
    for i, x in sets:
        w.set(i % w.n, x)
    fresh = WeightedIndex(w.weight)
    assert w._tree == fresh._tree
    assert w.total == fresh.total == w._tree[1]
    assert w.active_count == fresh.active_count


def test_light_weight_survives_a_heavy_one_leaving():
    w = WeightedIndex([1.0, 1e300])
    w.set(1, 0.0)
    assert w.total == 1.0
    assert w.sample(0.5) == 0 and w.sample(1.0) == 0


def test_determinism_same_u_same_element():
    vals = [0.3, 0.0, 1.7, 2.2, 0.9]
    a = WeightedIndex(vals)
    b = WeightedIndex(vals)
    for u in np.linspace(1e-6, sum(vals) - 1e-6, 101):
        assert a.sample(float(u)) == b.sample(float(u))
