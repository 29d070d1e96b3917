"""Test-only references built on `matroid_mcmc.exact`: empirical histograms,
the matroid axioms, the lifted chain's A-marginal, and the labeled kernel
that the collapsed polarized kernel is checked against."""

import math

import numpy as np

from matroid_mcmc import Fields, MatroidSpec
from matroid_mcmc.exact import ExactDistribution, exact_pi, independent_masks


def pi_x_marginal(spec: MatroidSpec, fields: Fields) -> ExactDistribution:
    """Marginal of exact_pi on the A component (for the identity vs exact_mu)."""
    dist = exact_pi(spec, fields)
    n = spec.n
    acc: dict[int, float] = {}
    xmask = (1 << n) - 1
    for atom, p in zip(dist.support, dist.prob):
        a = atom & xmask
        acc[a] = acc.get(a, 0.0) + float(p)
    items = sorted(acc.items())
    return ExactDistribution([m for m, _ in items], [p for _, p in items])


def empirical_distribution(samples) -> dict[int, float]:
    """Histogram of bitmask samples as a {mask: frequency} dict."""
    counts: dict[int, int] = {}
    total = 0
    for m in samples:
        m = int(m)
        counts[m] = counts.get(m, 0) + 1
        total += 1
    return {m: c / total for m, c in counts.items()}


def labeled_polarized_kernel(spec: MatroidSpec, fields: Fields):
    """Transition kernel over labeled states (A, B) — validates the collapse.

    States encoded amask | (bmask << n), matching exact_pi.
    """
    n = spec.n
    dist = exact_pi(spec, fields)  # enforces the size guard
    states = list(dist.support)
    index = {s: i for i, s in enumerate(states)}
    ind = set(independent_masks(spec))
    lam = fields.lam
    xmask = (1 << n) - 1
    P = np.zeros((len(states), len(states)))

    def up_law(am: int, bm: int):
        k = am.bit_count()
        cands = []
        for j in range(n):
            if not bm >> j & 1:
                cands.append((am, bm | (1 << j), 1.0 / math.comb(n, k)))
        for i in range(n):
            if not am >> i & 1:
                a2 = am | (1 << i)
                if a2 in ind:
                    cands.append((a2, bm, lam[i] / math.comb(n, k + 1)))
        z = sum(w for _, _, w in cands)
        return [(a2, b2, w / z) for a2, b2, w in cands]

    for s in states:
        am, bm = s & xmask, s >> n
        row = index[s]
        for i in range(n):
            if am >> i & 1:
                for a2, b2, pu in up_law(am ^ (1 << i), bm):
                    P[row, index[a2 | (b2 << n)]] += (1 / n) * pu
            if bm >> i & 1:
                for a2, b2, pu in up_law(am, bm ^ (1 << i)):
                    P[row, index[a2 | (b2 << n)]] += (1 / n) * pu
    return states, P


def is_matroid_family(n: int, masks) -> bool:
    """Check the matroid axioms exhaustively (∅, downward closure, exchange)."""
    fam = set(masks)
    if 0 not in fam:
        return False
    for m in fam:
        mm = m
        while mm:
            bit = mm & -mm
            if (m ^ bit) not in fam:
                return False
            mm ^= bit
    for s in fam:
        for t in fam:
            if s.bit_count() < t.bit_count():
                extra = t & ~s
                ok = False
                while extra:
                    bit = extra & -extra
                    if (s | bit) in fam:
                        ok = True
                        break
                    extra ^= bit
                if not ok:
                    return False
    return True
