"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test prints ``criterion-N PASS/FAIL: <what was checked>`` so the pytest
report doubles as a sign-off sheet (run with ``-rA`` to see the lines for
passing tests too).
"""

import json
import subprocess
import sys
import time
from collections import Counter, deque
from contextlib import contextmanager

import numpy as np
import pytest

from matroid_mcmc import (
    ChainConfig,
    Fields,
    NetworkInstance,
    PolarizedChain,
    build_oracle,
    dyn_graph,
    matroid_from_dict,
    rel_estimate,
    rel_exact,
    run_polarized_batch,
    run_rc_batch,
    sample_independent_sets,
    sample_random_cluster,
)
from matroid_mcmc.exact import (
    BruteMatroid,
    exact_kernel,
    exact_mu,
    exact_rc,
    independent_masks,
    stationary_residual,
    tv_distance,
)

from conftest import (
    K4_EDGES, PATH4_EDGES, TRIANGLE_EDGES, cli_env, masks_of, ones,
)
from reference import empirical_distribution, pi_x_marginal

def _edges(pairs):
    return [list(e) for e in pairs]


@contextmanager
def criterion(num: int, what: str):
    note = {}
    try:
        yield note
    except BaseException:
        print(f"criterion-{num} FAIL: {what}" + _suffix(note))
        raise
    print(f"criterion-{num} PASS: {what}" + _suffix(note))


def _suffix(note):
    return f" [{note['detail']}]" if "detail" in note else ""


def _lam(n: int) -> Fields:
    return Fields([0.5 + 0.5 * (i % 4) for i in range(n)])


# ---------------------------------------------------------------------------
# 1. exact stationarity of the enumerated polarized kernel


KERNEL_SPECS = (
    [{"variant": "uniform", "n": n, "k": n} for n in range(1, 7)]
    + [
        {"variant": "uniform", "n": 4, "k": 2},
        {"variant": "uniform", "n": 6, "k": 3},
        {"variant": "uniform", "n": 5, "k": 1},
        {"variant": "partition", "blocks": [[0, 1], [2, 3], [4, 5]], "caps": [1, 1, 1]},
        {"variant": "partition", "blocks": [[0, 1, 2], [3, 4, 5]], "caps": [2, 1]},
    ]
    + [
        {"variant": kind, "edges": _edges(edges)}
        for kind in ("graphic", "cographic")
        for edges in (TRIANGLE_EDGES, PATH4_EDGES, K4_EDGES)
    ]
)


def test_criterion_1_exact_stationarity():
    with criterion(1, "polarized kernel stationary at exact_pi's collapsed "
                      "marginal (<=1e-10); X-marginal == exact_mu (<=1e-12)") as note:
        worst_res, worst_marg = 0.0, 0.0
        for d in KERNEL_SPECS:
            spec = matroid_from_dict(d)
            fields = _lam(spec.n)
            assert len(independent_masks(spec)) <= 4000
            states, P = exact_kernel("polarized", spec, fields)

            marg = pi_x_marginal(spec, fields)
            by_mask = dict(zip(marg.support, marg.prob))
            ref = [by_mask[s] for s in states]
            res = stationary_residual(P, ref)
            assert res <= 1e-10, (d, res)
            worst_res = max(worst_res, res)

            mu = exact_mu(spec, fields)
            assert marg.support == mu.support
            gap = max(abs(a - b) for a, b in zip(marg.prob, mu.prob))
            assert gap <= 1e-12, (d, gap)
            worst_marg = max(worst_marg, gap)
        note["detail"] = (f"{len(KERNEL_SPECS)} specs, worst residual "
                          f"{worst_res:.2e}, worst marginal gap {worst_marg:.2e}")


# ---------------------------------------------------------------------------
# 2. end-to-end sampling TV at eps=0.05 with the default mix constant


def test_criterion_2_end_to_end_tv():
    cases = [
        ({"variant": "cographic", "edges": _edges(TRIANGLE_EDGES)}, ones(3)),
        ({"variant": "uniform", "n": 4, "k": 2}, Fields([1.0, 2.0, 3.0, 4.0])),
    ]
    with criterion(2, "10^5-sample empirical TV vs exact_mu <= 0.07 at "
                      "eps=0.05, default mix constant, < 2 min each") as note:
        tvs = []
        for i, (d, fields) in enumerate(cases):
            spec = matroid_from_dict(d)
            cfg = ChainConfig(epsilon=0.05, seed=202 + i)
            t0 = time.monotonic()
            samples, _ = sample_independent_sets(spec, fields, cfg, count=100_000)
            wall = time.monotonic() - t0
            assert wall < 120.0, wall
            tv = tv_distance(empirical_distribution(masks_of(samples)),
                             exact_mu(spec, fields))
            assert tv <= 0.05 + 0.02, (d, tv)
            tvs.append(tv)
        note["detail"] = "TV = " + ", ".join(f"{t:.4f}" for t in tvs)


# ---------------------------------------------------------------------------
# 3. polarized up-step rejection bound lambda_max/(1+lambda_max)


def _explicit_uniform(n: int, k: int):
    masks = [m for m in range(1 << n) if bin(m).count("1") <= k]
    fam = [[i for i in range(n) if m >> i & 1] for m in masks]
    return {"variant": "explicit", "n": n, "independent_sets": fam}


REJECTION_SPECS = [
    {"variant": "uniform", "n": 6, "k": 3},
    {"variant": "partition", "blocks": [[0, 1], [2, 3], [4, 5]], "caps": [1, 1, 1]},
    _explicit_uniform(5, 2),
    {"variant": "graphic", "edges": _edges(K4_EDGES)},
    {"variant": "cographic", "edges": _edges(TRIANGLE_EDGES)},
]


def test_criterion_3_polarized_rejection_bound():
    with criterion(3, "up-step rejection rate <= lam_max/(1+lam_max)+0.02 over "
                      ">=1e5 proposals, 5 specs x lam_max in {1,3}") as note:
        worst = 0.0
        for si, d in enumerate(REJECTION_SPECS):
            spec = matroid_from_dict(d)
            for lam_max in (1.0, 3.0):
                fields = Fields([lam_max] + [1.0] * (spec.n - 1))
                cfg = ChainConfig(seed=1000 + 10 * si + int(lam_max), step_override=30)
                _, stats = run_polarized_batch(spec, fields, cfg, count=4096)
                assert stats.proposals >= 100_000, stats
                bound = lam_max / (1.0 + lam_max) + 0.02
                assert stats.rejection_rate <= bound, (d, lam_max, stats)
                worst = max(worst, stats.rejection_rate)
        note["detail"] = f"max observed rate {worst:.4f}"


# ---------------------------------------------------------------------------
# 4. random-cluster down-step rejection bound (1-q)/(1+lambda_min)


def test_criterion_4_rc_rejection_bound():
    spec = matroid_from_dict({"variant": "graphic", "edges": _edges(TRIANGLE_EDGES)})
    combos = [
        (0.0, Fields([1.0, 1.0, 1.0]), 1.0),
        (0.5, Fields([0.5, 1.0, 2.0]), 0.5),
        (1.0, Fields([1.0, 1.0, 1.0]), 1.0),
    ]
    with criterion(4, "RC down-step rejection rate <= (1-q)/(1+lam_min)+0.02 "
                      "over >=1e5 proposals; exactly 0 at q=1") as note:
        rates = []
        for q, fields, lam_min in combos:
            cfg = ChainConfig(seed=int(q * 100) + 7, step_override=30)
            _, stats = run_rc_batch(spec, fields, q, cfg, count=4096)
            assert stats.proposals >= 100_000, stats
            bound = (1.0 - q) / (1.0 + lam_min) + 0.02
            assert stats.rejection_rate <= bound, (q, lam_min, stats)
            if q == 1.0:
                assert stats.rejections == 0
                assert stats.rejection_rate == 0.0
            rates.append(stats.rejection_rate)
        note["detail"] = ("rates " +
                          ", ".join(f"q={q}: {r:.4f}"
                                    for (q, _, _), r in zip(combos, rates)))


# ---------------------------------------------------------------------------
# 5. random-cluster law vs exact_rc, plus the reliability cross-check


def test_criterion_5_rc_correctness():
    spec = matroid_from_dict({"variant": "graphic", "edges": _edges(TRIANGLE_EDGES)})
    lams = [ones(3), Fields([3.0, 1.0 / 3.0, 1.0 / 3.0])]
    with criterion(5, "RC law: TV vs exact_rc <= 0.07 over 10^5 samples for "
                      "q in {0,1/4,1/2,1}; q=0 complement law == mu_rel") as note:
        worst = 0.0
        for run, (fields, q) in enumerate(
                (f, qq) for f in lams for qq in (0.0, 0.25, 0.5, 1.0)):
            cfg = ChainConfig(epsilon=0.05, seed=31 + run)
            samples, _ = sample_random_cluster(spec, fields, q, cfg,
                                               count=100_000)
            tv = tv_distance(empirical_distribution(masks_of(samples)),
                             exact_rc(spec, fields, q))
            assert tv <= 0.05 + 0.02, (q, list(fields.lam), tv)
            worst = max(worst, tv)

        # cross-model consistency: at q=0 with lambda_e = (1-p_e)/p_e the law
        # of the complement E\A is the conditional failure law mu_rel.
        p = [0.3, 0.5, 0.6]
        rc_fields = Fields([(1.0 - pe) / pe for pe in p])
        cfg = ChainConfig(epsilon=0.05, seed=77)
        samples, _ = sample_random_cluster(spec, rc_fields, 0.0, cfg,
                                           count=100_000)
        full = (1 << 3) - 1
        comp = [full ^ m for m in masks_of(samples)]
        co_spec = matroid_from_dict({"variant": "cographic", "edges": _edges(TRIANGLE_EDGES)})
        mu_rel = exact_mu(co_spec, Fields([pe / (1.0 - pe) for pe in p]))
        tv = tv_distance(empirical_distribution(comp), mu_rel)
        assert tv <= 0.05 + 0.02, tv
        note["detail"] = f"worst RC TV {worst:.4f}, cross-model TV {tv:.4f}"


# ---------------------------------------------------------------------------
# 6. reliability: exact values and the FPRAS hitting its error bar


@pytest.mark.slow
def test_criterion_6_reliability_values():
    single = NetworkInstance(2, [(0, 1)], [0.3])
    tri = NetworkInstance(3, TRIANGLE_EDGES, 0.5)
    k4 = NetworkInstance(4, K4_EDGES, 0.5)
    targets = [(single, 0.7), (tri, 0.5), (k4, 38.0 / 64.0)]
    with criterion(6, "rel_exact == 0.7 / 0.5 / 38/64; rel_estimate(0.1,0.05) "
                      "within 1.15x in >=95 of 100 seeded runs each") as note:
        for inst, z in targets:
            assert abs(rel_exact(inst) - z) <= 1e-12
        hits = []
        for inst, z in targets:
            ok = 0
            for seed in range(100):
                est = rel_estimate(inst, 0.1, 0.05, seed=seed)
                ratio = max(est.z_hat / z, z / est.z_hat)
                ok += ratio <= 1.15
            assert ok >= 95, (inst.m, ok)
            hits.append(ok)
        note["detail"] = f"hits per instance {hits}"


# ---------------------------------------------------------------------------
# 7. oracle equivalence: dyncon vs a BFS oracle, matroid backends vs brute


class _BfsOracle:
    """Reference multigraph connectivity: plain BFS, recomputed per query."""

    def __init__(self, n):
        self.n = n
        self.mult = Counter()
        self.adj = {v: Counter() for v in range(n)}

    def insert(self, u, v):
        self.mult[(u, v)] += 1
        self.adj[u][v] += 1
        self.adj[v][u] += 1

    def delete(self, u, v):
        self.mult[(u, v)] -= 1
        for a, b in ((u, v), (v, u)):
            self.adj[a][b] -= 1
            if self.adj[a][b] <= 0:
                del self.adj[a][b]
                if a == b:
                    break

    def _sweep(self, start, seen):
        queue = deque([start])
        seen[start] = True
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)

    def connected(self, u, v):
        if u == v:
            return True
        seen = [False] * self.n
        self._sweep(u, seen)
        return seen[v]

    def component_count(self):
        seen = [False] * self.n
        comps = 0
        for v in range(self.n):
            if not seen[v]:
                comps += 1
                self._sweep(v, seen)
        return comps


def _dyncon_vs_bfs(ops_total: int, nv: int, seed: int, backend: str) -> int:
    g = dyn_graph(nv, backend=backend)
    ref = _BfsOracle(nv)
    rng = np.random.default_rng(seed)
    live = []  # (key, u, v)
    queries = 0
    for op in range(ops_total):
        r = rng.random()
        if len(live) < 4 or (r < 0.42 and len(live) < 420):
            u = int(rng.integers(nv))
            v = u if rng.random() < 0.02 else int(rng.integers(nv))
            g.insert_edge(op, u, v)
            live.append((op, u, v))
            ref.insert(u, v)
        elif r < 0.78 and live:
            i = int(rng.integers(len(live)))
            live[i], live[-1] = live[-1], live[i]
            h, u, v = live.pop()
            g.delete_edge(h)
            ref.delete(u, v)
        elif r < 0.94:
            u, v = int(rng.integers(nv)), int(rng.integers(nv))
            assert g.connected(u, v) == ref.connected(u, v), (u, v)
            queries += 1
        else:
            assert g.component_count() == ref.component_count()
            queries += 1
    return queries


MATROID_DIFF_SPECS = [
    {"variant": "uniform", "n": 12, "k": 5},
    {"variant": "partition",
     "blocks": [[0, 1, 2, 3], [4, 5, 6], [7, 8], [9, 10, 11]],
     "caps": [2, 1, 1, 2]},
    {"variant": "graphic",
     "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 0],
               [0, 3], [1, 4], [2, 2], [2, 5], [0, 1]]},
    {"variant": "cographic", "edges": _edges(K4_EDGES)},
    {"variant": "binary-linear",
     "matrix": np.random.default_rng(3).integers(0, 2, (5, 12)).tolist()},
    _explicit_uniform(10, 4),
]


def _matroid_differential(d, ops, seed):
    spec = matroid_from_dict(d)
    oracle = build_oracle(spec, kind="rank")
    ref = BruteMatroid(spec)
    rng = np.random.default_rng(seed)
    cur = 0
    for step in range(ops):
        i = int(rng.integers(spec.n))
        if cur >> i & 1:
            oracle.delete(i)
            cur ^= 1 << i
        else:
            oracle.insert(i)
            cur |= 1 << i
        assert oracle.is_independent() == ref.is_independent(cur), (d, step)
        assert oracle.rank() == ref.rank(cur), (d, step)
        if cur and step % 3 == 0:
            members = [j for j in range(spec.n) if cur >> j & 1]
            j = members[int(rng.integers(len(members)))]
            want = ref.rank(cur) - ref.rank(cur ^ (1 << j)) == 1
            assert oracle.rank_drops_on_delete(j) == want, (d, step, j)


def test_criterion_7_oracle_equivalence():
    with criterion(7, "10^5-op dyncon differential vs BFS oracle and every "
                      "matroid backend vs brute force: zero disagreements, "
                      "< 1 minute") as note:
        t0 = time.monotonic()
        queries = [_dyncon_vs_bfs(100_000, nv=48, seed=2026, backend=b)
                   for b in ("hdt", "naive")]
        for d in MATROID_DIFF_SPECS:
            _matroid_differential(d, ops=1500, seed=11)
        wall = time.monotonic() - t0
        assert wall < 60.0, wall
        note["detail"] = (f"dyncon 1e5 ops on hdt and naive ({queries[0]} queried "
                          f"each), 6 matroid backends x 1500 ops, {wall:.1f}s")


# ---------------------------------------------------------------------------
# 8. scaling evidence CSV (timings recorded, not gated)


def _scaling_spec(family, m):
    """The cographic matroid of a path of m edges, or of the k x k grid whose
    2k(k - 1) edges come closest to m."""
    if family == "path":
        return matroid_from_dict({"variant": "cographic",
                                  "edges": [[i, i + 1] for i in range(m)]})
    k = round((1 + (1 + 2 * m) ** 0.5) / 2)
    edges = []
    for v in range(k * k):
        if v % k + 1 < k:
            edges.append([v, v + 1])
        if v + k < k * k:
            edges.append([v, v + k])
    return matroid_from_dict({"variant": "cographic", "edges": edges})


def _scaling_row(family, spec, backend, steps):
    """Time `steps` transitions of the connected-subgraph sampler on one
    connectivity backend; building the chain is not timed."""
    chain = PolarizedChain(spec, ones(spec.n), ChainConfig(seed=5),
                           dyncon_backend=backend)
    t0 = time.perf_counter()
    for _ in range(steps):
        chain.step()
    wall = time.perf_counter() - t0
    st = chain.stats
    return {"family": family, "backend": backend, "vertices": spec.vertices,
            "m": spec.n, "steps": st.steps, "wall_time_sec": wall,
            "per_step_us": 1e6 * wall / steps, "proposals": st.proposals,
            "rejections": st.rejections}


@pytest.mark.slow
def test_criterion_8_scaling_artifact(tmp_path):
    out = tmp_path / "bench_scaling.csv"
    with criterion(8, "non-gating scaling CSV: naive vs HDT vs auto per-step "
                      "cost on paths/grids at m in {1e3,1e4,1e5}") as note:
        rows = []
        for family in ("path", "grid"):
            for m in (1_000, 10_000, 100_000):
                spec = _scaling_spec(family, m)
                for backend in ("naive", "hdt", "auto"):
                    # naive counts components with a whole-graph search per
                    # step, so its large rows take fewer steps
                    steps = 2000 if backend != "naive" else max(
                        20, min(2000, 2_000_000 // m))
                    rows.append(_scaling_row(family, spec, backend, steps))
        header = ("family,backend,vertices,m,steps,wall_time_sec,"
                  "per_step_us,proposals,rejections")
        lines = [header] + [
            f"{r['family']},{r['backend']},{r['vertices']},{r['m']},{r['steps']},"
            f"{r['wall_time_sec']:.6f},{r['per_step_us']:.3f},{r['proposals']},"
            f"{r['rejections']}"
            for r in rows
        ]
        out.write_text("\n".join(lines) + "\n")
        assert out.exists()
        assert len(rows) == 18
        for r in rows:
            assert r["proposals"] >= r["steps"], r
            assert r["per_step_us"] > 0.0, r
        big = {r["backend"]: r["per_step_us"] for r in rows
               if r["family"] == "path" and r["m"] == 100_000}
        note["detail"] = (f"wrote {out.name} (18 rows); path m=1e5 per-step naive "
                          f"{big['naive']:.0f}us, hdt {big['hdt']:.0f}us, "
                          f"auto {big['auto']:.0f}us")


# ---------------------------------------------------------------------------
# 9. byte-identical replay of the sample CLI


def _cli_bytes(args, cwd):
    r = subprocess.run([sys.executable, "-m", "matroid_mcmc"] + args,
                       capture_output=True, cwd=cwd, env=cli_env())
    assert r.returncode == 0, r.stderr.decode()
    return r.stdout


def test_criterion_9_deterministic_replay(tmp_path):
    (tmp_path / "u12.json").write_text(json.dumps(
        {"variant": "uniform", "n": 12, "k": 6}))
    (tmp_path / "u18.json").write_text(json.dumps(
        {"variant": "uniform", "n": 18, "k": 9}))
    (tmp_path / "lam.txt").write_text(
        "".join(f"{0.5 + 0.25 * (i % 5)}\n" for i in range(12)))
    (tmp_path / "tri.graph").write_text("3 3\n0 1 0.4\n1 2 0.5\n0 2 0.6\n")
    invocations = [
        ["sample", "--model", "independent", "--matroid", "u12.json",
         "--lambda", "lam.txt", "--num-samples", "4000", "--seed", "9"],
        ["sample", "--model", "independent", "--matroid", "u18.json",
         "--lambda", "1.5", "--num-samples", "80", "--seed", "11"],
        ["sample", "--model", "random-cluster", "--matroid", "u12.json",
         "--lambda", "lam.txt", "--q", "0.5", "--num-samples", "4000",
         "--seed", "12"],
        ["sample", "--model", "connected-spanning", "--graph", "tri.graph",
         "--num-samples", "2000", "--seed", "13"],
    ]
    with criterion(9, "sample CLI replay with identical seed and inputs is "
                      "byte-identical (vectorized, sequential, RC, graph)") as note:
        total = 0
        for args in invocations:
            first = _cli_bytes(args, tmp_path)
            second = _cli_bytes(args, tmp_path)
            assert first and first == second, args
            json.loads(first.splitlines()[0])
            total += len(first)
        note["detail"] = f"4 invocations x 2 runs, {total} bytes each pass"
