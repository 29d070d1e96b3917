"""One workload in one fresh process; prints one JSON object as its last line.

    python3 workloads.py WORKLOAD INPUT SEED (timed SECONDS | fixed) [--trace [--spans FILE]]

`timed` runs the measured window for SECONDS; `fixed` runs a fixed amount of
work, so that an untraced and two traced runs can be compared call for
call.  `--trace` installs the layer trace; `--spans` saves its spans to FILE.

Every output is checked; a failed check is counted, never raised.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time

import numpy as np

import matroid_mcmc
from matroid_mcmc import (ChainConfig, Fields, derive_seed, matroids, polarized,
                          random_cluster, reliability, sampling, vectorized)

import tracing

clock = time.perf_counter

# A timed run repeats set-up and warm-up, and reports each timing as a trimmed
# mean over its pieces (HostClock.typical).

# Host-speed reference: REF_LOOP additions, the fastest of REF_REPS passes,
# sampled every REF_PERIOD_S during a timed run.
REF_LOOP = 5_000
REF_REPS = 2
REF_PERIOD_S = 0.05
REF_NOMINAL_S = 0.0003    # the reference time on the nominal host

CS_SETUPS = 7             # set-ups; the last CS_WARMUPS of them are warmed up
CS_WARMUPS = 4            # fresh chains, each with its own chain seed
CS_WARMUP_STEPS = 20_000
CS_CHUNK = 2_000          # steps between checkpoints; one throughput sample
CS_FIXED_CHUNKS = 5

RC_Q = 0.5
RC_SETUPS = 15
RC_SETUP_BATCH = 10       # set-ups timed together: one alone takes under 1 ms
RC_WARMUP_SAMPLES = 20
RC_WARMUPS = 15           # short warm-up calls: many of them for a steady mean
RC_CHUNK = 40             # samples per throughput sample
RC_FIXED_CHUNKS = 1

REL_EPS = 0.2
REL_DELTA = 0.05
REL_SETUPS = 9
REL_WARMUPS = 3


class HostClock:
    """Wall time, and wall time scaled to the nominal host speed.

    On a shared host the same code runs up to 1.9 times slower for a second
    or for minutes, and a whole run's figures move with it.  So a timer
    signal interrupts the run every REF_PERIOD_S to time a fixed reference: a
    loop of additions that touches no memory the package uses and allocates
    nothing the garbage collector sees, so that what the package did before
    cannot change its time.  It slows down with the host.  A measured piece's
    wall time leaves out the time spent in these samples.  Its scaled time is
    its wall time times REF_NOMINAL_S over the mean reference time sampled
    during it (and just before it): the time the piece would take on a host
    where the reference takes REF_NOMINAL_S.  A change to the package moves
    the scaled time exactly as it moves the wall time.

    With `sample` false (the fixed-work runs, traced or not) nothing is
    sampled and the scaled time is the wall time.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.refs: list[float] = []
        self.pieces: dict[str, list[tuple[float, float]]] = {}   # for the run record
        self.paused = 0.0
        self._busy = False
        if sample:
            self._take(None, None)
            signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def _take(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        best = math.inf
        for _ in range(REF_REPS):
            t = clock()
            s = 0
            for i in range(REF_LOOP):
                s += i
            best = min(best, clock() - t)
        self.refs.append(best)
        self.paused += clock() - t0
        self._busy = False

    def stop(self) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def time(self, label: str, fn):
        """Run `fn()`; returns (wall s, scaled s, its result)."""
        k, paused = len(self.refs), self.paused
        t0 = clock()
        out = fn()
        wall = clock() - t0 - (self.paused - paused)
        scaled = wall
        if self.sample:
            scaled *= REF_NOMINAL_S / statistics.fmean(self.refs[k - 1:])
        self.pieces.setdefault(label, []).append((wall, scaled))
        return wall, scaled, out

    def repeat(self, label: str, reps: int, fn):
        """Time `reps` calls of `fn`, each after a full collection; returns the
        last result."""
        out = None
        for _ in range(reps):
            out = None
            gc.collect()
            out = self.time(label, fn)[2]
        return out

    def typical(self, label: str) -> tuple[float, float]:
        """Trimmed means over the pieces of `label`: (wall s, scaled s)."""
        walls, scaled = zip(*self.pieces[label])
        return trimmed_mean(walls), trimmed_mean(scaled)


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest tenth.  Pieces on a shared host
    fall into a fast and a slow group; a median jumps between the groups as
    their shares change, a mean moves smoothly."""
    v = sorted(values)
    k = len(v) // 10
    return statistics.fmean(v[k:len(v) - k])


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class Window:
    """Repeat `unit()` N times (fixed), or while another unit still fits in
    SECONDS judged by the last one's duration, and at least once (timed)."""

    def __init__(self, seconds: float | None, units: int):
        self.seconds = seconds
        self.units = units

    def run(self, unit) -> None:
        t0 = clock()
        done = 0
        while True:
            t = clock()
            unit()
            done += 1
            now = clock()
            if self.seconds is None:
                if done >= self.units:
                    return
            elif now - t0 + (now - t) > self.seconds:
                return


def connected_without(vertices: int, edges, failed_mask: int) -> bool:
    """BFS over the edges outside `failed_mask`: does the graph stay connected?"""
    bits = bin(failed_mask)[2:][::-1]
    adj = [[] for _ in range(vertices)]
    for i, (u, v) in enumerate(edges):
        if i >= len(bits) or bits[i] == "0":
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == vertices


def percentile_us(times, q: float) -> float:
    return float(np.percentile(np.asarray(times), q) * 1e6)


def cs_grid(path: str, seed: int, window: Window, check: Checks) -> dict:
    """Connected-spanning sampler on the 71x71 grid: one long HDT-backed chain."""

    def build(chain_seed: int):
        inst = reliability.parse_graph_file(path)
        spec = reliability.cographic_spec(inst)
        chain = polarized.PolarizedChain(spec, reliability.failure_fields(inst),
                                         ChainConfig(seed=chain_seed))
        return inst, chain

    def warm_up():
        for _ in range(CS_WARMUP_STEPS):
            chain.step()

    host = HostClock(window.seconds is not None)
    builds, warmed = (CS_SETUPS, CS_WARMUPS) if window.seconds else (1, 1)
    for k in range(builds):
        chain = None
        gc.collect()
        inst, chain = host.time("setup", lambda: build(derive_seed(seed, k)))[2]
        if k >= builds - warmed:
            host.time("warmup", warm_up)

    step = chain.step
    steady = 0
    p50s, p99s = [], []

    def timed_steps():
        times = []
        for _ in range(CS_CHUNK):
            t = clock()
            step()
            times.append(clock() - t)
        return times

    def chunk():
        nonlocal steady
        wall, scaled, times = host.time("chunk", timed_steps)
        steady += CS_CHUNK
        p50s.append(percentile_us(times, 50) * scaled / wall)
        p99s.append(percentile_us(times, 99) * scaled / wall)
        check(connected_without(inst.vertices, inst.edges, chain.state_mask()),
              f"failed-edge set disconnects the grid after {chain.stats.steps} steps")

    window.run(chunk)
    host.stop()
    st = chain.stats
    check(st.steps == CS_WARMUP_STEPS + steady,
          f"stats.steps {st.steps} != {CS_WARMUP_STEPS + steady} steps requested")
    setup_wall, setup_s = host.typical("setup")
    warmup_wall, warmup_s = host.typical("warmup")
    chunk_wall, chunk_s = host.typical("chunk")
    return {
        "metrics": {"setup_s": setup_s, "warmup_s": warmup_s,
                    "steps_per_s": CS_CHUNK / chunk_s},
        "extra": {"step_us_p50": statistics.median(p50s),
                  "step_us_p99": statistics.median(p99s),
                  "setup_wall_s": setup_wall, "warmup_wall_s": warmup_wall,
                  "steps_per_s_wall": CS_CHUNK / chunk_wall},
        "pieces": host.pieces,
        "stats": {"polarized": [st.steps, st.proposals, st.rejections]},
    }


def rc_grid(path: str, seed: int, window: Window, check: Checks) -> dict:
    """Random-cluster samples (q = 0.5) on the graphic matroid of the 4x6 grid."""

    def build():
        spec = matroids.load_matroid(path)
        fields = Fields.constant(spec.n)
        random_cluster.RandomClusterChain(spec, fields, RC_Q, ChainConfig(seed=seed))
        return spec, fields

    def builds():
        for _ in range(RC_SETUP_BATCH - 1):
            build()
        return build()

    host = HostClock(window.seconds is not None)
    spec, fields = host.repeat("setup", RC_SETUPS if window.seconds else 1, builds)
    per_sample = ChainConfig().steps(spec.n)
    totals = [0, 0, 0]
    drawn = 0

    def draw(count: int) -> None:
        # the call's chain j is keyed derive_seed(seed, drawn) ^ j
        nonlocal drawn
        cfg = ChainConfig(seed=derive_seed(seed, drawn))
        samples, st = sampling.sample_random_cluster(spec, fields, RC_Q, cfg, count)
        for s in samples:
            check(all(a < b for a, b in zip(s, s[1:])) and all(0 <= a < spec.n for a in s),
                  f"sample {drawn} is not a strictly increasing list in [0, {spec.n})")
            drawn += 1
        check(st.steps == count * per_sample,
              f"a call for {count} samples ran {st.steps} != {count} x {per_sample} steps")
        totals[0] += st.steps
        totals[1] += st.proposals
        totals[2] += st.rejections

    def samples():
        for _ in range(RC_CHUNK):
            draw(1)

    host.repeat("warmup", RC_WARMUPS if window.seconds else 1, lambda: draw(RC_WARMUP_SAMPLES))
    window.run(lambda: host.time("chunk", samples))
    host.stop()
    check(totals[0] == drawn * per_sample,
          f"stats.steps {totals[0]} != {drawn} x ChainConfig.steps({spec.n})")
    setup_wall, setup_s = host.typical("setup")
    warmup_wall, warmup_s = host.typical("warmup")
    chunk_wall, chunk_s = host.typical("chunk")
    return {
        "metrics": {"setup_s": setup_s / RC_SETUP_BATCH, "warmup_s": warmup_s,
                    "steps_per_s": RC_CHUNK * per_sample / chunk_s},
        "extra": {"samples_per_s": RC_CHUNK / chunk_s, "samples": drawn,
                  "setup_wall_s": setup_wall / RC_SETUP_BATCH, "warmup_wall_s": warmup_wall,
                  "steps_per_s_wall": RC_CHUNK * per_sample / chunk_wall},
        "pieces": host.pieces,
        "stats": {"random_cluster": totals},
    }


def rel_grid(path: str, seed: int, window: Window, check: Checks) -> dict:
    """rel_estimate on the 2x5 grid: lockstep batches through the reliability estimator."""

    def build():
        inst = reliability.parse_graph_file(path)
        spec = reliability.cographic_spec(inst)
        fields = reliability.failure_fields(inst)
        vectorized.SmallTables(spec, fields, "polarized")
        return inst, spec, fields

    host = HostClock(window.seconds is not None)
    inst, spec, fields = host.repeat("setup", REL_SETUPS if window.seconds else 1, build)
    m = inst.m
    z_exact = reliability.rel_exact(inst)
    level_cfg = ChainConfig(epsilon=REL_EPS / (8.0 * m), seed=seed)

    # warm-up: the batch rel_estimate samples at its first level, drawn through
    # the call the `sample` command makes
    level_n = math.ceil(reliability.DEFAULT_C0 * m * math.log(2 * m / REL_DELTA) / REL_EPS ** 2)
    samples, warm = host.repeat(
        "warmup", REL_WARMUPS if window.seconds else 1,
        lambda: sampling.sample_independent_sets(spec, fields, level_cfg, level_n))
    for s in {tuple(s) for s in samples}:
        check(connected_without(inst.vertices, inst.edges, sum(1 << i for i in s)),
              f"warm-up sample {list(s)} disconnects the graph")
    check(warm.steps == level_n * level_cfg.steps(m),
          f"warm-up batch ran {warm.steps} != {level_n} x {level_cfg.steps(m)} steps")

    used, steps = [], []

    def estimate():
        est = host.time("estimate", lambda: reliability.rel_estimate(
            inst, REL_EPS, REL_DELTA, seed=seed + len(used)))[2]
        used.append(est.samples_used)
        check(abs(est.z_hat / z_exact - 1.0) <= REL_EPS,
              f"z_hat {est.z_hat} is not within eps of rel_exact {z_exact}")
        check(len(est.trace) == m, f"trace has {len(est.trace)} entries for {m} edges")
        sampled = [k for k, e in enumerate(est.trace) if e["branch"] != "loop"]
        n_samples = est.samples_used // max(1, len(sampled))
        steps.append(sum(n_samples * level_cfg.steps(m - k) for k in sampled))

    window.run(estimate)
    host.stop()
    setup_wall, setup_s = host.typical("setup")
    warmup_wall, warmup_s = host.typical("warmup")
    est_wall, est_s = host.typical("estimate")
    return {
        "metrics": {"setup_s": setup_s, "warmup_s": warmup_s,
                    "steps_per_s": statistics.fmean(steps) / est_s},
        "extra": {"estimate_s": est_s, "samples_per_s": statistics.fmean(used) / est_s,
                  "estimates": len(used), "setup_wall_s": setup_wall,
                  "warmup_wall_s": warmup_wall,
                  "steps_per_s_wall": statistics.fmean(steps) / est_wall,
                  "estimate_wall_s": est_wall},
        "pieces": host.pieces,
        "stats": {"sampling": [warm.steps, warm.proposals, warm.rejections],
                  "reliability": used},
    }


WORKLOADS = {"cs-grid-10k": cs_grid, "rel-grid-2x5": rel_grid, "rc-grid-4x6": rc_grid}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("input")
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("timed", "fixed"))
    ap.add_argument("seconds", type=float, nargs="?")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    fixed_units = {"cs-grid-10k": CS_FIXED_CHUNKS, "rc-grid-4x6": RC_FIXED_CHUNKS,
                   "rel-grid-2x5": 1}[args.workload]
    window = Window(args.seconds if args.mode == "timed" else None, fixed_units)
    check = Checks()
    t0 = clock()
    out = WORKLOADS[args.workload](args.input, args.seed, window, check)
    out["wall_s"] = clock() - t0
    out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["checks"] = {"attempted": check.attempted, "failed": check.failed,
                     "messages": check.messages}
    out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                       "package": matroid_mcmc.__version__, "package_file": matroid_mcmc.__file__}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["rng.u.empty_wrapper_us"] = tracing.empty_wrapper_us()
        out["layers"] = layers
        out["module_self_s"] = tracer.module_self_s()
        if args.spans:
            tracer.save_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
