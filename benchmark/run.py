"""Benchmark entry point for matroid-mcmc.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's input
file under .bench_out/; the package reads only that file.  The workload runs
in a fresh single-threaded child process (one at a time).

--trace 0: one timed run of S seconds; prints the end-to-end metrics.
--trace 1: the same fixed amount of work run untraced once and traced twice;
           prints the per-layer metrics, checks that both traced runs made
           identical calls and that all three agree on the chain statistics,
           and writes the spans and layer table to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Every run also writes a run record to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKLOADS = ("cs-grid-10k", "rel-grid-2x5", "rc-grid-4x6")
# printed figures that mean something on one workload only; not in BENCHMARK.json
EXTRA_UNITS = {"samples_per_s": "1/s", "estimate_s": "s", "samples": "count",
               "estimates": "count", "step_us_p50": "us", "step_us_p99": "us",
               "setup_wall_s": "s", "warmup_wall_s": "s", "steps_per_s_wall": "1/s",
               "estimate_wall_s": "s"}
CHILD_TIMEOUT_S = 170


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str]) -> dict:
    """Run workloads.py in a fresh process; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    pkg = os.path.realpath(out["versions"]["package_file"])
    if not pkg.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported matroid_mcmc from {pkg}, not from this checkout")
    return out


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package's .py files, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "matroid_mcmc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def reported(values: dict, kind: str) -> dict:
    """The BENCHMARK.json metrics of `kind`, each with its value and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        specs = json.load(f)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def counts(run: dict) -> dict:
    return {k: v for k, v in run["layers"].items() if k.endswith(".calls")}


def print_layers(run: dict, layers: dict, untraced_wall: float) -> None:
    wall = run["wall_s"]
    print(f"per-layer self time, traced run wall {wall:.3f} s "
          f"(untraced {untraced_wall:.3f} s):")
    print(f"  {'layer':16s} {'self_s':>10s} {'share':>7s}")
    for mod, s in sorted(run["module_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {mod:16s} {s:10.4f} {s / wall:7.1%}")
    print(f"  {'(benchmark)':16s} {wall - sum(run['module_self_s'].values()):10.4f}")
    print("per-layer metrics:")
    for k, v in layers.items():
        print(f"  {k:44s} {v:.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "matroid_mcmc", "__init__.py")):
        return fail(f"no package source at {SRC}/matroid_mcmc; run from a full checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path = inputs.generate(args.workload, args.seed, OUT)
    record["inputs"] = {os.path.relpath(path, ROOT): inputs.sha256(path)}
    base = [args.workload, path, str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}"

    try:
        if args.trace == 0:
            run = run_child(base + ["timed", str(args.seconds)])
            attempted, failed = run["checks"]["attempted"], run["checks"]["failed"]
            messages = run["checks"]["messages"]
            metrics = reported(run["metrics"], "end_to_end")
            record["runs"] = [run]
        else:
            spans = os.path.join(OUT, f"trace-{tag}.spans.npz")
            plain = run_child(base + ["fixed"])
            traced = run_child(base + ["fixed", "--trace", "--spans", spans])
            again = run_child(base + ["fixed", "--trace"])
            runs = (plain, traced, again)
            attempted = sum(r["checks"]["attempted"] for r in runs) + 2
            failed = sum(r["checks"]["failed"] for r in runs)
            messages = [m for r in runs for m in r["checks"]["messages"]]
            if counts(traced) != counts(again) or traced["stats"] != again["stats"]:
                failed += 1
                messages.append("two traced runs with one seed made different calls")
            if plain["stats"] != traced["stats"]:
                failed += 1
                messages.append(f"traced stats {traced['stats']} != untraced {plain['stats']}")
            layers = dict(traced["layers"])
            layers["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
            for chain in ("polarized", "random_cluster"):
                _, proposals, rejections = traced["stats"].get(chain, (0, 0, 0))
                layers[f"{chain}.proposals"] = proposals
                layers[f"{chain}.rejections"] = rejections
                layers[f"{chain}.accept_ratio"] = (
                    (proposals - rejections) / proposals if proposals else 0.0)
            layers["reliability.samples_used"] = sum(traced["stats"].get("reliability", []))
            metrics = reported(layers, "per_layer")
            record["runs"] = list(runs)
            record["layers"] = layers
            record["spans_file"] = os.path.relpath(spans, ROOT)
            print_layers(traced, layers, plain["wall_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))

    record["checks"] = {"attempted": attempted, "failed": failed,
                        "failed_frac": failed / attempted, "messages": messages}
    with open(os.path.join(OUT, f"record-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    if args.trace == 0:
        print(f"{args.workload} seed {args.seed}:")
        for k, m in metrics.items():
            print(f"  {k:16s} {m['value']:14.6g} {m['unit']}")
        for k, v in run["extra"].items():
            print(f"  {k:16s} {v:14.6g} {EXTRA_UNITS[k]}")
        print(f"  {'failed_frac':16s} {failed / attempted:14.6g} ({failed}/{attempted} checks)")
    for m in messages:
        print(f"  check failed: {m}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
