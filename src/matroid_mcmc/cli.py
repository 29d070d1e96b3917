"""Command-line interface.

Subcommands:

* ``sample``                draw samples from a weighted matroid measure
                            (independent sets, connected spanning subgraphs,
                            or the random cluster model)
* ``estimate-reliability``  FPRAS-style all-terminal reliability estimate
* ``exact``                 brute-force reference distributions and kernels
                            (guarded by hard size limits)
* ``bench``                 timing tables for the sampler and the dynamic
                            connectivity backends

Exit codes: 0 success, 1 I/O failure, 2 invalid input or arguments,
3 request exceeds a brute-force size guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time

import numpy as np

from . import __version__
from .bench import SAMPLER_FAMILIES, BenchRow, bench_sampler, dyncon_workload
from .config import ChainConfig
from .errors import ContractError, SizeLimitError, ValidationError
from .exact import exact_kernel, exact_mu, exact_pi, exact_rc, stationary_residual
from .matroids import Fields, load_matroid, set_bits
from .reliability import (
    cographic_spec,
    failure_fields,
    log_rel_exact,
    parse_graph_file,
    rel_estimate,
)
from .sampling import execution_path, sample_independent_sets, sample_random_cluster

_MODELS = ("independent", "connected-spanning", "random-cluster")


# ---------------------------------------------------------------------------
# small helpers


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _load_fields(spec_n: int, lam_arg: str | None) -> tuple[Fields, dict]:
    """Resolve ``--lambda`` into per-element weights.

    A value that parses as a decimal is a constant weight; anything else is
    read as a file with one positive weight per line (exactly ``n`` lines).
    """
    if lam_arg is None:
        return Fields.constant(spec_n, 1.0), {"lambda": 1.0}
    try:
        const = float(lam_arg)
    except ValueError:
        const = None
    if const is not None:
        if not math.isfinite(const) or const <= 0.0:
            raise ValidationError("constant weight must be positive and finite")
        return Fields.constant(spec_n, const), {"lambda": const}
    with open(lam_arg, "r", encoding="utf-8") as f:
        raw = [ln.strip() for ln in f if ln.strip()]
    vals = []
    for ln_no, text in enumerate(raw, start=1):
        try:
            vals.append(float(text))
        except ValueError:
            raise ValidationError(f"{lam_arg}:{ln_no}: not a number: {text!r}") from None
    if len(vals) != spec_n:
        raise ValidationError(
            f"{lam_arg}: expected {spec_n} weights, found {len(vals)}")
    return Fields(vals), {"lambda_file": lam_arg, "lambda_digest": _sha256_file(lam_arg)}


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit_json(payload, path: str | None) -> None:
    out, close = _open_out(path)
    try:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    finally:
        if close:
            out.close()


def _versions() -> dict:
    return {
        "matroid_mcmc": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.num_samples < 1:
        raise ValidationError("--num-samples must be >= 1")
    inputs: dict = {}
    q = args.q
    if args.model == "random-cluster":
        if q is None:
            raise ValidationError("--q is required with --model random-cluster")
        if not (0.0 <= q <= 1.0):
            raise ValidationError("--q must lie in [0, 1]")
    elif q is not None:
        raise ValidationError("--q is only valid with --model random-cluster")

    if args.model in ("independent", "random-cluster"):
        if args.matroid is None:
            raise ValidationError(f"--model {args.model} requires --matroid")
        if args.graph is not None:
            raise ValidationError(f"--model {args.model} does not take --graph")
        spec = load_matroid(args.matroid)
        inputs["matroid"] = args.matroid
        inputs["matroid_digest"] = _sha256_file(args.matroid)
        fields, lam_info = _load_fields(spec.n, getattr(args, "lam"))
        inputs.update(lam_info)
        complement_of = None
    else:  # connected-spanning
        if args.graph is None:
            raise ValidationError("--model connected-spanning requires --graph")
        if args.matroid is not None:
            raise ValidationError("--model connected-spanning does not take --matroid")
        if getattr(args, "lam") is not None:
            raise ValidationError(
                "--lambda is not valid with --model connected-spanning; "
                "weights come from the per-edge probabilities in the graph file")
        inst = parse_graph_file(args.graph)
        inputs["graph"] = args.graph
        inputs["graph_digest"] = _sha256_file(args.graph)
        spec = cographic_spec(inst)
        fields = failure_fields(inst)
        complement_of = spec.n

    cfg = ChainConfig(epsilon=args.eps, mix_constant=args.mix_constant,
                      seed=args.seed, step_override=args.steps)
    t0 = time.perf_counter()
    if args.model == "random-cluster":
        samples, stats = sample_random_cluster(spec, fields, q, cfg, args.num_samples)
    else:
        samples, stats = sample_independent_sets(spec, fields, cfg, args.num_samples)
    wall = time.perf_counter() - t0

    if complement_of is not None:
        samples = [sorted(set(range(complement_of)) - set(s)) for s in samples]

    out, close = _open_out(args.out)
    try:
        for s in samples:
            out.write(json.dumps(s, separators=(",", ":")))
            out.write("\n")
    finally:
        if close:
            out.close()

    if args.stats is not None:
        manifest = {
            "command": "sample",
            "model": args.model,
            "inputs": inputs,
            "seed": args.seed,
            "config": {
                "eps": args.eps,
                "mix_constant": args.mix_constant,
                "steps_override": args.steps,
                "steps_per_sample": cfg.steps(spec.n),
                "q": q,
                "num_samples": args.num_samples,
                "method_used": execution_path(spec.n),
            },
            "versions": _versions(),
            "wall_clock_sec": wall,
            "stats": {
                "steps": stats.steps,
                "proposals": stats.proposals,
                "rejections": stats.rejections,
                "rejection_rate": stats.rejection_rate,
            },
        }
        _write_manifest(args.stats, manifest)
    return 0


# ---------------------------------------------------------------------------
# estimate-reliability


def _cmd_estimate(args: argparse.Namespace) -> int:
    inst = parse_graph_file(args.graph)
    t0 = time.perf_counter()
    est = rel_estimate(inst, args.eps, args.delta, seed=args.seed, c0=args.c0)
    wall = time.perf_counter() - t0
    payload = est.as_json_dict()
    payload["graph"] = args.graph
    payload["graph_digest"] = _sha256_file(args.graph)
    payload["seed"] = args.seed
    payload["versions"] = _versions()
    payload["wall_clock_sec"] = wall
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# exact


def _cmd_exact(args: argparse.Namespace) -> int:
    what = args.what
    if what == "reliability":
        if args.graph is None:
            raise ValidationError("exact reliability requires --graph")
        inst = parse_graph_file(args.graph)
        log_z = log_rel_exact(inst)
        _emit_json({
            "z_rel": math.exp(log_z),
            "log_z_rel": log_z if log_z > -math.inf else None,  # None: disconnected
            "vertices": inst.vertices,
            "edges": inst.m,
        }, args.out)
        return 0

    if args.matroid is None:
        raise ValidationError(f"exact {what} requires --matroid")
    spec = load_matroid(args.matroid)
    fields, _ = _load_fields(spec.n, getattr(args, "lam"))

    if what == "mu":
        dist = exact_mu(spec, fields)
        atoms = [{"set": set_bits(m), "prob": p}
                 for m, p in zip(dist.support, dist.prob)]
        _emit_json({"atoms": atoms}, args.out)
        return 0
    if what == "pi":
        dist = exact_pi(spec, fields)
        atoms = []
        lo = (1 << spec.n) - 1
        for m, p in zip(dist.support, dist.prob):
            atoms.append({
                "x": set_bits(m & lo),
                "y": set_bits(m >> spec.n),
                "prob": p,
            })
        _emit_json({"atoms": atoms}, args.out)
        return 0
    if what == "rc":
        if args.q is None:
            raise ValidationError("exact rc requires --q")
        dist = exact_rc(spec, fields, args.q)
        atoms = [{"set": set_bits(m), "prob": p}
                 for m, p in zip(dist.support, dist.prob)]
        _emit_json({"atoms": atoms, "q": args.q}, args.out)
        return 0
    if what == "kernel":
        kind = args.chain
        if kind == "random-cluster" and args.q is None:
            raise ValidationError("exact kernel --chain random-cluster requires --q")
        states, P = exact_kernel(kind, spec, fields, q=args.q)
        if kind == "polarized":
            target = exact_mu(spec, fields)
        else:
            target = exact_rc(spec, fields, args.q)
        probs = [target.prob_of(m) for m in states]
        _emit_json({
            "chain": kind,
            "states": [set_bits(m) for m in states],
            "matrix": [[float(x) for x in row] for row in P],
            "stationary": probs,
            "stationary_residual": stationary_residual(P, probs),
        }, args.out)
        return 0
    raise ValidationError(f"unknown exact target {what!r}")


# ---------------------------------------------------------------------------
# bench


def _csv_out(path: str | None, header: list[str], rows: list[list]) -> None:
    out, close = _open_out(path)
    try:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(x) for x in row) + "\n")
    finally:
        if close:
            out.close()


def _parse_list(text: str, kind: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValidationError(f"empty {kind} list")
    return items


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = []
    for t in _parse_list(args.sizes, "size"):
        try:
            sizes.append(int(t))
        except ValueError:
            raise ValidationError(f"bad size: {t!r}") from None
        if sizes[-1] < 1:
            raise ValidationError("sizes must be >= 1")
    backends = _parse_list(args.backends, "backend")
    for b in backends:
        if b not in ("hdt", "naive"):
            raise ValidationError(f"unknown backend {b!r} (want hdt or naive)")

    if args.target == "dyncon":
        header = ["backend", "vertices", "ops", "wall_time_sec", "per_op_us", "checksum"]
        rows = []
        for nv in sizes:
            for backend in backends:
                wall, checksum = dyncon_workload(nv, args.ops, backend, seed=args.seed)
                rows.append([backend, nv, args.ops, f"{wall:.6f}",
                             f"{1e6 * wall / max(1, args.ops):.3f}", checksum])
        _csv_out(args.out, header, rows)
        return 0

    families = _parse_list(args.families, "family")
    for fam in families:
        if fam not in SAMPLER_FAMILIES:
            raise ValidationError(
                f"unknown family {fam!r} (want one of {', '.join(SAMPLER_FAMILIES)})")
    header = ["family", "backend", "vertices", "m", "steps",
              "wall_time_sec", "per_step_us", "proposals", "rejections"]
    rows: list[list] = []
    for fam in families:
        for m_target in sizes:
            for backend in backends:
                steps = args.steps
                if backend == "naive" and args.naive_steps is not None:
                    steps = args.naive_steps
                elif backend == "naive":
                    # the naive backend traverses the whole graph for each
                    # step's component count, so cap its work to keep large
                    # rows affordable
                    steps = max(20, min(steps, 2_000_000 // max(1, m_target)))
                row: BenchRow = bench_sampler(fam, m_target, backend, steps, seed=args.seed)
                rows.append([row.family, row.backend, row.vertices, row.m, row.steps,
                             f"{row.wall_time_sec:.6f}", f"{row.per_step_us:.3f}",
                             row.proposals, row.rejections])
    _csv_out(args.out, header, rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="matroid-mcmc",
        description="Samplers for weighted matroid measures, connected spanning "
                    "subgraphs, random cluster models, and network reliability.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("sample", help="draw samples via the Markov chain samplers")
    sp.add_argument("--model", required=True, choices=_MODELS)
    sp.add_argument("--matroid", help="matroid description (JSON file)")
    sp.add_argument("--graph", help="graph file: 'n m' header then 'u v p' lines")
    sp.add_argument("--lambda", dest="lam", metavar="FILE|CONST",
                    help="element weights: a constant, or a file with one weight per line")
    sp.add_argument("--q", type=float, help="random cluster parameter in [0, 1]")
    sp.add_argument("--eps", type=float, default=0.1,
                    help="target sampling accuracy (drives the step count)")
    sp.add_argument("--num-samples", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mix-constant", type=float, default=4.0,
                    help="multiplier in the n*log(n/eps) step rule")
    sp.add_argument("--steps", type=int, default=None,
                    help="override the per-sample transition count")
    sp.add_argument("--out", help="NDJSON output path (default: stdout)")
    sp.add_argument("--stats", help="write a JSON run manifest here")
    sp.set_defaults(func=_cmd_sample)

    ep = sub.add_parser("estimate-reliability",
                        help="estimate the all-terminal reliability of a network")
    ep.add_argument("--graph", required=True)
    ep.add_argument("--eps", type=float, default=0.1, help="relative error target")
    ep.add_argument("--delta", type=float, default=0.05, help="failure probability")
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--c0", type=float, default=8.0,
                    help="sample-count multiplier per conditioning level")
    ep.add_argument("--out", help="JSON output path (default: stdout)")
    ep.set_defaults(func=_cmd_estimate)

    xp = sub.add_parser("exact", help="brute-force reference values (small inputs only)")
    xp.add_argument("what", choices=("mu", "pi", "rc", "kernel", "reliability"))
    xp.add_argument("--matroid")
    xp.add_argument("--graph")
    xp.add_argument("--lambda", dest="lam", metavar="FILE|CONST")
    xp.add_argument("--q", type=float)
    xp.add_argument("--chain", choices=("polarized", "random-cluster"),
                    default="polarized", help="which kernel to materialize")
    xp.add_argument("--out")
    xp.set_defaults(func=_cmd_exact)

    bp = sub.add_parser("bench", help="timing tables (CSV)")
    bp.add_argument("--target", choices=("sampler", "dyncon"), default="sampler")
    bp.add_argument("--families", default="path,grid,random-regular",
                    help="comma list of graph families (sampler target)")
    bp.add_argument("--sizes", default="1000,10000,100000",
                    help="comma list of edge counts (sampler) or vertex counts (dyncon)")
    bp.add_argument("--backends", default="naive,hdt")
    bp.add_argument("--steps", type=int, default=1000,
                    help="chain transitions per sampler row")
    bp.add_argument("--naive-steps", type=int, default=None,
                    help="override the scaled-down step count for naive rows")
    bp.add_argument("--ops", type=int, default=100000,
                    help="edge operations per dyncon row")
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--out", help="CSV output path (default: stdout)")
    bp.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
