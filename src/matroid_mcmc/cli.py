"""Command-line interface.

Subcommands:

* ``sample``                draw samples from a weighted matroid measure
                            (independent sets, connected spanning subgraphs,
                            or the random cluster model)
* ``estimate-reliability``  FPRAS-style all-terminal reliability estimate
* ``exact``                 brute-force reference distributions and kernels
                            (guarded by hard size limits)

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
from .config import ChainConfig
from .errors import ContractError, SizeLimitError, ValidationError
from .exact import exact_kernel, exact_mu, exact_pi, exact_rc, stationary_residual
from .matroids import FieldRuleError, Fields, load_matroid, read_text, set_bits
from .reliability import (
    cographic_spec,
    failure_fields,
    log_rel_exact,
    parse_graph_file,
    rel_estimate,
    surviving_edges,
)
from .sampling import execution_path, sample_independent_sets, sample_random_cluster

_MODELS = ("independent", "connected-spanning", "random-cluster")

# The options each mode reads, by argparse dest, each True where the mode
# requires it; every mode also reads the other options its parser has
# (--eps, --seed, --out, ...).  `exact kernel` is keyed by its --chain.
_FLAGS = {"matroid": "--matroid", "graph": "--graph", "lam": "--lambda", "q": "--q",
          "chain": "--chain"}
_READS = {
    "sample --model independent": {"matroid": True, "lam": False},
    "sample --model random-cluster": {"matroid": True, "lam": False, "q": True},
    "sample --model connected-spanning": {"graph": True},
    "exact mu": {"matroid": True, "lam": False},
    "exact pi": {"matroid": True, "lam": False},
    "exact rc": {"matroid": True, "lam": False, "q": True},
    "exact kernel --chain polarized": {"matroid": True, "lam": False, "chain": False},
    "exact kernel --chain random-cluster": {"matroid": True, "lam": False, "q": True,
                                            "chain": True},
    "exact reliability": {"graph": True},
}


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
        try:
            return Fields.constant(spec_n, const), {"lambda": const}
        except ValidationError as e:
            raise ValidationError(f"--lambda: {e}") from None
    vals, line_of = [], []  # line_of[i]: the file line weight i is on
    for ln_no, text in enumerate(read_text(lam_arg).split("\n"), start=1):
        text = text.strip()
        if not text:
            continue
        try:
            vals.append(float(text))
        except ValueError:
            raise ValidationError(f"{lam_arg}:{ln_no}: not a number: {text!r}") from None
        line_of.append(ln_no)
    try:
        fields = Fields(vals)
        fields.require_size(spec_n)
    except FieldRuleError as e:
        raise ValidationError(f"{lam_arg}:{line_of[e.index]}: {e}") from None
    except ValidationError as e:
        raise ValidationError(f"{lam_arg}: {e}") from None
    return fields, {"lambda_file": lam_arg, "lambda_digest": _sha256_file(lam_arg)}


def _check_options(mode: str, args: argparse.Namespace) -> None:
    """Raise ValidationError unless args set exactly the options `mode` reads
    (_READS): each it does not read unset, each it requires set."""
    reads = _READS[mode]
    for dest, flag in _FLAGS.items():
        if getattr(args, dest, None) is not None and dest not in reads:
            raise ValidationError(f"{mode} does not take {flag}")
    for dest, required in reads.items():
        if required and getattr(args, dest) is None:
            raise ValidationError(f"{mode} requires {_FLAGS[dest]}")


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


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.num_samples < 1:
        raise ValidationError("--num-samples must be >= 1")
    if args.steps is not None and args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    _check_options(f"sample --model {args.model}", args)
    inputs: dict = {}
    if args.model in ("independent", "random-cluster"):
        spec = load_matroid(args.matroid)
        inputs["matroid"] = args.matroid
        inputs["matroid_digest"] = _sha256_file(args.matroid)
        fields, lam_info = _load_fields(spec.n, getattr(args, "lam"))
        inputs.update(lam_info)
    else:  # connected-spanning: weights come from the graph file's probabilities
        inst = parse_graph_file(args.graph)
        inputs["graph"] = args.graph
        inputs["graph_digest"] = _sha256_file(args.graph)
        spec = cographic_spec(inst)
        fields = failure_fields(inst)

    cfg = ChainConfig(epsilon=args.eps, seed=args.seed, step_override=args.steps)
    t0 = time.perf_counter()
    if args.model == "random-cluster":
        samples, stats = sample_random_cluster(spec, fields, args.q, cfg, args.num_samples)
    else:
        samples, stats = sample_independent_sets(spec, fields, cfg, args.num_samples)
    wall = time.perf_counter() - t0

    if args.model == "connected-spanning":  # the samples are failed edges: keep the rest
        samples = [surviving_edges(spec.n, s) for s in samples]

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
                "steps_override": args.steps,
                "steps_per_sample": cfg.steps(spec.n),
                "q": args.q,
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
        _emit_json(manifest, args.stats)
    return 0


# ---------------------------------------------------------------------------
# estimate-reliability


def _cmd_estimate(args: argparse.Namespace) -> int:
    inst = parse_graph_file(args.graph)
    t0 = time.perf_counter()
    est = rel_estimate(inst, args.eps, args.delta, seed=args.seed)
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
    kind = args.chain or "polarized"  # the kernel's chain
    _check_options(f"exact {what}" + (f" --chain {kind}" if what == "kernel" else ""), args)
    if what == "reliability":
        inst = parse_graph_file(args.graph)
        log_z = log_rel_exact(inst)
        _emit_json({
            "z_rel": math.exp(log_z),
            "log_z_rel": log_z if log_z > -math.inf else None,  # None: disconnected
            "vertices": inst.vertices,
            "edges": inst.m,
        }, args.out)
        return 0

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
        dist = exact_rc(spec, fields, args.q)
        atoms = [{"set": set_bits(m), "prob": p}
                 for m, p in zip(dist.support, dist.prob)]
        _emit_json({"atoms": atoms, "q": args.q}, args.out)
        return 0
    # kernel
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
    sp.add_argument("--eps", type=float, default=ChainConfig.epsilon,
                    help="target sampling accuracy (drives the step count)")
    sp.add_argument("--num-samples", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--steps", type=int, default=None,
                    help="per-sample transition count, in place of the one --eps sets")
    sp.add_argument("--out", help="NDJSON output path (default: stdout)")
    sp.add_argument("--stats", help="write a JSON run manifest here ('-' for stdout)")
    sp.set_defaults(func=_cmd_sample)

    ep = sub.add_parser("estimate-reliability",
                        help="estimate the all-terminal reliability of a network")
    ep.add_argument("--graph", required=True)
    ep.add_argument("--eps", type=float, default=0.1, help="relative error target")
    ep.add_argument("--delta", type=float, default=0.05, help="failure probability")
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--out", help="JSON output path (default: stdout)")
    ep.set_defaults(func=_cmd_estimate)

    xp = sub.add_parser("exact", help="brute-force reference values (small inputs only)")
    xp.add_argument("what", choices=("mu", "pi", "rc", "kernel", "reliability"))
    xp.add_argument("--matroid")
    xp.add_argument("--graph")
    xp.add_argument("--lambda", dest="lam", metavar="FILE|CONST")
    xp.add_argument("--q", type=float)
    xp.add_argument("--chain", choices=("polarized", "random-cluster"),
                    help="which kernel to materialize (default: polarized)")
    xp.add_argument("--out")
    xp.set_defaults(func=_cmd_exact)

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
