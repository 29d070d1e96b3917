"""End-to-end CLI runs: output shape, exit codes, manifests, determinism."""

import argparse
import json
import math
import re
import resource
import shlex
import subprocess
import sys

import pytest

from matroid_mcmc.exact import exact_mu, tv_distance
from matroid_mcmc import Fields, matroid_from_dict
from matroid_mcmc import cli
from matroid_mcmc.cli import _build_parser

from conftest import REPO_ROOT, cli_env, masks_of
from reference import empirical_distribution

CLI = [sys.executable, "-m", "matroid_mcmc"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=cli_env(), **kw)


@pytest.fixture
def tri_graph(tmp_path):
    p = tmp_path / "tri.graph"
    p.write_text("3 3\n0 1 0.5\n1 2 0.5\n0 2 0.5\n")
    return str(p)


@pytest.fixture
def free2(tmp_path):
    p = tmp_path / "free2.json"
    p.write_text(json.dumps({"variant": "uniform", "n": 2, "k": 2}))
    return str(p)


@pytest.fixture
def free3(tmp_path):
    p = tmp_path / "free3.json"
    p.write_text(json.dumps({"variant": "uniform", "n": 3, "k": 3}))
    return str(p)


def test_sample_independent_one_line(free2):
    r = run_cli("sample", "--model", "independent", "--matroid", free2,
                "--lambda", "1", "--eps", "0.1", "--num-samples", "1",
                "--seed", "7")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 1
    s = json.loads(lines[0])
    assert isinstance(s, list) and set(s) <= {0, 1}


def test_sample_connected_spanning_law(tri_graph):
    r = run_cli("sample", "--model", "connected-spanning", "--graph", tri_graph,
                "--eps", "0.05", "--num-samples", "30000", "--seed", "1")
    assert r.returncode == 0, r.stderr
    survivors = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    assert len(survivors) == 30000
    # complement law: failure sets uniform over {}, {0}, {1}, {2}
    fails = [sorted({0, 1, 2} - set(s)) for s in survivors]
    emp = empirical_distribution(masks_of(fails))
    spec = matroid_from_dict({"variant": "cographic",
                              "edges": [[0, 1], [1, 2], [0, 2]]})
    exact = exact_mu(spec, Fields.constant(3, 1.0))
    assert tv_distance(emp, exact) <= 0.05 + 0.02


def test_sample_rc_q1_marginals(free3, tmp_path):
    lam_file = tmp_path / "lam.txt"
    lam_file.write_text("1.0\n2.0\n4.0\n")
    r = run_cli("sample", "--model", "random-cluster", "--matroid", free3,
                "--lambda", str(lam_file), "--q", "1", "--num-samples", "20000",
                "--seed", "3")
    assert r.returncode == 0, r.stderr
    samples = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    lam = [1.0, 2.0, 4.0]
    for i, li in enumerate(lam):
        freq = sum(1 for s in samples if i in s) / len(samples)
        assert abs(freq - li / (1 + li)) <= 0.01, (i, freq)


def test_rc_on_cographic_spec(tmp_path):
    """Every variant answers rank, so the random-cluster walk takes a
    cographic spec: the triangle's dual is U(1, 3), so at q = 0 (the
    maximum-rank sets) each sample is a nonempty set of edges."""
    spec = tmp_path / "cotri.json"
    spec.write_text(json.dumps({"variant": "cographic", "edges": [[0, 1], [1, 2], [0, 2]]}))
    r = run_cli("sample", "--model", "random-cluster", "--matroid", str(spec),
                "--q", "0", "--num-samples", "50", "--seed", "5")
    assert r.returncode == 0, r.stderr
    samples = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    assert len(samples) == 50
    assert all(s and set(s) <= {0, 1, 2} for s in samples)
    # and its exact law: the empty set weighs 1, each of the 7 others 1/q = 2
    r = run_cli("exact", "rc", "--matroid", str(spec), "--q", "0.5")
    assert r.returncode == 0, r.stderr
    atoms = {tuple(a["set"]): a["prob"] for a in json.loads(r.stdout)["atoms"]}
    assert len(atoms) == 8 and atoms[()] == pytest.approx(1 / 15)


def test_sample_manifest(free2, tmp_path):
    out = tmp_path / "s.ndjson"
    man = tmp_path / "m.json"
    r = run_cli("sample", "--model", "independent", "--matroid", free2,
                "--num-samples", "5", "--seed", "2",
                "--out", str(out), "--stats", str(man))
    assert r.returncode == 0, r.stderr
    manifest = json.loads(man.read_text())
    assert manifest["command"] == "sample"
    assert manifest["seed"] == 2
    assert len(manifest["inputs"]["matroid_digest"]) == 64
    assert manifest["stats"]["steps"] > 0
    assert manifest["stats"]["proposals"] >= manifest["stats"]["steps"]
    assert "wall_clock_sec" in manifest
    assert manifest["versions"]["matroid_mcmc"]
    assert len(out.read_text().strip().splitlines()) == 5


def test_sample_determinism_byte_identical(tri_graph, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.ndjson"
        r = run_cli("sample", "--model", "connected-spanning", "--graph", tri_graph,
                    "--num-samples", "500", "--seed", "42", "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_jobs_option_rejected(free2):
    r = run_cli("sample", "--model", "independent", "--matroid", free2,
                "--num-samples", "4", "--jobs", "2")
    assert r.returncode == 2
    assert "--jobs" in r.stderr


def test_estimate_reliability_json(tri_graph, tmp_path):
    out = tmp_path / "est.json"
    r = run_cli("estimate-reliability", "--graph", tri_graph,
                "--eps", "0.2", "--delta", "0.2", "--seed", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert 0 < payload["z_hat"] <= 1.0
    assert payload["log_z_hat"] == pytest.approx(math.log(payload["z_hat"]))
    assert len(payload["trace"]) == 3
    assert payload["samples_used"] > 0


def test_estimate_reliability_reports_delta_as_given(tri_graph):
    r = run_cli("estimate-reliability", "--graph", tri_graph, "--eps", "0.5",
                "--delta", "0.05")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["delta"] == 0.05


def test_exact_mu_cli(free2):
    r = run_cli("exact", "mu", "--matroid", free2, "--lambda", "1")
    assert r.returncode == 0, r.stderr
    atoms = json.loads(r.stdout)["atoms"]
    assert len(atoms) == 4
    assert all(a["prob"] == pytest.approx(0.25) for a in atoms)


def test_exact_kernel_cli(free2):
    r = run_cli("exact", "kernel", "--matroid", free2, "--chain", "polarized")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["stationary_residual"] <= 1e-10
    assert len(payload["matrix"]) == len(payload["states"])


def test_exact_reliability_cli(tri_graph):
    r = run_cli("exact", "reliability", "--graph", tri_graph)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["z_rel"] == pytest.approx(0.5)
    assert payload["log_z_rel"] == pytest.approx(math.log(0.5))


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_validation(tri_graph, free2):
    assert run_cli("sample", "--model", "connected-spanning", "--graph", tri_graph,
                   "--lambda", "2").returncode == 2
    assert run_cli("sample", "--model", "random-cluster",
                   "--matroid", free2).returncode == 2
    assert run_cli("sample", "--model", "independent", "--matroid", free2,
                   "--graph", tri_graph).returncode == 2
    assert run_cli("sample", "--model", "independent", "--matroid", free2,
                   "--num-samples", "0").returncode == 2
    for bad_steps in (["--steps", "0"], ["--eps", "5e-324"], ["--mix-constant", "4"]):
        assert run_cli("sample", "--model", "independent", "--matroid", free2,
                       *bad_steps).returncode == 2


def test_stats_dash_writes_the_manifest_to_stdout(free2, tmp_path):
    """`--stats -` means stdout, as `--out -` does, not a file named '-'."""
    out = tmp_path / "s.ndjson"
    r = run_cli("sample", "--model", "independent", "--matroid", free2,
                "--num-samples", "3", "--seed", "2", "--out", str(out), "--stats", "-",
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["command"] == "sample"
    assert not (tmp_path / "-").exists()
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("n,path", [(12, "vectorized"), (18, "sequential")])
def test_steps_sets_the_chain_length(tmp_path, n, path):
    spec = tmp_path / "u.json"
    spec.write_text(json.dumps({"variant": "uniform", "n": n, "k": n // 2}))
    man = tmp_path / "m.json"
    r = run_cli("sample", "--model", "independent", "--matroid", str(spec),
                "--steps", "7", "--num-samples", "3", "--stats", str(man),
                "--out", str(tmp_path / "s.ndjson"))
    assert r.returncode == 0, r.stderr
    manifest = json.loads(man.read_text())
    assert manifest["config"]["method_used"] == path
    assert manifest["config"]["steps_per_sample"] == 7
    assert manifest["stats"]["steps"] == 21
    r = run_cli("sample", "--model", "independent", "--matroid", str(spec),
                "--steps", "0")
    assert r.returncode == 2
    assert "--steps must be >= 1" in r.stderr, r.stderr


@pytest.mark.parametrize("c0", ["nan", "inf", "0", "-1", "8"])
def test_exit_2_on_bad_c0(tri_graph, c0):
    """estimate-reliability has no --c0, whatever its value; the library's
    rel_estimate(c0=...) keeps its own check (test_estimate_rejects_bad_c0)."""
    r = run_cli("estimate-reliability", "--graph", tri_graph, "--c0", c0)
    assert r.returncode == 2
    assert "unrecognized arguments: --c0" in r.stderr, r.stderr


@pytest.mark.parametrize("eps", ["1e-10", "1e-8"])
def test_exit_2_on_unallocatable_sample_count(tri_graph, eps):
    """About 1e22 (past numpy's largest dimension) and 1e18 (8 EiB) chains per
    level: the lockstep runner cannot allocate them and names the count."""
    r = run_cli("estimate-reliability", "--graph", tri_graph, "--eps", eps)
    assert r.returncode == 2, r.stderr
    assert re.search(r"arrays of \d{19,} lockstep chains", r.stderr), r.stderr


def test_exit_2_message_names_constraint(tri_graph):
    r = run_cli("sample", "--model", "connected-spanning", "--graph", tri_graph,
                "--lambda", "2")
    assert "--lambda" in r.stderr


def test_exit_2_on_malformed_graph(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("2 1\n0 1 2.0\n")
    r = run_cli("estimate-reliability", "--graph", str(p))
    assert r.returncode == 2
    assert ":2:" in r.stderr  # line-numbered message


@pytest.mark.parametrize("args,flag", [
    (["reliability", "--graph", "{g}", "--lambda", "2", "--q", "0.3", "--matroid", "{m}"],
     "--matroid"),
    (["mu", "--matroid", "{m}", "--q", "0.3", "--graph", "{g}", "--chain", "random-cluster"],
     "--graph"),
    (["kernel", "--matroid", "{m}", "--q", "0.3"], "--q"),  # the default polarized chain
], ids=["reliability", "mu", "kernel-polarized"])
def test_exact_rejects_options_its_target_does_not_take(tri_graph, free2, args, flag):
    r = run_cli("exact", *(a.format(g=tri_graph, m=free2) for a in args))
    assert r.returncode == 2, r.stdout
    assert r.stdout == ""
    assert f"does not take {flag}" in r.stderr, r.stderr


def main_exit(argv, capsys):
    """cli.main(argv) in-process: (exit code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# each mode, the options it requires, and the further ones it may take
OPTION_RULES = [
    (["sample", "--model", "independent"], ["--matroid"], ["--lambda"]),
    (["sample", "--model", "random-cluster"], ["--matroid", "--q"], ["--lambda"]),
    (["sample", "--model", "connected-spanning"], ["--graph"], []),
    (["exact", "mu"], ["--matroid"], ["--lambda"]),
    (["exact", "pi"], ["--matroid"], ["--lambda"]),
    (["exact", "rc"], ["--matroid", "--q"], ["--lambda"]),
    (["exact", "kernel"], ["--matroid"], ["--lambda", "--chain"]),  # polarized
    (["exact", "kernel", "--chain", "random-cluster"], ["--matroid", "--q"], ["--lambda"]),
    (["exact", "reliability"], ["--graph"], []),
]


@pytest.mark.parametrize("mode,requires,may_take", OPTION_RULES,
                         ids=[" ".join(m[0]) for m in OPTION_RULES])
def test_option_matrix(tri_graph, free2, capsys, mode, requires, may_take):
    """Each mode runs with the options it requires, and with every one it may
    take; dropping a required one exits 2 with "requires <flag>", and adding
    one it does not read exits 2 with "does not take <flag>"."""
    value = {"--matroid": free2, "--graph": tri_graph, "--lambda": "1", "--q": "0.5",
             "--chain": "polarized"}
    if mode[0] == "sample":
        mode = mode + ["--num-samples", "2", "--steps", "3"]

    def argv(flags):
        return mode + [w for f in flags for w in (f, value[f])]

    assert main_exit(argv(requires), capsys)[0] == 0
    assert main_exit(argv(requires + may_take), capsys)[0] == 0
    for flag in requires:
        code, out, err = main_exit(argv([f for f in requires if f != flag]), capsys)
        assert (code, out) == (2, "") and f"requires {flag}" in err, err
    flags = ["--matroid", "--graph", "--lambda", "--q"] + ["--chain"] * (mode[0] == "exact")
    for flag in flags:
        if flag not in requires + may_take and flag not in mode:
            code, out, err = main_exit(argv(requires + [flag]), capsys)
            assert (code, out) == (2, "") and f"does not take {flag}" in err, err


def test_every_option_is_in_the_option_table():
    """Each option of `sample` and `exact` is in cli._FLAGS, so the table says
    which modes read it, or is one that every mode reads; so a new option
    cannot skip the table.  The table has one entry per mode."""
    every_mode = {"help", "model", "what", "eps", "num_samples", "seed", "steps", "out",
                  "stats"}
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for cmd in ("sample", "exact"):
        for action in sub.choices[cmd]._actions:
            if action.dest in cli._FLAGS:
                assert cli._FLAGS[action.dest] in action.option_strings, action.dest
            else:
                assert action.dest in every_mode, (cmd, action.option_strings)
    modes = {f"sample --model {m}" for m in cli._MODELS}
    modes |= {f"exact {w}" for w in ("mu", "pi", "rc", "reliability")}
    modes |= {f"exact kernel --chain {c}" for c in ("polarized", "random-cluster")}
    assert set(cli._READS) == modes


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "independent", "--matroid", "{m}", "--seed", "-1"],
    ["sample", "--model", "independent", "--matroid", "{m}", "--seed", str(1 << 64)],
    ["sample", "--model", "independent", "--matroid", "{m}", "--seed", str(3 + (1 << 64))],
    ["estimate-reliability", "--graph", "{g}", "--seed", str(3 - (1 << 64))],
    ["estimate-reliability", "--graph", "{g}", "--seed", str(1 << 64)],
], ids=["sample-negative", "sample-2^64", "sample-3+2^64", "estimate-3-2^64",
        "estimate-2^64"])
def test_exit_2_on_seed_outside_64_bits(tri_graph, free2, capsys, argv):
    """A seed outside [0, 2^64) would key the same streams as one inside it."""
    code, out, err = main_exit([a.format(g=tri_graph, m=free2) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert "seed must be an integer in [0, 2^64)" in err, err


@pytest.mark.parametrize("header,message", [
    ("2 0", "graph must be connected"),
    ("1 0", "graph has no edges"),
], ids=["two-vertices", "one-vertex"])
def test_exit_2_on_edgeless_connected_spanning_graph(tmp_path, header, message):
    p = tmp_path / "edgeless.graph"
    p.write_text(header + "\n")
    r = run_cli("sample", "--model", "connected-spanning", "--graph", str(p))
    assert r.returncode == 2
    assert message in r.stderr and "'edges'" not in r.stderr, r.stderr


@pytest.mark.parametrize("text", [
    "4 2\n0 1 0.5\n2 3 0.5\n",
    "5 3\n0 1 0.5\n1 2 0.5\n0 2 0.5\n",
], ids=["two-components", "isolated-vertex"])
@pytest.mark.parametrize("command", [
    ["sample", "--model", "connected-spanning"],
    ["estimate-reliability"],
], ids=["sample", "estimate"])
def test_exit_2_on_disconnected_graph(tmp_path, text, command):
    p = tmp_path / "split.graph"
    p.write_text(text)
    r = run_cli(*command, "--graph", str(p))
    assert r.returncode == 2
    assert "graph must be connected" in r.stderr and "cographic spec" not in r.stderr, \
        r.stderr


@pytest.mark.parametrize("reader", ["matroid", "graph-sample", "graph-estimate", "lambda"])
def test_exit_2_on_a_file_that_is_not_utf8(tmp_path, reader):
    """Every input reader names a file that is not UTF-8 text and exits 2,
    with no traceback."""
    bad = tmp_path / "latin1.input"
    bad.write_bytes(b"3 3\n0 1 0.5\n1 2 \xff\n")
    spec = tmp_path / "u.json"
    spec.write_text(json.dumps({"variant": "uniform", "n": 3, "k": 2}))
    r = run_cli(*{
        "matroid": ["sample", "--model", "independent", "--matroid", str(bad)],
        "graph-sample": ["sample", "--model", "connected-spanning", "--graph", str(bad)],
        "graph-estimate": ["estimate-reliability", "--graph", str(bad)],
        "lambda": ["sample", "--model", "independent", "--matroid", str(spec),
                   "--lambda", str(bad)],
    }[reader])
    assert r.returncode == 2, r.stderr
    assert str(bad) in r.stderr and "UTF-8" in r.stderr and "Traceback" not in r.stderr, \
        r.stderr


def test_bench_subcommand_is_gone():
    r = run_cli("bench")
    assert r.returncode == 2
    assert "invalid choice: 'bench'" in r.stderr, r.stderr


def test_readme_commands_parse():
    """Every ``matroid-mcmc`` line in README's sh blocks parses (nothing
    runs), so a deleted subcommand or option cannot linger in the docs."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["matroid-mcmc"]:
                commands.append(words[1:])
    assert len(commands) >= 6, commands
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: matroid-mcmc {shlex.join(argv)}")


def test_exit_1_on_missing_file():
    assert run_cli("sample", "--model", "independent",
                   "--matroid", "no-such-file.json").returncode == 1


def test_exit_3_on_size_guard(tmp_path):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"variant": "uniform", "n": 21, "k": 10}))
    r = run_cli("exact", "mu", "--matroid", str(p))
    assert r.returncode == 3


def test_exit_2_on_overflowing_lambda_sum(tmp_path):
    spec = tmp_path / "u3.json"
    spec.write_text(json.dumps({"variant": "uniform", "n": 3, "k": 1}))
    lam = tmp_path / "lam.txt"
    lam.write_text("1e308\n1e308\n1\n")
    r = run_cli("sample", "--model", "independent", "--matroid", str(spec),
                "--lambda", str(lam), "--num-samples", "4")
    assert r.returncode == 2
    assert "overflows" in r.stderr



def test_exit_2_on_short_lambda_file(tmp_path):
    """A --lambda file one line short is refused with Fields.require_size's
    message, named by the file."""
    spec = tmp_path / "u3.json"
    spec.write_text(json.dumps({"variant": "uniform", "n": 3, "k": 1}))
    lam = tmp_path / "lam.txt"
    lam.write_text("1\n2\n")
    r = run_cli("sample", "--model", "independent", "--matroid", str(spec),
                "--lambda", str(lam), "--num-samples", "4")
    assert r.returncode == 2 and r.stdout == ""
    assert f"{lam}: the fields vector has 2 weights; the ground set has 3 elements" \
        in r.stderr, r.stderr

@pytest.mark.parametrize("text, message", [
    ("1\n\n\nabc\n1\n1\n", ":4: not a number: 'abc'"),
    ("1\n\n-1\n1\n", ":3: lambda[1] must be finite and > 0, got -1.0"),
    ("\n \n\n", ": fields vector must be nonempty"),
], ids=["not-a-number", "refused-by-fields", "all-blank"])
def test_exit_2_names_the_lambda_file_and_its_physical_line(tmp_path, text, message):
    """Every --lambda file error names the file, and a weight's error the
    line it is on, counting blank lines too."""
    spec = tmp_path / "u3.json"
    spec.write_text(json.dumps({"variant": "uniform", "n": 3, "k": 1}))
    lam = tmp_path / "gap.txt"
    lam.write_text(text)
    r = run_cli("sample", "--model", "independent", "--matroid", str(spec),
                "--lambda", str(lam), "--num-samples", "4")
    assert r.returncode == 2 and r.stdout == ""
    assert f"{lam}{message}" in r.stderr, r.stderr


@pytest.mark.parametrize("what,lam", [("mu", "1e308"), ("pi", "1e200")])
def test_exit_2_on_overflowing_exact_total(tmp_path, what, lam):
    """The weights' total overflows a float: exit 2 naming it, not NaN or 0.0
    probabilities (and no numpy warning)."""
    spec = tmp_path / "u.json"
    spec.write_text(json.dumps({"variant": "uniform", "n": 3, "k": 2}))
    r = run_cli("exact", what, "--matroid", str(spec), "--lambda", lam)
    assert r.returncode == 2, r.stdout
    assert r.stdout == ""
    assert "overflow" in r.stderr and "Warning" not in r.stderr, r.stderr


HUGE = 1_000_000_000_000  # a vertex id no per-vertex list could cover


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("case", ["estimate", "exact-reliability", "cographic", "graphic",
                                  "sample"])
def test_huge_vertex_count_allocates_nothing_per_vertex(tmp_path, case):
    """A one-edge input naming vertex 10^12 is answered without a list per
    vertex.  The child's address space is capped at 2 GiB, so code that does
    allocate per vertex fails with a MemoryError (exit 1) instead of
    exhausting the host."""
    graph = tmp_path / "huge.graph"
    graph.write_text(f"{HUGE} 1\n0 1 0.5\n")
    spec = tmp_path / "huge.json"
    variant = "cographic" if case == "cographic" else "graphic"
    spec.write_text(json.dumps({"variant": variant, "edges": [[0, HUGE]]}))
    args = {"estimate": ["estimate-reliability", "--graph", str(graph)],
            "exact-reliability": ["exact", "reliability", "--graph", str(graph)],
            "sample": ["sample", "--model", "independent", "--matroid", str(spec),
                       "--num-samples", "3", "--seed", "1"],
            }.get(case, ["exact", "mu", "--matroid", str(spec), "--lambda", "1"])
    r = subprocess.run(CLI + args, capture_output=True, text=True,
                       env=dict(cli_env(), OPENBLAS_NUM_THREADS="1"),
                       preexec_fn=_cap_address_space, timeout=120)
    if case == "estimate":
        assert r.returncode == 2 and "graph must be connected" in r.stderr, r.stderr
    elif case == "exact-reliability":
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert (out["z_rel"], out["log_z_rel"]) == (0.0, None)
    elif case == "cographic":
        assert r.returncode == 2, r.stderr
        assert "graph must be connected" in r.stderr
    elif case == "sample":  # the forest oracle relabels the two ids densely
        assert r.returncode == 0, r.stderr
        assert [json.loads(ln) for ln in r.stdout.splitlines()] == [[], [0], []]
    else:
        assert r.returncode == 0, r.stderr
        atoms = json.loads(r.stdout)["atoms"]
        assert sorted(a["set"] for a in atoms) == [[], [0]]
