"""Each benchmark workload runs on this checkout: one fixed-work run, traced.

The benchmark and its layer trace (benchmark/tracing.py) look names up in
the package from outside: sampling.sample_independent_sets,
sampling.sample_random_cluster, sampling.run_polarized_batch,
polarized.build_oracle, random_cluster.build_oracle, matroids.dyn_graph and
vectorized.SmallTables among them.  A refactor that drops one fails here.
Nothing under benchmark/ is written: no input, output or bytecode.
"""
import importlib.util
import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, cli_env

BENCH = REPO_ROOT / "benchmark"


@pytest.mark.parametrize("workload", ["cs-grid-10k", "rel-grid-2x5", "rc-grid-4x6"])
def test_benchmark_workload_runs_traced(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = inputs.generate(workload, 1, str(tmp_path))
    r = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), workload, path, "1", "fixed", "--trace"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(cli_env(), PYTHONDONTWRITEBYTECODE="1"))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.splitlines()[-1])
    assert out["checks"]["failed"] == 0, out["checks"]["messages"]
    assert out["layers"]["trace.spans"] > 0
