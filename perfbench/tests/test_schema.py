"""Smoke test of the benchmark's result schema at tiny sizes.

It checks metric names, units and the environment block against
``BENCHMARK.json``; it makes no timing assertion.  Run from the repository
root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "recon-tv": {"size": 32, "num_lines": 12, "iters": 10, "inner_iters": 5},
    "verify-linear": {"instances": 2, "iters": 20, "n_max": 6},
    "verify-prox": {"instances": 2, "iters": 20, "n_max": 6},
    "sweep-linear": {"iters": 20, "sigma_grid": [1.0], "epsilon_grid": [0.0, 0.1]},
}

ENVIRONMENT_KEYS = {"python", "numpy", "scipy", "blas", "use_numba", "kernel_path",
                    "usable_cores", "git_commit", "tracing"}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_result_schema(name, trace, monkeypatch, tmp_path, capsys):
    full = workloads.WORKLOADS[name]
    tiny = dataclasses.replace(full, config={**full.config, **TINY[name]}, traced_calls=1)
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)

    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])

    assert code == 0
    env_line, result_line = capsys.readouterr().out.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    env = json.loads(env_line)["environment"]
    assert set(env) == ENVIRONMENT_KEYS
    assert env["tracing"] is bool(trace)
    assert env["kernel_path"] == ("numba" if env["use_numba"] else "numpy")
    record = json.loads((tmp_path / f"BENCH_{name}_trace{trace}.json").read_text())
    assert record["environment"] == env
    assert record["result"] == result


def test_refuses_a_checkout_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "recon-tv", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
