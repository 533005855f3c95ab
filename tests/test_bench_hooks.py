"""The benchmark's hooks into sdred still resolve.

``perfbench/spans.py`` traces sdred functions by module and attribute name,
and ``perfbench/workloads.py`` swaps ``sdred.cli.run_sd_red`` to time the
solves and read the accuracy metrics.  A rename in sdred, or a solve that
no longer goes through that name, would leave those metrics silently at
zero or NaN; these tests fail instead.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402

from sdred import cli, solver  # noqa: E402


def test_every_traced_layer_resolves():
    assert spans.Tracer().missing == []


def test_cli_calls_the_solver_by_name():
    assert cli.run_sd_red is solver.run_sd_red


@pytest.mark.parametrize("command, text, solves", [
    ("verify-bounds", "kind = linear-theory\ninstances = 3\niters = 100\nn_max = 12\n", 3),
    ("verify-bounds", "kind = prox-prior-theory\ninstances = 2\niters = 300\nn_max = 12\n"
                      "fstar_iters = 20000\n", 2),
    ("sweep", "kind = linear-theory\nn = 4\niters = 100\ntau_grid = 1\n"
              "sigma_grid = 0.5, 1\nepsilon_grid = 0, 0.1\n", 4),
], ids=["verify-linear", "verify-prox", "sweep-linear"])
def test_each_instance_or_cell_is_one_solve_through_the_cli_name(
        tmp_path, monkeypatch, command, text, solves):
    # The same swap as perfbench/workloads.py::_SolveProbe, which reads the
    # reference distances of every trace it sees.
    traces = []
    run = cli.run_sd_red

    def counting(problem, config):
        traces.append(run(problem, config))
        return traces[-1]

    monkeypatch.setattr(cli, "run_sd_red", counting)
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(traces) == solves
    assert all(trace.dist_to_ref[-1] is not None for trace in traces)
