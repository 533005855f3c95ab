"""The benchmark's hooks into sdred still resolve.

``perfbench/spans.py`` traces sdred functions by module and attribute name,
and ``perfbench/workloads.py`` swaps ``sdred.cli.run_sd_red`` to time the
solves and read the accuracy metrics.  A rename in sdred would leave those
metrics silently at zero; these tests fail instead.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402

from sdred import cli, solver  # noqa: E402


def test_every_traced_layer_resolves():
    assert spans.Tracer().missing == []


def test_cli_calls_the_solver_by_name():
    assert cli.run_sd_red is solver.run_sd_red
