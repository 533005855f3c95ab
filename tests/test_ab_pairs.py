"""tools/ab_pairs.py on two stub trees whose benchmark logs the order of its calls."""

import io
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import ab_pairs  # noqa: E402

# The stub appends "<tree> <seed>" to calls.log next to the trees and reports
# a rate that the change beats except at seed 12, and a constant peak RSS.
STUB = """
import json, sys
from pathlib import Path

import pytest

tree = Path(__file__).resolve().parents[1]
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(tree.parent / "calls.log", "a") as log:
    log.write(f"{tree.name} {seed}\\n")
rate = seed + (1.0 if tree.name == "change" and seed != 12 else 0.0)
if tree.name == "change" and seed == 99:
    sys.exit(3)
print("progress line")
print(json.dumps({"correct": True, "attempted": 5, "failed": int(tree.name == "parent"),
                  "metrics": {"instances_per_s": {"value": rate, "unit": "1/s"},
                              "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}))
"""


def make_trees(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(STUB)
    spec = {"end_to_end": [{"name": "instances_per_s", "better": "higher"},
                           {"name": "peak_rss_mb", "better": "lower"},
                           {"name": "cells_per_s", "better": "higher"}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_alternating_pairs_and_report(tmp_path):
    trees = make_trees(tmp_path)
    out = io.StringIO()
    argv = trees + ["--workload", "w", "--pairs", "4", "--seconds", "1", "--seed0", "10"]
    assert ab_pairs.main(argv, out=out) == 0
    calls = (tmp_path / "calls.log").read_text().split("\n")[:-1]
    assert calls == ["parent 10", "change 10", "change 11", "parent 11",
                     "parent 12", "change 12", "change 13", "parent 13"]
    lines = out.getvalue().splitlines()
    assert lines[0] == ("seed 10 (parent first): instances_per_s 10.0/11.0; "
                        "peak_rss_mb 40.0/40.0; cells_per_s None/None")
    assert lines[1].startswith("seed 11 (change first): ")
    assert lines[4] == ("instances_per_s (higher is better): "
                        "parent median 11.5 [q1 10.25, q3 12.75], "
                        "change median 12 [q1 11.25, q3 13.5]; change won 3 of 4")
    assert lines[5].endswith("; change won 0 of 4")
    assert lines[6] == "cells_per_s: not reported"
    assert lines[7:] == ["parent: attempted 20, failed 4", "change: attempted 20, failed 0"]


def test_failed_run_exits_1_and_usage_errors_exit_2(tmp_path, capsys):
    trees = make_trees(tmp_path)
    out = io.StringIO()
    argv = trees + ["--workload", "w", "--pairs", "3", "--seconds", "1", "--seed0", "98"]
    assert ab_pairs.main(argv, out=out) == 1
    assert out.getvalue().startswith("seed 98 (parent first): ")
    assert "change won 1 of 1" in out.getvalue()
    assert "exit 3" in capsys.readouterr().err
    options = ["--workload", "w", "--seconds", "1", "--seed0", "0"]
    for argv in ([trees[0], str(tmp_path)] + options + ["--pairs", "2"],
                 trees + options + ["--pairs", "0"]):
        with pytest.raises(SystemExit) as exc:
            ab_pairs.main(argv, out=out)
        assert exc.value.code == 2
