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
# The change doubles an iteration rate that varies little from run to run,
# and its set-up takes twice as long.  From seed 50 on, the parent reports
# failed checks on standard error as perfbench/run.py does, at even seeds;
# from seed 70 on, the change reports failing instances by their seeds.
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
if tree.name == "parent" and seed >= 50 and seed % 2 == 0:
    for call in (seed * 1000, seed * 1000 + 50, seed * 1000):
        print(f"check failed (call seed {call}): instance FAIL", file=sys.stderr)
if tree.name == "change" and seed >= 70:
    for call, instance in [(seed * 1000, seed * 1000 + 7), (seed * 1000, seed * 1000 + 30),
                           (seed * 1000, seed * 1000 + 7), (seed * 1000 + 50, None)]:
        problem = "exit status 1: ..." if instance is None else f"instance seed {instance} did not pass"
        print(f"check failed (call seed {call}): {problem}", file=sys.stderr)
print(json.dumps({"correct": True, "attempted": 5, "failed": int(tree.name == "parent"),
                  "metrics": {"instances_per_s": {"value": rate, "unit": "1/s"},
                              "peak_rss_mb": {"value": 40.0, "unit": "MB"},
                              "recon_iters_per_s": {"value": (100.0 + seed % 2)
                                                    * (1 + (tree.name == "change")),
                                                    "unit": "1/s"},
                              "setup_s": {"value": 1.0 + (tree.name == "change"),
                                          "unit": "s"}}}))
"""


def make_trees(tmp_path, spec=None):
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(STUB)
    if spec is None:
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
                        "change median 12 [q1 11.25, q3 13.5]; "
                        "paired ratio median 1.08392 [1, 1.1] (87.5%); change won 3 of 4")
    assert lines[5].endswith("; change won 0 of 4")
    assert lines[6] == "cells_per_s: not reported"
    assert lines[7:] == ["parent: attempted 20, failed 4", "change: attempted 20, failed 0"]
    assert "verdict" not in out.getvalue()  # no metric has a bound


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


def test_failed_call_seeds_per_pair_and_side(tmp_path):
    trees = make_trees(tmp_path)
    out = io.StringIO()
    argv = trees + ["--workload", "w", "--pairs", "3", "--seconds", "1", "--seed0", "50"]
    assert ab_pairs.main(argv, out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("seed 50 (parent first): ")
    assert lines[1] == "seed 50 failed call seeds: parent 50000 50050; change none"
    assert lines[2].startswith("seed 51 (change first): ")
    assert lines[3].startswith("seed 52 (parent first): ")
    assert lines[4] == "seed 52 failed call seeds: parent 52000 52050; change none"
    assert lines[5].startswith("instances_per_s (higher is better): ")


def test_failing_instance_seeds_follow_their_call_seed(tmp_path):
    trees = make_trees(tmp_path)
    out = io.StringIO()
    argv = trees + ["--workload", "w", "--pairs", "1", "--seconds", "1", "--seed0", "70"]
    assert ab_pairs.main(argv, out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[1] == ("seed 70 failed call seeds: parent 70000 70050; "
                        "change 70000 (70007 70030) 70050")


def test_verdict_per_metric_with_a_bound(tmp_path):
    spec = {"end_to_end": [{"name": name, "better": better, "bound": 0.25}
                           for name, better in [("instances_per_s", "higher"),
                                                ("peak_rss_mb", "lower"),
                                                ("recon_iters_per_s", "higher"),
                                                ("setup_s", "lower"),
                                                ("cells_per_s", "higher")]]}
    trees = make_trees(tmp_path, spec)
    out = io.StringIO()
    argv = trees + ["--workload", "w", "--pairs", "10", "--seconds", "1", "--seed0", "10"]
    assert ab_pairs.main(argv, out=out) == 0
    lines = out.getvalue().splitlines()[10:15]
    # The rate wins 9 of 10, but its medians (14.5, 15.5) lie closer than
    # the parent's quartiles (12.75, 17.25), which spread wider than 25%.
    assert lines[0].endswith("; change won 9 of 10; verdict: unresolved")
    assert lines[1].endswith("; change won 0 of 10; verdict: no worse")
    assert lines[2].endswith("; change won 10 of 10; verdict: gain")
    assert lines[3].endswith("; change won 0 of 10; verdict: worse")
    assert lines[4] == "cells_per_s: not reported"


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # 10 of 10 and 9 of 10 wins by more than the parent's IQR (100.75..107.25)
    (list(range(100, 110)), list(range(110, 120)), "higher", 0.25, "gain"),
    (list(range(100, 110)), list(range(110, 119)) + [99], "higher", 0.25, "gain"),
    # 8 of 10 wins: not a gain, and within the bound
    (list(range(100, 110)), list(range(110, 118)) + [99, 99], "higher", 0.25, "no worse"),
    # every pair won, but the medians lie 1 apart, inside the parent's IQR
    (list(range(100, 110)), list(range(101, 111)), "higher", 0.25, "no worse"),
    # ... and with a 1% bound the parent's spread is wider than the bound
    (list(range(100, 110)), list(range(101, 111)), "higher", 0.01, "unresolved"),
    # every change run beats every parent run: resolved despite the spread,
    # though the medians lie closer than the parent's IQR (1.25..3.75)
    ([1.0, 2.0, 3.0, 4.0], [4.5, 4.6, 4.7, 4.8], "higher", 0.01, "no worse"),
    ([4.0, 5.0, 6.0, 7.0], [3.5, 3.6, 3.7, 3.8], "lower", 0.01, "no worse"),
    ([1.0, 2.0, 3.0, 4.0], [4.5, 4.6, 2.5, 2.5], "higher", 0.01, "unresolved"),
    # lower is better: 30% worse exceeds a 25% bound, 20% does not
    ([1.0] * 10, [1.3] * 10, "lower", 0.25, "worse"),
    ([1.0] * 10, [1.2] * 10, "lower", 0.25, "no worse"),
    ([10.0] * 10, [7.0] * 10, "higher", 0.25, "worse"),
    # ties count for neither side
    ([5.0] * 10, [5.0] * 10, "higher", 0.25, "no worse"),
])
def test_verdict_rules(parent, change, better, bound, expected):
    assert ab_pairs.verdict(parent, change, better, bound) == expected


def test_no_gain_when_the_change_fails_a_larger_share():
    parent, change = list(range(100, 110)), list(range(110, 120))
    assert ab_pairs.verdict(parent, change, "higher", 0.25) == "gain"
    assert ab_pairs.verdict(parent, change, "higher", 0.25, more_failed=True) == "no worse"
    assert ab_pairs.verdict(parent, [70] * 10, "higher", 0.25, more_failed=True) == "worse"

    def pairs(extra):
        return [(seed, "parent",
                 {"parent": {"attempted": 10, "failed": 1, "metrics": {"rate": {"value": p}}},
                  "change": {"attempted": 20, "failed": 2 + extra * (seed == 0),
                             "metrics": {"rate": {"value": c}}}})
                for seed, (p, c) in enumerate(zip(parent, change))]

    # the parent fails 10 of 100 operations; the change 20 of 200, then 21
    for extra, expected in [(0, "gain"), (1, "no worse")]:
        out = io.StringIO()
        ab_pairs.report(pairs(extra), {"rate": ("higher", 0.25)}, out)
        assert f"; change won 10 of 10; verdict: {expected}" in out.getvalue()


def test_paired_ratio_sees_a_gain_that_host_drift_hides():
    # Every pair 1.3x faster while the parent drifts 2x across the pairs: the
    # parent's quartiles spread wider than the medians' gap, so the verdict
    # stays unresolved, but every paired ratio lies above 1.
    parent = [10.0 * 2 ** (i / 9) for i in range(10)]
    change = [1.3 * p for p in parent]
    assert ab_pairs.verdict(parent, change, "higher", 0.25) == "unresolved"
    low, high, coverage = ab_pairs.median_interval(
        ab_pairs.paired_ratios(parent, change, "higher"))
    assert 1.0 < low <= high and round(coverage, 4) == round(1 - 22 / 1024, 4)
    pairs = [(seed, "parent", {side: {"attempted": 1, "failed": 0,
                                      "metrics": {"rate": {"value": value}}}
                               for side, value in (("parent", p), ("change", c))})
             for seed, (p, c) in enumerate(zip(parent, change))]
    out = io.StringIO()
    ab_pairs.report(pairs, {"rate": ("higher", 0.25)}, out)
    assert ("; paired ratio median 1.3 [1.3, 1.3] (97.9%); change won 10 of 10; "
            "verdict: unresolved") in out.getvalue()


@pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (6, 1), (10, 2), (20, 6)])
def test_median_interval_takes_the_widest_95_percent_order_statistics(n, k):
    low, high, coverage = ab_pairs.median_interval(list(range(n, 0, -1)))
    assert (low, high) == (k, n + 1 - k)
    assert coverage >= 0.95 or k == 1


def test_lower_is_better_ratio_and_no_ratio_for_a_zero():
    assert ab_pairs.paired_ratios([2.0, 3.0], [1.0, 6.0], "lower") == [2.0, 0.5]
    pairs = [(0, "parent", {side: {"attempted": 1, "failed": 0,
                                   "metrics": {"s": {"value": value}}}
                            for side, value in (("parent", 0.0), ("change", 1.0))})]
    out = io.StringIO()
    ab_pairs.report(pairs, {"s": ("lower", None)}, out)
    assert "paired ratio" not in out.getvalue()
