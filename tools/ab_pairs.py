"""Run the benchmark on two source trees in alternating pairs and compare.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        --seconds T --seed0 S

Pair i runs ``python3 DIR/perfbench/run.py --workload W --seed S+i
--seconds T`` in each tree, one after the other; the parent runs first in
even pairs and the change in odd ones, so drift on a shared host falls on
both sides.  The last JSON line a run prints is its result.

The report gives one line per pair with each end-to-end metric as
parent/change, followed, when a run's checks failed, by a line with the
call seeds of its ``check failed (call seed ...)`` lines per side, each
followed by the seeds of the instances that "did not pass" in that call,
in parentheses, where the check names them; then
per metric each side's median and quartiles, the median of the per-pair
ratios with a distribution-free interval for it, and the pairs the change
won, a win being strictly better in the ``better`` direction that
``BENCHMARK.json`` (read from CHANGE_DIR) gives the metric.  A pair's ratio
is change/parent, or parent/change where lower is better, so above 1
favours the change; it is given only when every value is positive and
finite.  The interval and its printed coverage are those of
``median_interval`` (the 2nd and 9th smallest of 10 ratios: 97.9%).  No
verdict reads the ratios.
A metric is read as ``metrics[name]["value"]``.  Each metric line that
``BENCHMARK.json`` gives a relative ``bound`` ends with a verdict, tested
in this order:

* ``gain``: the change won at least 9 of 10 pairs (ties count for neither),
  its median beats the parent's by more than the parent's interquartile
  range, and it failed no larger share of its operations than the parent;
* ``worse``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
* ``unresolved``: the parent's interquartile range is wider than that
  bound, and not every change run beats every parent run;
* ``no worse``: any other case.

The last lines total ``attempted`` and ``failed`` per side.

Exit status: 0 when every run gave a result, 1 when a run failed (the
report then covers the pairs before it), 2 on a usage error.  Only the
standard library is used.
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# A failed check as perfbench/run.py reports it on standard error, with the
# instance seed when the check names a failing instance.
_FAILED_CHECK = re.compile(
    r"^check failed \(call seed (\d+)\)(?:: instance seed (\d+) did not pass)?", re.MULTILINE)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    if not (args.change / "BENCHMARK.json").is_file():
        parser.error(f"no BENCHMARK.json under {args.change}")
    if args.pairs < 1 or args.seconds <= 0 or args.seed0 < 0:
        parser.error("--pairs must be positive, --seconds positive, --seed0 nonnegative")
    return args


def run_once(tree, workload, seed, seconds):
    """The result object of one benchmark run in ``tree``, or None if it failed.

    Its failed checks are added to the result as ``failed_calls``, a dict
    from each call seed, in order, to the failing instance seeds its checks
    name, in order and without repeats.
    """
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        print(f"run failed in {tree} (seed {seed}, exit {done.returncode}):\n{done.stderr}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    failed = result["failed_calls"] = {}
    for call, instance in _FAILED_CHECK.findall(done.stderr):
        instances = failed.setdefault(int(call), [])
        if instance and int(instance) not in instances:
            instances.append(int(instance))
    return result


def quartiles(values):
    """(first quartile, median, third quartile): ``statistics.quantiles``, exclusive method."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def metric(result, name):
    """The value of an end-to-end metric in a run result, or None if absent."""
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def won(change, parent, better):
    return change > parent if better == "higher" else change < parent


def paired_ratios(parent, change, better):
    """Each pair's ratio, oriented so that above 1 favours the change."""
    return [c / p if better == "higher" else p / c for p, c in zip(parent, change)]


def median_interval(values):
    """(low, high, coverage): order statistics around the median of ``values``.

    The k-th smallest and the k-th largest of n values cover the median of
    their distribution with probability 1 - 2 P(Binomial(n, 1/2) < k),
    whatever the distribution; k is the largest whose coverage is at least
    95%, and 1 when none reaches it (below 6 values).
    """
    n = len(values)
    ordered = sorted(values)

    def coverage(k):
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2**n

    k = 1
    while coverage(k + 1) >= 0.95:
        k += 1
    return ordered[k - 1], ordered[n - k], coverage(k)


def verdict(parent, change, better, bound, more_failed=False):
    """``gain``, ``worse``, ``unresolved`` or ``no worse`` for paired runs of one metric.

    ``more_failed`` is true when the change failed a larger share of its
    operations than the parent; no metric then reads ``gain``.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(parent)
    advance = sign * (quartiles(change)[1] - median)  # positive when the change is better
    wins = sum(won(c, p, better) for p, c in zip(parent, change))
    allowed = bound * abs(median)
    if not more_failed and 10 * wins >= 9 * len(parent) and advance > q3 - q1:
        return "gain"
    if -advance > allowed:
        return "worse"
    if q3 - q1 > allowed and not all(won(c, p, better) for c in change for p in parent):
        return "unresolved"
    return "no worse"


def _failed_calls(result):
    """Each failed call seed of a run, then its failing instance seeds in parentheses."""
    return [f"{call} ({' '.join(map(str, instances))})" if instances else str(call)
            for call, instances in result.get("failed_calls", {}).items()]


def report(pairs, metrics, out):
    """Write the comparison of ``pairs``, a list of (seed, first side, {side: result}).

    ``metrics`` maps each metric name to its ``better`` direction and its
    bound, None where ``BENCHMARK.json`` gives none.
    """
    for seed, first, results in pairs:
        cells = []
        for name in metrics:
            values = [metric(results[side], name) for side in SIDES]
            cells.append(f"{name} {values[0]!r}/{values[1]!r}")
        print(f"seed {seed} ({first} first): " + "; ".join(cells), file=out)
        failed = {side: _failed_calls(results[side]) for side in SIDES}
        if any(failed.values()):
            sides = [f"{side} " + (" ".join(calls) if calls else "none")
                     for side, calls in failed.items()]
            print(f"seed {seed} failed call seeds: " + "; ".join(sides), file=out)
    totals = {side: [sum(results[side][key] for _, _, results in pairs)
                     for key in ("attempted", "failed")] for side in SIDES}
    shares = {side: failed / max(attempted, 1) for side, (attempted, failed) in totals.items()}
    more_failed = shares["change"] > shares["parent"]
    for name, (better, bound) in metrics.items():
        both = [(metric(results["parent"], name), metric(results["change"], name))
                for _, _, results in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            print(f"{name}: not reported", file=out)
            continue
        parent, change = (list(values) for values in zip(*both))
        sides = []
        for side, values in zip(SIDES, (parent, change)):
            q1, median, q3 = quartiles(values)
            sides.append(f"{side} median {median:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]")
        paired = ""
        if all(0.0 < value < math.inf for value in parent + change):
            ratios = paired_ratios(parent, change, better)
            low, high, coverage = median_interval(ratios)
            paired = (f"; paired ratio median {statistics.median(ratios):.6g} "
                      f"[{low:.6g}, {high:.6g}] ({100 * coverage:.1f}%)")
        wins = sum(won(c, p, better) for p, c in both)
        line = (f"{name} ({better} is better): " + ", ".join(sides) + paired
                + f"; change won {wins} of {len(both)}")
        if bound is not None:
            line += "; verdict: " + verdict(parent, change, better, bound, more_failed)
        print(line, file=out)
    for side, (attempted, failed) in totals.items():
        print(f"{side}: attempted {attempted}, failed {failed}", file=out)


def main(argv=None, out=sys.stdout):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: (entry["better"], entry.get("bound"))
               for entry in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    status = 0
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_once(trees[side], args.workload, seed, args.seconds)
                   for side in order}
        if None in results.values():
            status = 1
            break
        pairs.append((seed, order[0], results))
    if pairs:
        report(pairs, metrics, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
