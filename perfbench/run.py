"""Benchmark for sdred: end-to-end throughput and accuracy, and per-layer time.

Run from the repository root:

    python3 perfbench/run.py --workload recon-tv --seed 1 --seconds 15 --trace 0

Each workload (see ``workloads.py`` and ``BENCHMARK.json``) runs sdred CLI
calls closed-loop in this process until ``--seconds`` of call time is
spent, checks every output, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Every end-to-end metric is reported on every workload:

* ``setup_s``: process start to the first ``solver.run_sd_red`` call.  It
  is the median wall time of a fresh interpreter importing ``sdred.cli``,
  plus the median over the run's calls of the time from entering
  ``cli.main`` to its first solve.
* ``recon_iters_per_s``: SD-RED outer iterations per second after set-up.
  On recon-tv these are the recon iterations; on the others, the
  iterations of the instance and cell runs.
* ``instances_per_s`` and ``cells_per_s``: operations (recon runs,
  verified instances, sweep cells) per second after set-up.  They count the
  same operations under the names used for the verify and sweep families.
* ``peak_rss_mb``: peak resident memory of this process.
* ``final_psnr_db``: median PSNR of the final iterates, against the phantom
  on recon-tv and against each instance's exact fixed point elsewhere.
* ``true_g_ratio``: median of ||G(x_T)||^2 / ||G(x_0)||^2 with the true
  prior, in dB as a reduction (10 log10 of the inverse), so higher is
  better.  On recon-tv, G uses a tight-tolerance TV prox evaluated outside
  the timed region; the other families' priors are exact.

``--trace 1`` reports the per-layer metrics of ``spans.LAYERS``.  After one
warm-up call it makes the workload's fixed number of traced calls, first
untraced and then again with spans on, so per-layer counts repeat exactly
for a seed and ``bench.trace_overhead_frac`` compares equal work.
``--seconds`` does not apply to it.

Every run writes its full record, with the environment, to
``perfbench/out/BENCH_<workload>_trace<0|1>.json``; traced runs also write
their spans to ``perfbench/out/spans_<workload>.csv``.
"""

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Fresh interpreters timed importing sdred.cli in a run; the median is taken.
IMPORT_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "recon_iters_per_s": "1/s",
    "instances_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_psnr_db": "dB",
    "true_g_ratio": "dB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root):
    """The checked-out commit read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_build(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    keys = ("name", "version", "openblas configuration")
    return " ".join(str(blas.get(key, "")) for key in keys).strip()


def environment(traced):
    import numpy as np
    import scipy

    from sdred import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(np),
        "use_numba": bool(_kernels.USE_NUMBA),
        "kernel_path": "numba" if _kernels.USE_NUMBA else "numpy",
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "tracing": bool(traced),
    }


def time_import():
    """Wall time of a fresh interpreter that imports ``sdred.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import sdred.cli"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - start


def run_calls(workload, check, work_dir, seeds, budget_s=math.inf, tracer=None,
              import_times=None):
    """Run one call per seed, closed-loop, until ``budget_s`` of call time is spent.

    With ``import_times``, one import is timed after each call until there
    are IMPORT_SAMPLES, so the samples spread over the run.
    """
    from workloads import check_call, run_call

    results = []
    spent = 0.0
    for index, seed in enumerate(seeds):
        if spent >= budget_s:
            break
        call = run_call(workload, seed, work_dir / f"call-{index}-{seed}", tracer)
        verdict = check_call(check, workload, call)
        shutil.rmtree(call.out_dir)
        spent += call.wall_s
        results.append((call, verdict))
        if import_times is not None and len(import_times) < IMPORT_SAMPLES:
            import_times.append(time_import())
    return results


def end_to_end_metrics(workload, results, import_s):
    calls = [call for call, _ in results]
    work_s = sum(call.work_s for call in calls)
    ops = sum(verdict.attempted for _, verdict in results)
    psnr_db = [v for _, verdict in results for v in verdict.psnr_db]
    g_ratio_db = [v for _, verdict in results for v in verdict.g_ratio_db]
    values = {
        "setup_s": import_s + statistics.median(call.setup_s for call in calls),
        "recon_iters_per_s": ops * workload.iters_per_op / work_s,
        "instances_per_s": ops / work_s,
        "cells_per_s": ops / work_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_psnr_db": statistics.median(psnr_db) if psnr_db else float("nan"),
        "true_g_ratio": statistics.median(g_ratio_db) if g_ratio_db else float("nan"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(workload, tracer, plain, traced):
    from spans import LAYERS, TV_PROX_BYTES_PER_PIXEL_ITER

    totals = tracer.totals()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, *_ in LAYERS:
        put(f"{name}.calls", totals[name]["calls"], "count")
        put(f"{name}.self_s", totals[name]["self_s"], "s")
    kernel = totals["kernels.tv_prox_dual"]
    put("kernels.tv_prox_dual.inner_iters", kernel["inner_iters"], "count")
    put("kernels.tv_prox_dual.capped_frac",
        kernel["capped"] / kernel["calls"] if kernel["calls"] else 0.0, "ratio")
    put("kernels.tv_prox_dual.computed_bytes",
        kernel["pixel_iters"] * TV_PROX_BYTES_PER_PIXEL_ITER, "B")
    put("kernels.tv_prox_dual.ns_per_pixel_iter",
        1e9 * kernel["self_s"] / kernel["pixel_iters"] if kernel["pixel_iters"] else 0.0, "ns")
    for name in ("io.write_trace_csv", "io.write_bound_report_csv"):
        put(f"{name}.bytes", totals[name]["bytes"], "B")
    traced_wall = sum(call.wall_s for call, _ in traced)
    plain_wall = sum(call.wall_s for call, _ in plain)
    busy = totals["solver.run_sd_red"]["total_s"] / traced_wall
    put("cli.sweep.busy_over_wall", busy if workload.command == "sweep" else 0.0, "ratio")
    put("bench.untraced_wall_s", plain_wall, "s")
    put("bench.traced_wall_s", traced_wall, "s")
    put("bench.trace_overhead_frac", traced_wall / plain_wall - 1.0, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sdred" / "__init__.py").is_file():
        print(f"error: no sdred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    check = workloads.CHECKS[workload.command](workload)

    try:
        if args.trace:
            seeds = [workload.call_seed(args.seed, i) for i in range(workload.traced_calls)]
            # The first call of a process is slower on recon-tv; a warm-up
            # call keeps that out of the untraced/traced comparison.
            warm_up = run_calls(workload, check, work_dir, seeds[:1])
            plain = run_calls(workload, check, work_dir, seeds)
            tracer = Tracer()
            traced = run_calls(workload, check, work_dir, seeds, tracer=tracer)
            results = warm_up + plain + traced
            metrics = per_layer_metrics(workload, tracer, plain, traced)
        else:
            seeds = (workload.call_seed(args.seed, i) for i in itertools.count())
            import_times = []
            results = run_calls(workload, check, work_dir, seeds, budget_s=args.seconds,
                                import_times=import_times)
            import_times += [time_import() for _ in range(IMPORT_SAMPLES - len(import_times))]
            metrics = end_to_end_metrics(workload, results, statistics.median(import_times))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(verdict.attempted for _, verdict in results)
    failed = sum(verdict.failed for _, verdict in results)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.trace),
        "calls": [
            {"seed": call.seed, "exit": call.code, "wall_s": call.wall_s,
             "setup_s": call.setup_s, "attempted": verdict.attempted,
             "failed": verdict.failed, "problems": verdict.problems}
            for call, verdict in results
        ],
        "result": result,
    }
    if args.trace:
        record["missing_layers"] = tracer.missing
        record["unreadable_counters"] = sorted(tracer.unreadable)
    record_path = OUT / f"BENCH_{args.workload}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"spans_{args.workload}.csv")
    for call, verdict in results:
        for problem in verdict.problems:
            print(f"check failed (call seed {call.seed}): {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      "record": os.path.relpath(record_path, ROOT)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
