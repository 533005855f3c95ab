"""The benchmark's workloads and the checks on their outputs.

Each workload is one sdred CLI command run closed-loop: a single caller
makes one ``sdred.cli.main`` call at a time and starts the next when the
previous one returns.  The benchmark owns every workload definition and
writes each call's config file from the workload seed, so an edit to
``configs/`` cannot change what is measured.

An operation is one recon run, one verified instance or one sweep cell.  It
fails when its check fails, when it diverges or when it raises.
"""

import contextlib
import csv
import dataclasses
import io
import itertools
import math
import re
import threading
import traceback
from time import perf_counter

import numpy as np

from sdred import cli, solver
from sdred.config import format_config
from sdred.io import read_tensor, read_trace_csv
from sdred.metrics import make_phantom, psnr
from sdred.objectives import AnisotropicTV, DataFidelity
from sdred.operators import make_fourier_subsampling, make_radial_mask
from sdred.priors import ProximalPrior
from sdred.solver import Problem, residual

# The calls of one run take consecutive seeds inside a block of this size,
# so runs with different --seed never share an instance.
SEED_BLOCK = 1_000_000

# The true residual of a recon iterate uses a TV prox run to this tolerance
# (about 1.1k inner iterations from the adjoint image), not the 60-step prox
# the run itself uses, so a sloppier prox cannot make its own residual look
# small.
TIGHT_INNER_ITERS = 20_000
TIGHT_INNER_TOL = 1e-9

# A one-cell re-run of a sweep cell must match the full sweep's trace to
# this relative tolerance.
SERIAL_MATCH_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict  # every config key except seed and out
    seed_step: int  # config-seed step between calls; 0 repeats the first call
    # Calls a traced run makes, once untraced and once traced.  The number
    # is fixed so that per-layer counts repeat exactly for a seed.
    traced_calls: int

    @property
    def ops_per_call(self):
        if self.command == "verify-bounds":
            return self.config["instances"]
        if self.command == "sweep":
            return len(list(_sweep_cells(self.config)))
        return 1

    @property
    def iters_per_op(self):
        """SD-RED outer iterations of one operation (no config sets a tolerance)."""
        return self.config["iters"]

    def call_seed(self, seed, index):
        return seed * SEED_BLOCK + index * self.seed_step

    def config_text(self, call_seed):
        return format_config({**self.config, "seed": call_seed})


def _sweep_cells(config):
    return itertools.product(config["tau_grid"], config["sigma_grid"], config["epsilon_grid"])


# Why each workload is here is written next to it in BENCHMARK.json.  The
# traced call counts keep a traced run near 20 s on a 2-core machine.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="recon-tv",
            command="recon",
            config={
                "kind": "recon-tv", "size": 128, "num_lines": 40, "tv_weight": 0.01,
                "tau": 1.0, "sigma": 1.0, "gamma": 0.3, "iters": 100, "inner_iters": 60,
                "epsilon": 0.1, "mismatch_mode": "fixed", "record_stride": 10,
            },
            # The recon inputs depend on the seed only through the mismatch
            # direction, so every call of a run repeats the same recon.
            seed_step=0,
            traced_calls=3,
        ),
        Workload(
            name="verify-linear",
            command="verify-bounds",
            config={
                "kind": "linear-theory", "instances": 100, "iters": 500, "n_max": 64,
                "lam_min": 0.2, "lam_max": 0.9, "eps_min": 0.0, "eps_max": 0.5,
            },
            seed_step=100,
            traced_calls=2,
        ),
        Workload(
            name="verify-prox",
            command="verify-bounds",
            config={"kind": "prox-prior-theory", "instances": 50, "iters": 2000, "n_max": 64},
            seed_step=50,
            traced_calls=1,
        ),
        Workload(
            name="sweep-linear",
            command="sweep",
            config={
                "kind": "linear-theory", "n": 8, "lam": 0.4, "iters": 4000,
                "tau_grid": [1.0], "sigma_grid": [0.5, 1.0, 2.0],
                "epsilon_grid": [0.0, 0.1, 0.25, 0.5],
            },
            seed_step=1,
            traced_calls=3,
        ),
    )
}


@dataclasses.dataclass
class Call:
    """One ``sdred.cli.main`` call and what the benchmark saw of it."""

    seed: int
    out_dir: object
    code: object  # exit status, or None when the call raised
    stdout: str
    stderr: str
    start: float
    first_solve: float  # first solver.run_sd_red call, or the end if none
    end: float
    # (r0, final distance to x*, first and final ||G||^2) of each solve the CLI ran
    solves: list = dataclasses.field(default_factory=list)

    @property
    def wall_s(self):
        return self.end - self.start

    @property
    def setup_s(self):
        return self.first_solve - self.start

    @property
    def work_s(self):
        return self.end - self.first_solve


@dataclasses.dataclass
class Verdict:
    attempted: int
    failed: int
    psnr_db: list  # final-iterate PSNR per checked operation
    g_ratio_db: list  # 10 log10(||G(x_0)||^2 / ||G(x_T)||^2), exact or tight prior
    problems: list


class _SolveProbe:
    """Marks the first solver.run_sd_red call and notes the end of each CLI solve.

    Only four numbers per solve are kept, not the trace, so that the probe
    does not add to the peak memory it measures.
    """

    def __init__(self):
        self.first = None
        self.solves = []
        self._lock = threading.Lock()

    def _mark(self):
        with self._lock:
            if self.first is None:
                self.first = perf_counter()

    @contextlib.contextmanager
    def installed(self):
        solver_run, cli_run = solver.run_sd_red, cli.run_sd_red

        def solver_probe(*args, **kwargs):
            self._mark()
            return solver_run(*args, **kwargs)

        def cli_probe(problem, config):
            self._mark()
            trace = cli_run(problem, config)
            self.solves.append((trace.r0, trace.dist_to_ref[-1], trace.g_norm_sq[0],
                                trace.g_norm_sq[-1]))
            return trace

        solver.run_sd_red, cli.run_sd_red = solver_probe, cli_probe
        try:
            yield self
        finally:
            solver.run_sd_red, cli.run_sd_red = solver_run, cli_run


def run_call(workload, call_seed, out_dir, tracer=None):
    """Write the call's config, run it through ``sdred.cli.main`` and time it."""
    out_dir.mkdir(parents=True)
    config_path = out_dir / "bench.cfg"
    config_path.write_text(workload.config_text(call_seed))
    argv = [workload.command, "--config", str(config_path), "--out", str(out_dir / "out")]
    probe = _SolveProbe()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(probe.installed())
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails every operation of the call
            code = None
            traceback.print_exc()
        end = perf_counter()
    return Call(
        seed=call_seed, out_dir=out_dir, code=code, stdout=stdout.getvalue(),
        stderr=stderr.getvalue(), start=start,
        first_solve=end if probe.first is None else probe.first, end=end, solves=probe.solves,
    )


def _norm_sq(x):
    return float(np.sum(x * x))


def _reduction_db(before, after):
    """How far a squared norm fell, in dB; reported so that higher is better.

    Over random instances the plain ratio spans decades; in dB its median
    over a run is steady from seed to seed.
    """
    return math.inf if after == 0 else 10.0 * math.log10(before / after)


def _reference_accuracy(solves):
    """Accuracy of each final iterate against the instance's exact fixed point x*.

    The PSNR takes the initial error ||x_0 - x*|| as the peak signal, since
    x* itself can be zero on the l1 family: 10 log10(||x_0 - x*||^2 /
    ||x_T - x*||^2).  The residual ratio comes from the trace, whose prior is
    exact on these families.  An instance whose x_0 is already x* (y = 0 on
    the l1 family) has no initial error and gives no sample.
    """
    psnr_db, g_ratio_db = [], []
    for r0, dist, g_first, g_last in solves:
        if r0 > 0:
            psnr_db.append(_reduction_db(r0 * r0, dist * dist))
        if g_first > 0:
            g_ratio_db.append(_reduction_db(g_first, g_last))
    return psnr_db, g_ratio_db


class ReconCheck:
    """Final iterate finite, above the adjoint-image PSNR and equal in every call.

    The true residual ratio is evaluated once, since every call of a run
    must return the same final image.
    """

    def __init__(self, workload):
        cfg = workload.config
        size = cfg["size"]
        self.phantom = make_phantom(size)
        self.peak = float(self.phantom.max())
        op = make_fourier_subsampling(make_radial_mask(size, size, cfg["num_lines"]))
        fid = DataFidelity(op, op.forward(self.phantom))
        x0 = fid.adjoint_image()
        self.adjoint_psnr = psnr(self.phantom, x0, peak=self.peak)
        tight = AnisotropicTV(cfg["tv_weight"], TIGHT_INNER_ITERS, TIGHT_INNER_TOL)
        self.problem = Problem(fidelity=fid, prior=ProximalPrior(tight),
                               tau=cfg["tau"], sigma=cfg["sigma"])
        self.g0 = _norm_sq(residual(self.problem, x0))
        self.first_final = None
        self.ratio_db = None

    def __call__(self, call):
        if call.code != 0:
            return Verdict(1, 1, [], [], [f"exit status {call.code}: {call.stderr[-500:]}"])
        final = read_tensor(call.out_dir / "out" / "final.mrt")
        final_psnr = psnr(self.phantom, final, peak=self.peak)
        problems = []
        if not np.all(np.isfinite(final)):
            problems.append("final iterate is not finite")
        if not final_psnr > self.adjoint_psnr:
            problems.append(f"final PSNR {final_psnr} not above adjoint {self.adjoint_psnr}")
        if self.first_final is None:
            self.first_final = final
            self.ratio_db = _reduction_db(self.g0, _norm_sq(residual(self.problem, final)))
        elif not np.array_equal(final, self.first_final):
            problems.append("final image differs from the first call's with the same config")
        return Verdict(1, int(bool(problems)), [final_psnr], [self.ratio_db], problems)


_VERDICT_LINE = re.compile(r"seed (\d+): (pass|FAIL) ")


class VerifyCheck:
    """Exit status 0 and a passing report for every instance of the call."""

    def __init__(self, workload):
        self.instances = workload.config["instances"]

    def __call__(self, call):
        passed = {}
        for line in call.stdout.splitlines():
            match = _VERDICT_LINE.match(line)
            if match:
                seed = int(match.group(1))
                passed[seed] = passed.get(seed, True) and match.group(2) == "pass"
        expected = range(call.seed, call.seed + self.instances)
        failing = [s for s in expected if not passed.get(s, False)]
        problems = [f"instance seed {s} did not pass" for s in failing]
        failed = len(failing)
        if call.code != 0:
            problems.append(f"exit status {call.code}: {call.stderr[-500:]}")
            failed = max(failed, 1)
        psnr_db, g_ratio_db = _reference_accuracy(call.solves)
        return Verdict(self.instances, failed, psnr_db, g_ratio_db, problems)


class SweepCheck:
    """A summary row per cell, and one cell re-run alone matching its trace file.

    The re-run is a one-cell sweep through the CLI, so it runs serially and
    depends on no helper that a refactor of the program might rename.
    """

    def __init__(self, workload):
        self.workload = workload
        self.cells = list(_sweep_cells(workload.config))

    def _serial_mismatch(self, call):
        index = call.seed % len(self.cells)
        tau, sigma, eps = self.cells[index]
        one_cell = {**self.workload.config, "tau_grid": [tau], "sigma_grid": [sigma],
                    "epsilon_grid": [eps]}
        serial = run_call(dataclasses.replace(self.workload, config=one_cell), call.seed,
                          call.out_dir / "serial")
        if serial.code != 0:
            return f"cell {index}: serial re-run exit status {serial.code}"
        (pooled,) = (call.out_dir / "out").glob(f"trace_{index:03d}_*.csv")
        (alone,) = (serial.out_dir / "out").glob("trace_000_*.csv")
        got, want = read_trace_csv(pooled), read_trace_csv(alone)
        for column, values in want.items():
            for a, b in itertools.zip_longest(got[column], values):
                if a is None or b is None:
                    close = a is b
                else:
                    close = abs(a - b) <= SERIAL_MATCH_TOL * max(1.0, abs(b))
                if not close:
                    return f"cell {index}: {column} {a!r} differs from the serial {b!r}"
        return None

    def __call__(self, call):
        problems = []
        if call.code != 0:
            problems.append(f"exit status {call.code}: {call.stderr[-500:]}")
            return Verdict(len(self.cells), len(self.cells), [], [], problems)
        with open(call.out_dir / "out" / "summary.csv", newline="") as fh:
            rows = {tuple(float(v) for v in row[:3]) for row in list(csv.reader(fh))[1:]}
        missing = [cell for cell in self.cells if cell not in rows]
        problems += [f"no summary row for cell {cell}" for cell in missing]
        mismatch = self._serial_mismatch(call)
        if mismatch:
            problems.append(mismatch)
        failed = min(len(self.cells), len(missing) + bool(mismatch))
        psnr_db, g_ratio_db = _reference_accuracy(call.solves)
        return Verdict(len(self.cells), failed, psnr_db, g_ratio_db, problems)


CHECKS = {"recon": ReconCheck, "verify-bounds": VerifyCheck, "sweep": SweepCheck}


def check_call(check, workload, call):
    """Run a workload check; a check that raises fails every operation of the call."""
    try:
        return check(call)
    except Exception:
        n = workload.ops_per_call
        return Verdict(n, n, [], [], [traceback.format_exc()])
