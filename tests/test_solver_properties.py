"""run_sd_red against a plain reference loop built from ``solver.residual``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdred.metrics import psnr
from sdred.objectives import AnisotropicTV, DataFidelity, L1Norm
from sdred.operators import MatrixOperator, make_fourier_subsampling, make_radial_mask
from sdred.priors import LinearPrior, ProximalPrior, perturb_prior
from sdred.solver import (
    DivergenceError,
    IterateTrace,
    Problem,
    SolverConfig,
    default_gamma,
    residual,
    run_sd_red,
)

TOL = 1e-12


def build(family, mismatch, seed, with_objective):
    """A random problem of one family and the objective to record, if any.

    ``mismatch`` is None, "fixed" or "hashed" (wrapping the true prior), or
    "separate" (a fixed-mode wrapper around an equal but distinct prior).
    """
    rng = np.random.default_rng(seed)
    if family == "tv":
        op = make_fourier_subsampling(make_radial_mask(8, 8, 3))
    else:
        n = int(rng.integers(2, 9))
        m = n + int(rng.integers(0, 4))
        op = MatrixOperator(rng.standard_normal((m, n)) / np.sqrt(m))
    truth = rng.standard_normal(op.input_shape)
    fid = DataFidelity(op, op.forward(truth) + 0.1 * rng.standard_normal(op.output_shape))
    weight = float(rng.uniform(0.05, 0.3))
    reg = AnisotropicTV(weight, inner_iters=10) if family == "tv" else L1Norm(weight)
    if family == "linear":
        n = op.input_shape[0]
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        lam = float(rng.uniform(0.2, 0.9))
        matrix, offset = lam * q * np.sign(np.diag(r)), 0.1 * rng.standard_normal(n)
        make_prior = lambda: LinearPrior(matrix, offset)
    else:
        make_prior = lambda: ProximalPrior(reg)
    prior = make_prior()
    mismatched = None
    if mismatch == "separate":
        mismatched = perturb_prior(make_prior(), float(rng.uniform(0.0, 0.5)), direction_seed=seed)
    elif mismatch is not None:
        mismatched = perturb_prior(prior, float(rng.uniform(0.0, 0.5)), mode=mismatch,
                                   direction_seed=seed)
    problem = Problem(fidelity=fid, prior=prior, tau=float(rng.uniform(0.5, 2.0)),
                      sigma=float(rng.uniform(0.5, 2.0)), mismatched=mismatched)
    return problem, (reg if with_objective else None), truth


def reference_run(problem, config):
    """The SD-RED loop as the run_sd_red docstring states it, one residual at a time."""
    use_hat = config.use_mismatched and problem.mismatched is not None
    x = config.x0 if config.x0 is not None else problem.fidelity.adjoint_image()
    x = np.asarray(x, dtype=float).copy()
    trace = IterateTrace()

    def diagnostics(xk):
        g = residual(problem, xk)
        g_hat = None
        if use_hat and problem.mismatched.mode == "hashed":
            # A hashed direction depends on every bit of xk, so the reference
            # takes the same route as the solver to stay bit-identical.
            g_hat = g - problem.tau * problem.mismatched.offset(xk, problem.sigma)
        elif use_hat:
            g_hat = residual(problem, xk, use_mismatched=True)
        obj = None
        if config.objective is not None:
            obj = problem.fidelity.value(xk) + config.objective.value(xk)
        dist = None if config.x_ref is None else float(np.linalg.norm(xk - config.x_ref))
        quality = None
        if config.ground_truth is not None:
            quality = psnr(config.ground_truth, xk, peak=float(np.max(config.ground_truth)))
        g_sq = float(np.sum(np.abs(g) ** 2))
        g_hat_sq = None if g_hat is None else float(np.sum(np.abs(g_hat) ** 2))
        return (g_hat if use_hat else g), (g_sq, g_hat_sq, obj, dist, quality)

    def note_distance(dist):
        if dist is not None:
            trace.r_max = dist if trace.r_max is None else max(trace.r_max, dist)

    stopped_at = config.max_iters
    for k in range(config.max_iters):
        step, row = diagnostics(x)
        if k == 0:
            trace.r0 = row[3]
        note_distance(row[3])
        if k % config.record_stride == 0:
            trace.record(k, *row)
        x_new = x - config.gamma * step
        if not np.all(np.isfinite(x_new)):
            raise DivergenceError(k + 1)
        done = (config.tol > 0.0
                and np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1.0) < config.tol)
        x = x_new
        if done:
            stopped_at = k + 1
            break
    _, row = diagnostics(x)
    note_distance(row[3])
    trace.record(stopped_at, *row)
    trace.final = x
    trace.stopped_at = stopped_at
    return trace


def close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL * max(1.0, abs(b))


def run_both(problem, config):
    """(trace or DivergenceError) from run_sd_red and from the reference loop."""
    outcomes = []
    for run in (run_sd_red, reference_run):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                outcomes.append(run(problem, config))
            except DivergenceError as exc:
                outcomes.append(exc)
    return outcomes


def assert_same(got, want):
    if isinstance(want, DivergenceError):
        assert isinstance(got, DivergenceError)
        assert got.iteration == want.iteration
        return
    assert not isinstance(got, DivergenceError), f"diverged at {got.iteration}"
    assert got.iters == want.iters
    assert got.stopped_at == want.stopped_at
    for column in ("g_norm_sq", "g_hat_norm_sq", "objective", "dist_to_ref", "psnr"):
        for a, b in zip(getattr(got, column), getattr(want, column), strict=True):
            assert close(a, b), f"{column}: {a!r} vs {b!r}"
    assert close(got.r0, want.r0)
    assert close(got.r_max, want.r_max)
    assert np.allclose(got.final, want.final, rtol=TOL, atol=TOL)


def make_config(problem, objective, truth, iters, stride, tol, gamma_scale=1.0):
    lam = problem.prior.lipschitz(problem.sigma)
    gamma = gamma_scale * default_gamma(lam, problem.fidelity.lipschitz, problem.tau)
    return SolverConfig(gamma=gamma, max_iters=iters, tol=tol, x_ref=truth,
                        ground_truth=truth if truth.ndim == 2 else None,
                        objective=objective, record_stride=stride)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["linear", "l1", "tv"]),
    mismatch=st.sampled_from([None, "fixed", "hashed", "separate"]),
    seed=st.integers(0, 2**32 - 1),
    with_objective=st.booleans(),
    iters=st.integers(1, 40),
    stride=st.integers(1, 7),
    tol=st.sampled_from([0.0, 1e-2, 1e-4]),
)
def test_run_sd_red_matches_reference_loop(family, mismatch, seed, with_objective, iters,
                                           stride, tol):
    problem, objective, truth = build(family, mismatch, seed, with_objective)
    config = make_config(problem, objective, truth, iters, stride, tol)
    assert_same(*run_both(problem, config))


@pytest.mark.parametrize("family", ["linear", "l1", "tv"])
@pytest.mark.parametrize("mismatch", ["fixed", "hashed"])
def test_divergence_index_matches_reference_loop(family, mismatch):
    problem, objective, truth = build(family, mismatch, seed=11, with_objective=True)
    config = make_config(problem, objective, truth, iters=2000, stride=3, tol=0.0,
                         gamma_scale=1e4)
    got, want = run_both(problem, config)
    assert isinstance(want, DivergenceError)
    assert_same(got, want)
