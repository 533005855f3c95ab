"""run_sd_red and reference_zero against plain reference loops built from ``solver.residual``."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdred import solver
from sdred.metrics import psnr
from sdred.objectives import AnisotropicTV, DataFidelity, L1Norm
from sdred.operators import (
    MatrixOperator,
    gaussian_coil_maps,
    make_coil_operator,
    make_fourier_subsampling,
    make_radial_mask,
)
from sdred.priors import GaussianMapPrior, LinearPrior, ProximalPrior, perturb_prior
from sdred.solver import (
    DivergenceError,
    IterateTrace,
    Problem,
    ReferenceSolveError,
    SolverConfig,
    default_gamma,
    reference_zero,
    residual,
    run_sd_red,
)

from trace_helpers import record

TOL = 1e-12


def build(family, mismatch, seed, with_objective):
    """A random problem of one family and the objective to record, if any.

    Families: "linear" (a dense matrix with an affine contraction prior),
    "l1" (the same matrices with the l1 prox), "tv" (8x8 Fourier sampling
    with the TV prox), "gaussian" (a dense matrix with a diagonal Gaussian
    MAP prior) and "gaussian-2d" (that prior on 8x8 Fourier sampling).
    ``mismatch`` is None, "fixed" or "hashed" (wrapping the true prior), or
    "separate" (a fixed-mode wrapper around an equal but distinct prior).
    """
    rng = np.random.default_rng(seed)
    if family in ("tv", "gaussian-2d"):
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
    elif family.startswith("gaussian"):
        mean = rng.standard_normal(op.input_shape)
        variances = rng.uniform(0.2, 2.0, op.input_shape)
        make_prior = lambda: GaussianMapPrior(mean, variances)
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
    use_hat = problem.mismatched is not None
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
            record(trace, k, *row)
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
    record(trace, stopped_at, *row)
    trace.final = x
    trace.stopped_at = stopped_at
    return trace


def close(a, b):
    if a is None or b is None:
        return a is b
    # Equal infinities first: their difference is NaN.
    return a == b or abs(a - b) <= TOL * max(1.0, abs(b))


def outcome(run, problem, config):
    """The trace of one run, or the DivergenceError it raised."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return run(problem, config)
        except DivergenceError as exc:
            return exc


def run_both(problem, config):
    """(trace or DivergenceError) from run_sd_red and from the reference loop."""
    return [outcome(run, problem, config) for run in (run_sd_red, reference_run)]


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


# Floats per run_sd_red block: at n = 2..8 and 8x8 these give blocks of 1 to
# 25 rows, which split the runs below, and the default gives one block.
BLOCK_SIZES = [1, 8, 17, 50, solver.BLOCK_FLOATS]


@settings(max_examples=60 * len(BLOCK_SIZES), deadline=None)
@given(
    family=st.sampled_from(["linear", "l1", "tv"]),
    mismatch=st.sampled_from([None, "fixed", "hashed", "separate"]),
    seed=st.integers(0, 2**32 - 1),
    with_objective=st.booleans(),
    iters=st.integers(1, 40),
    stride=st.integers(1, 7),
    tol=st.sampled_from([0.0, 1e-2, 1e-4]),
    block_floats=st.sampled_from(BLOCK_SIZES),
)
def test_run_sd_red_matches_reference_loop(family, mismatch, seed, with_objective, iters,
                                           stride, tol, block_floats):
    problem, objective, truth = build(family, mismatch, seed, with_objective)
    config = make_config(problem, objective, truth, iters, stride, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "BLOCK_FLOATS", block_floats)
        assert_same(*run_both(problem, config))


@pytest.mark.parametrize("mismatch", [None, "fixed"])
def test_run_started_at_ground_truth_matches_reference_loop(mismatch):
    """The first record's PSNR is inf on both sides, and equal infinities match."""
    problem, objective, truth = build("tv", mismatch, seed=5, with_objective=True)
    config = make_config(problem, objective, truth, iters=6, stride=2, tol=0.0)
    config.x0 = truth
    got, want = run_both(problem, config)
    assert got.psnr[0] == want.psnr[0] == np.inf
    assert_same(got, want)


def count_steps(problem, monkeypatch):
    """Counts, from now on, of the precomposed steps of the matrix-affine path
    ("affine") and of the true prior's evaluations ("prior"), which the
    generic path makes once per step and once for the final record."""
    calls = {"affine": 0, "prior": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(solver, "_affine_step", counting("affine", solver._affine_step))
    monkeypatch.setattr(problem.prior, "apply", counting("prior", problem.prior.apply))
    return calls


def takes_affine_path(family, mismatch):
    """A dense matrix, an affine prior and no hashed mismatch."""
    return family in ("linear", "gaussian") and mismatch != "hashed"


def step_counts(family, mismatch, steps, final_record):
    """The expected counts of :func:`count_steps` after ``steps`` steps; the
    generic path evaluates the prior once more when ``final_record``."""
    if takes_affine_path(family, mismatch):
        return {"affine": steps, "prior": 0}
    return {"affine": 0, "prior": steps + final_record}


@pytest.mark.parametrize("family", ["linear", "l1", "tv"])
@pytest.mark.parametrize("mismatch", ["fixed", "hashed"])
def test_divergence_index_matches_reference_loop(family, mismatch, monkeypatch):
    problem, objective, truth = build(family, mismatch, seed=11, with_objective=True)
    config = make_config(problem, objective, truth, iters=2000, stride=3, tol=0.0,
                         gamma_scale=1e4)
    want = outcome(reference_run, problem, config)
    assert isinstance(want, DivergenceError)
    calls = count_steps(problem, monkeypatch)
    for block_floats in BLOCK_SIZES:
        monkeypatch.setattr(solver, "BLOCK_FLOATS", block_floats)
        calls.update(affine=0, prior=0)
        got = outcome(run_sd_red, problem, config)
        assert_same(got, want)
        # One step each: no step runs past the first non-finite iterate.
        assert calls == step_counts(family, mismatch, got.iteration, False), block_floats


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["after", "on", "before"])
@pytest.mark.parametrize("ending", ["tolerance", "divergence"])
@pytest.mark.parametrize("family", ["linear", "l1", "tv"])
def test_run_ends_beside_a_block_edge(family, ending, offset, monkeypatch):
    """Blocks of d - 1, d and d + 1 rows put iterate d, where the run stops or
    diverges, just after, on and just before a block edge.  A stopping run
    measures distances to its start, so the last iterate sets r_max."""
    problem, objective, truth = build(family, "fixed", seed=11, with_objective=True)
    if ending == "tolerance":
        config = make_config(problem, objective, truth, iters=2000, stride=3, tol=1e-3)
        config.x_ref = problem.fidelity.adjoint_image()
    else:
        config = make_config(problem, objective, truth, iters=2000, stride=3, tol=0.0,
                             gamma_scale=1e4)
    want = outcome(reference_run, problem, config)
    if ending == "tolerance":
        d = want.stopped_at
        assert d < config.max_iters and want.r_max == want.dist_to_ref[-1] > want.r0
    else:
        d = want.iteration
    monkeypatch.setattr(solver, "BLOCK_FLOATS", (d + offset) * truth.size)
    calls = count_steps(problem, monkeypatch)
    assert_same(outcome(run_sd_red, problem, config), want)
    # One step each, and no step after a stop; the generic path evaluates
    # the prior once more for the final record of a stop.
    assert calls == step_counts(family, "fixed", d, ending == "tolerance")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family, mismatch", [
    ("linear", None), ("linear", "fixed"), ("linear", "separate"),
    ("gaussian", None), ("gaussian", "fixed"), ("gaussian", "separate"),
])
def test_matrix_affine_problems_take_the_affine_path(family, mismatch, seed, monkeypatch):
    problem, objective, truth = build(family, mismatch, seed, with_objective=True)
    config = make_config(problem, objective, truth, iters=30, stride=4, tol=0.0)
    want = outcome(reference_run, problem, config)
    calls = count_steps(problem, monkeypatch)
    assert_same(outcome(run_sd_red, problem, config), want)
    assert calls == {"affine": 30, "prior": 0}


@pytest.mark.parametrize("family, mismatch", [
    ("linear", "hashed"), ("gaussian", "hashed"), ("l1", None), ("l1", "fixed"),
    ("tv", "fixed"), ("gaussian-2d", None), ("gaussian-2d", "fixed"),
])
def test_other_problems_take_the_generic_path(family, mismatch, monkeypatch):
    problem, objective, truth = build(family, mismatch, seed=4, with_objective=True)
    config = make_config(problem, objective, truth, iters=30, stride=4, tol=0.0)
    want = outcome(reference_run, problem, config)
    calls = count_steps(problem, monkeypatch)
    assert_same(outcome(run_sd_red, problem, config), want)
    assert calls == {"affine": 0, "prior": 31}


def test_large_images_get_one_row_blocks(monkeypatch):
    """A 128x128 run keeps one iterate row per block plus the next iterate."""
    rng = np.random.default_rng(3)
    op = make_fourier_subsampling(make_radial_mask(128, 128, 8))
    truth = rng.standard_normal(op.input_shape)
    fid = DataFidelity(op, op.forward(truth))
    problem = Problem(fidelity=fid, prior=ProximalPrior(AnisotropicTV(0.1, inner_iters=2)),
                      tau=1.0, sigma=1.0)
    problem.mismatched = perturb_prior(problem.prior, 0.1)
    shapes = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape)))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    trace = run_sd_red(problem, make_config(problem, None, truth, 3, 1, 0.0))
    assert trace.iters == [0, 1, 2, 3]
    assert [s for s in shapes if s[1:] == (128, 128)] == [(2, 128, 128)] * 3


def plain_zero(problem, gamma, tol=1e-12, max_iters=200_000):
    """Zer(G) by the plain SD-RED step x - gamma*G(x) with the true prior.

    Stops once the relative change ||x_new - x|| / max(||x||, 1) drops below
    ``tol``, as a tolerance-stopped SD-RED run does.
    """
    x = problem.fidelity.adjoint_image()
    for _ in range(max_iters):
        x_new = x - gamma * residual(problem, x)
        if np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1.0) < tol:
            return x_new
        x = x_new
    raise AssertionError("the plain reference loop did not converge")


def zero_problem(family, seed):
    """A random problem with a unique zero of G: l1 with a tall matrix, or 8x8 TV
    seen through two coils, whose stacked operator has full column rank."""
    rng = np.random.default_rng(seed)
    if family == "l1":
        n = int(rng.integers(2, 17))
        m = n + int(rng.integers(4, 9))
        op = MatrixOperator(rng.standard_normal((m, n)) / np.sqrt(m))
        reg = L1Norm(float(rng.uniform(0.05, 0.3)))
    else:
        op = make_coil_operator(make_radial_mask(8, 8, 6), gaussian_coil_maps((8, 8), 2))
        reg = AnisotropicTV(float(rng.uniform(0.05, 0.3)), inner_iters=int(rng.integers(5, 16)))
    truth = rng.standard_normal(op.input_shape) * (rng.random(op.input_shape) < 0.5)
    fid = DataFidelity(op, op.forward(truth) + 0.1 * rng.standard_normal(op.output_shape))
    sigma = float(rng.uniform(0.7, 1.5))
    tau = 1.0 / sigma**2 if rng.random() < 0.5 else float(rng.uniform(0.5, 2.0))
    return Problem(fidelity=fid, prior=ProximalPrior(reg), tau=tau, sigma=sigma)


def check_reference_zero(family, seed):
    problem = zero_problem(family, seed)
    gamma = default_gamma(1.0, problem.fidelity.lipschitz, problem.tau)
    want = plain_zero(problem, gamma)
    got = reference_zero(problem)
    assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
    assert np.array_equal(reference_zero(problem), got)
    with pytest.raises(ReferenceSolveError):
        reference_zero(problem, max_iters=1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=585)  # n = 3: unguarded Anderson steps oscillate here
@example(seed=1340)  # n = 2
def test_reference_zero_matches_plain_iteration_l1(seed):
    check_reference_zero("l1", seed)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reference_zero_matches_plain_iteration_tv(seed):
    check_reference_zero("tv", seed)
