"""run_sd_red and reference_zero against plain reference loops built from ``solver.residual``."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdred import solver
from sdred.families import make_prox_l1_instance, prox_gradient_reference
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
from sdred.theory import verify_theorem4_trace

from trace_helpers import record

TOL = 1e-12


def build(family, mismatch, seed, with_objective):
    """A random problem of one family and the objective to record, if any.

    Families: "linear" (a dense matrix with an affine contraction prior),
    "l1" (the same matrices with the l1 prox), "l1-wide" (the l1 prox with
    fewer measurements than unknowns), "tv" (8x8 Fourier sampling with the
    TV prox), "gaussian" (a dense matrix with a diagonal Gaussian MAP prior)
    and "gaussian-2d" (that prior on 8x8 Fourier sampling).
    ``mismatch`` is None, "fixed" (an offset around the true prior),
    "separate" (an offset around an equal but distinct prior) or "shifted"
    (the family's prior with its parameter scaled by 1 - e: the l1 or TV
    weight, the linear lambda or the Gaussian variances).  Every mismatch
    draws e, the epsilon of the offsets, at the same place in the stream.
    """
    rng = np.random.default_rng(seed)
    if family in ("tv", "gaussian-2d"):
        op = make_fourier_subsampling(make_radial_mask(8, 8, 3))
    else:
        n = int(rng.integers(2, 9))
        m = n + int(rng.integers(0, 4))
        if family == "l1-wide":
            m, n = n - 1, m
        op = MatrixOperator(rng.standard_normal((m, n)) / np.sqrt(m))
    truth = rng.standard_normal(op.input_shape)
    fid = DataFidelity(op, op.forward(truth) + 0.1 * rng.standard_normal(op.output_shape))
    weight = float(rng.uniform(0.05, 0.3))
    if family == "linear":
        n = op.input_shape[0]
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        lam = float(rng.uniform(0.2, 0.9))
        matrix, offset = lam * q * np.sign(np.diag(r)), 0.1 * rng.standard_normal(n)
        make_prior = lambda scale=1.0: LinearPrior(scale * matrix, offset)
    elif family.startswith("gaussian"):
        mean = rng.standard_normal(op.input_shape)
        variances = rng.uniform(0.2, 2.0, op.input_shape)
        make_prior = lambda scale=1.0: GaussianMapPrior(mean, scale * variances)
    elif family == "tv":
        make_prior = lambda scale=1.0: ProximalPrior(AnisotropicTV(scale * weight, inner_iters=10))
    else:
        make_prior = lambda scale=1.0: ProximalPrior(L1Norm(scale * weight))
    prior = make_prior()
    reg = prior.reg if isinstance(prior, ProximalPrior) else L1Norm(weight)
    mismatched = None
    if mismatch is not None:
        e = float(rng.uniform(0.0, 0.5))
        if mismatch == "shifted":
            mismatched = make_prior(1.0 - e)
        else:
            mismatched = perturb_prior(make_prior() if mismatch == "separate" else prior, e,
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
        g_hat = residual(problem, xk, use_mismatched=True) if use_hat else None
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
    family=st.sampled_from(["linear", "l1", "l1-wide", "tv", "gaussian", "gaussian-2d"]),
    mismatch=st.sampled_from([None, "fixed", "shifted", "separate"]),
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


@settings(max_examples=50, deadline=None)
@given(family=st.sampled_from(["linear", "gaussian"]),
       mismatch=st.sampled_from([None, "fixed", "shifted"]), seed=st.integers(0, 2**32 - 1))
def test_affine_residual_agrees_with_residual(family, mismatch, seed):
    """K x - h is the true-prior residual G(x) at random x, whatever the mismatch."""
    problem, _, _ = build(family, mismatch, seed, with_objective=False)
    k_mat, h = solver.affine_residual(problem)
    for x in np.random.default_rng(seed).standard_normal((3, k_mat.shape[1])):
        want = residual(problem, x)
        assert np.abs(k_mat @ x - h - want).max() <= TOL * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("family", ["l1", "l1-wide", "tv", "gaussian-2d"])
def test_affine_residual_is_none_for_other_priors_and_fourier_operators(family):
    problem, _, _ = build(family, None, seed=4, with_objective=False)
    assert solver.affine_residual(problem) is None


def count_steps(problem, monkeypatch):
    """Counts, from now on, of the precomposed steps of the matrix stepper
    ("affine"), of the true prior's evaluations ("prior") and of the
    fidelity operator's forward calls ("forward")."""
    calls = {"affine": 0, "prior": 0, "forward": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(solver, "_affine_step", counting("affine", solver._affine_step))
    monkeypatch.setattr(problem.prior, "apply", counting("prior", problem.prior.apply))
    op = problem.fidelity.op
    monkeypatch.setattr(op, "forward", counting("forward", op.forward))
    return calls


def stepper_of(family, mismatch):
    """The stepper run_sd_red takes: "matrix" for a dense matrix without a
    shifted or separate mismatch, else "generic"."""
    if mismatch in ("shifted", "separate") or family in ("tv", "gaussian-2d"):
        return "generic"
    return "matrix"


def step_counts(stepper, family, steps, final_record, held_objective=False):
    """The expected counts of :func:`count_steps` after ``steps`` steps.

    The matrix stepper takes one precomposed step per step and never calls
    the operator; it evaluates a prior that is not affine once per step and
    once more when ``final_record``.  The generic stepper evaluates the
    prior and A x that often.  A run held at a fixed point counts the steps
    up to the one that returned its input and has no final prior call; the
    generic stepper evaluates A x once more for the held objective when
    that step was not recorded (``held_objective``)."""
    prior = steps + final_record
    if stepper == "generic":
        return {"affine": 0, "prior": prior, "forward": prior + held_objective}
    affine = family in ("linear", "gaussian")
    return {"affine": steps, "prior": 0 if affine else prior, "forward": 0}


@pytest.mark.parametrize("family", ["linear", "l1", "tv"])
@pytest.mark.parametrize("mismatch", ["fixed", "shifted"])
def test_divergence_index_matches_reference_loop(family, mismatch, monkeypatch):
    problem, objective, truth = build(family, mismatch, seed=11, with_objective=True)
    config = make_config(problem, objective, truth, iters=2000, stride=3, tol=0.0,
                         gamma_scale=1e4)
    want = outcome(reference_run, problem, config)
    assert isinstance(want, DivergenceError)
    calls = count_steps(problem, monkeypatch)
    for block_floats in BLOCK_SIZES:
        monkeypatch.setattr(solver, "BLOCK_FLOATS", block_floats)
        calls.update(affine=0, prior=0, forward=0)
        got = outcome(run_sd_red, problem, config)
        assert_same(got, want)
        # One step each: no step runs past the first non-finite iterate.
        expected = step_counts(stepper_of(family, mismatch), family, got.iteration, False)
        assert calls == expected, block_floats


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
    # One step each, and no step after a stop; the steppers that call the
    # prior evaluate it once more for the final record of a stop.
    assert calls == step_counts(stepper_of(family, "fixed"), family, d, ending == "tolerance")


def check_path(stepper, family, mismatch, seed, monkeypatch):
    """A 30-step run matches the reference loop with the step counts of ``stepper``."""
    problem, objective, truth = build(family, mismatch, seed, with_objective=True)
    config = make_config(problem, objective, truth, iters=30, stride=4, tol=0.0)
    want = outcome(reference_run, problem, config)
    calls = count_steps(problem, monkeypatch)
    assert_same(outcome(run_sd_red, problem, config), want)
    assert calls == step_counts(stepper, family, 30, True)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family, mismatch", [
    ("linear", None), ("linear", "fixed"), ("gaussian", None), ("gaussian", "fixed"),
])
def test_matrix_affine_problems_take_the_affine_path(family, mismatch, seed, monkeypatch):
    """The matrix stepper folds an affine prior into its step: no prior calls."""
    check_path("matrix", family, mismatch, seed, monkeypatch)


@pytest.mark.parametrize("family, mismatch", [
    ("l1", None), ("l1", "fixed"), ("l1-wide", None), ("l1-wide", "fixed"),
])
def test_other_priors_on_a_matrix_take_the_dense_path(family, mismatch, monkeypatch):
    """The matrix stepper adds one prior call to each step of any other prior."""
    check_path("matrix", family, mismatch, 4, monkeypatch)


@pytest.mark.parametrize("family, mismatch, seed", [
    *(pytest.param(family, mismatch, 4, id=f"{family}-{mismatch}") for family, mismatch in [
        ("linear", "shifted"), ("gaussian", "shifted"), ("l1", "shifted"), ("l1", "separate"),
        ("tv", "fixed"), ("gaussian-2d", None), ("gaussian-2d", "fixed"),
    ]),
    *((family, "separate", seed) for family in ("linear", "gaussian") for seed in (0, 1, 2)),
])
def test_other_problems_take_the_generic_path(family, mismatch, seed, monkeypatch):
    """A shifted or separate mismatch is, or wraps, a prior other than the
    true one, so even an affine one takes the generic path."""
    check_path("generic", family, mismatch, seed, monkeypatch)


def spy_holds(monkeypatch):
    """The steps k, from now on, whose step returned its input bit for bit
    (the ``hold`` calls of either stepper)."""
    holds = []
    for cls in (solver._MatrixStepper, solver._GenericStepper):
        def spy(self, i, k, hold=cls.hold):
            holds.append(k)
            hold(self, i, k)
        monkeypatch.setattr(cls, "hold", spy)
    return holds


def assert_identical(got, want):
    """Two traces agree bit for bit: repr tells -0.0 from 0.0 and keeps every digit."""
    for name in ("iters", "g_norm_sq", "g_hat_norm_sq", "objective", "dist_to_ref", "psnr",
                 "r0", "r_max", "stopped_at"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got.final.tobytes() == want.final.tobytes()


def step_through(monkeypatch):
    """From now on, run_sd_red never sees a fixed point and takes every step."""
    monkeypatch.setattr(solver, "_same_bits", lambda a, b: False)


# A seed per family and mismatch whose run reaches an exact fixed point in
# 200-1300 steps.
HOLDING_SEEDS = {
    ("linear", None): 5, ("linear", "fixed"): 5, ("linear", "shifted"): 5,
    ("linear", "separate"): 5, ("l1", None): 11, ("l1", "fixed"): 11, ("l1", "shifted"): 11,
    ("l1", "separate"): 11, ("l1-wide", None): 0, ("l1-wide", "fixed"): 0,
    ("l1-wide", "shifted"): 0, ("l1-wide", "separate"): 0, ("gaussian", None): 0,
    ("gaussian", "fixed"): 0, ("gaussian", "shifted"): 0, ("gaussian", "separate"): 0,
    ("gaussian-2d", None): 4, ("gaussian-2d", "fixed"): 4, ("gaussian-2d", "shifted"): 4,
    ("gaussian-2d", "separate"): 0,
}


@pytest.mark.parametrize("offset, stride", [(-1, 1), (0, 3), (1, 7)],
                         ids=["after-1", "on-3", "before-7"])
@pytest.mark.parametrize("family, mismatch", list(HOLDING_SEEDS))
def test_held_run_records_the_bytes_of_stepping_through(family, mismatch, offset, stride,
                                                        monkeypatch):
    """A run held at an exact fixed point records, bit for bit, what a run
    that steps to max_iters records, and takes no step or prior call after
    the hold.  With d the first held iterate, blocks of d - 1, d and d + 1
    rows put it just after, on and just before a block edge, and the filled
    rows cross the next edge."""
    problem, objective, truth = build(family, mismatch, HOLDING_SEEDS[family, mismatch], True)
    holds = spy_holds(monkeypatch)
    config = make_config(problem, objective, truth, 1500, stride, 0.0)
    run_sd_red(problem, config)
    (k,) = holds
    d = k + 1
    config.max_iters = 2 * d + offset + 4
    monkeypatch.setattr(solver, "BLOCK_FLOATS", (d + offset) * truth.size)
    calls = count_steps(problem, monkeypatch)
    holds.clear()
    got = run_sd_red(problem, config)
    assert holds == [k]
    assert calls == step_counts(stepper_of(family, mismatch), family, d, False,
                                held_objective=k % stride != 0)
    step_through(monkeypatch)
    assert_identical(got, run_sd_red(problem, config))
    assert holds == [k]


@pytest.mark.parametrize("family, mismatch",
                         [("tv", mismatch) for mismatch in (None, "fixed", "shifted", "separate")])
def test_runs_that_never_hold_take_every_step(family, mismatch, monkeypatch):
    """The TV problems, missing from HOLDING_SEEDS, reach no exact fixed
    point: none of seeds 0-5 held within 3000 steps (nor seeds 0-3 without
    or with a fixed mismatch within 20000).  Such a run takes every step and
    records what stepping through records."""
    problem, objective, truth = build(family, mismatch, 3, True)
    config = make_config(problem, objective, truth, 200, 3, 0.0)
    holds = spy_holds(monkeypatch)
    calls = count_steps(problem, monkeypatch)
    got = run_sd_red(problem, config)
    assert holds == []
    assert calls == step_counts(stepper_of(family, mismatch), family, config.max_iters, True)
    step_through(monkeypatch)
    assert_identical(got, run_sd_red(problem, config))


@pytest.mark.parametrize("seed, violation", [
    (202000148, 3.392e-4), (501000163, 3.206e-3), (504000330, 8.856e-4),
    (402000179, 3.0695e-3), (900000022, 1.1763e-2), (803000229, 5.8942e-4),
    (9569, 1.1033e-2), (9003000032, 2.3964e-2),
])
def test_known_theorem4_failures_keep_their_violation(seed, violation):
    """verify-prox instances that fail Theorem 4 (ROADMAP item 1) fail by the
    same margin through run_sd_red as through the plain reference loop."""
    inst = make_prox_l1_instance(seed)
    c = inst.constants
    _, f_star = prox_gradient_reference(inst.problem.fidelity, inst.problem.prior.reg)
    got, want = (
        verify_theorem4_trace(run(inst.problem, inst.config), f_star, L=c["L"], tau=c["tau"],
                              gamma=c["gamma"], sigma=c["sigma"], epsilon=c["epsilon"],
                              S=c["S"])
        for run in (run_sd_red, reference_run)
    )
    assert not got.passed and not want.passed
    assert got.max_violation == pytest.approx(want.max_violation, rel=1e-9)
    assert got.max_violation == pytest.approx(violation, rel=1e-3)


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
