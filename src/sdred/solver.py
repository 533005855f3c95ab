"""The SD-RED fixed-point iteration with true or mismatched priors.

The residual operator is G(x) = grad g(x) + tau*(x - D_sigma(x)); the
iteration steps x <- x - gamma*G(x), replacing D by the mismatched prior
when one is attached.  Iterates are kept real (the gradient convention in
:mod:`sdred.objectives` takes the real part for real images).
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .metrics import psnr
from .operators import MatrixOperator, _check_shape
from .priors import MismatchedPrior


class DivergenceError(RuntimeError):
    """An iterate became non-finite; carries the failing iteration index."""

    def __init__(self, iteration):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


class ReferenceSolveError(RuntimeError):
    """Reference-solution computation did not reach the required residual."""


@dataclass
class Problem:
    fidelity: object
    prior: object
    tau: float
    sigma: float
    mismatched: object = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be strictly positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be strictly positive")
        if not np.isfinite(self.fidelity.lipschitz):
            raise ValueError("data-fidelity Lipschitz constant must be finite")


@dataclass
class SolverConfig:
    gamma: float
    max_iters: int
    tol: float = 0.0
    x0: np.ndarray = None
    x_ref: np.ndarray = None
    ground_truth: np.ndarray = None
    objective: object = None
    record_stride: int = 1

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be strictly positive")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if self.tol < 0:
            raise ValueError("tolerance must be nonnegative")
        if self.record_stride < 1:
            raise ValueError("record stride must be at least 1")


@dataclass
class IterateTrace:
    """Per-iteration diagnostics of one SD-RED run.

    Lists are aligned; entries may be None where a quantity is unavailable
    (no mismatched prior, no reference, no objective, no ground truth).
    ``r_max`` is the running max of the distance to the reference over all
    iterates, not only the recorded ones.
    """

    iters: list = field(default_factory=list)
    g_norm_sq: list = field(default_factory=list)
    g_hat_norm_sq: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    dist_to_ref: list = field(default_factory=list)
    psnr: list = field(default_factory=list)
    r0: float = None
    r_max: float = None
    final: np.ndarray = None
    stopped_at: int = None


def _sq_norm(v):
    """||v||^2 of a real array as one dot product."""
    v = v.ravel()
    return float(v.dot(v))


def _norm(v):
    """||v|| of a real array; the same arithmetic as ``np.linalg.norm(v)``."""
    return math.sqrt(_sq_norm(v))


def residual(problem, x, use_mismatched=False):
    """G(x) = grad g(x) + tau*(x - D(x)), with D-hat when requested."""
    if use_mismatched:
        if problem.mismatched is None:
            raise ValueError("problem has no mismatched prior attached")
        denoised = problem.mismatched.apply(x, problem.sigma)
    else:
        denoised = problem.prior.apply(x, problem.sigma)
    return problem.fidelity.gradient(x) + problem.tau * (x - denoised)


def affine_residual(problem, use_mismatched=False):
    """Dense (K, h) with G(x) = K x - h, or None when G is not matrix-affine.

    G is matrix-affine when the fidelity operator is a real
    :class:`MatrixOperator` and the prior (the mismatched one when
    requested) has ``affine_parts`` D(x) = W x + b.  Then
    K = A^T A + tau*(I - W) and h = A^T y + tau*b, with column j of W
    taken as W applied to the j-th unit vector.
    """
    fid = problem.fidelity
    if not isinstance(fid.op, MatrixOperator) or not np.isrealobj(fid.op.mat):
        return None
    prior = problem.prior
    if use_mismatched:
        if problem.mismatched is None:
            raise ValueError("problem has no mismatched prior attached")
        prior = problem.mismatched
    shape = fid.op.input_shape
    parts = prior.affine_parts(problem.sigma, shape)
    if parts is None:
        return None
    apply_w, _, offset = parts
    eye = np.eye(shape[0])
    w = np.stack([apply_w(e) for e in eye], axis=1)
    mat = fid.op.mat
    return mat.T @ mat + problem.tau * (eye - w), fid.adjoint_image() + problem.tau * offset


def _affine_step(matrix, offset, x, out):
    """out = matrix @ x + offset: one step of a matrix-affine SD-RED run."""
    matrix.dot(x, out)  # the method skips np.dot's dispatch, about half its cost at n = 8
    out += offset


@dataclass(frozen=True)
class StepSizeReport:
    contraction_threshold: float
    nonexpansive_threshold: float
    in_contraction_range: bool
    in_nonexpansive_range: bool
    regime: str


def check_step_size(lam, L, tau, gamma):
    """Which theorem regime the step size satisfies, with the thresholds.

    The contraction regime needs lam < 1 and gamma below
    (1-lam)*tau/(L+(1+lam)*tau)^2; the nonexpansive regime needs gamma
    below 1/(L+2*tau).  Both inequalities are strict.
    """
    if not (0 < lam <= 1):
        raise ValueError("lambda must lie in (0, 1]")
    if L < 0 or tau <= 0:
        raise ValueError("L must be nonnegative and tau positive")
    t1 = (1.0 - lam) * tau / (L + (1.0 + lam) * tau) ** 2
    t2 = 1.0 / (L + 2.0 * tau)
    in1 = 0.0 < gamma < t1
    in2 = 0.0 < gamma < t2
    regime = "contraction" if in1 else ("nonexpansive" if in2 else "neither")
    return StepSizeReport(t1, t2, in1, in2, regime)


def default_gamma(lam, L, tau):
    """Default step size: half the contraction threshold when the prior is
    contractive (lam < 1), else half the nonexpansive threshold."""
    report = check_step_size(lam, L, tau, 1.0)
    if lam < 1.0 and report.contraction_threshold > 0.0:
        return 0.5 * report.contraction_threshold
    return 0.5 * report.nonexpansive_threshold


# Floats per block buffer of run_sd_red: a block holds about this many
# values of each of the iterates and residuals, and at least one row.
BLOCK_FLOATS = 8192


def run_sd_red(problem, config):
    """Iterate SD-RED and return the diagnostic trace.

    Starts from the adjoint image A^H y unless ``config.x0`` overrides it.
    Records every ``record_stride`` iterations plus the final iterate; the
    objective, squared residual norms and PSNR are computed only there, the
    distance to ``x_ref`` at every iterate (for ``r_max``).  Stops early only
    when ``config.tol`` is positive and the relative change drops below it.
    Non-finite iterates abort with :class:`DivergenceError` at once.

    A step takes one of two paths.  When :func:`affine_residual` gives the
    dense parts of both residuals (a real matrix fidelity with an affine
    prior, and a mismatched prior that is absent or affine too), the step
    x - gamma*G-hat(x) is the one precomposed map (I - gamma*K-hat) x +
    gamma*h-hat, and G and G-hat are formed only at recorded iterates, by
    one matrix product per block.  Every other problem (proximal priors,
    hashed mismatch, Fourier operators) evaluates G, and G-hat, at every
    iterate with the arithmetic of :func:`residual` and steps by
    ``x - gamma*G(x)``; the objective shares A x - y with grad g(x) there.
    The two paths agree to rounding; each is deterministic.

    Iterates, and on the generic path residuals, go into the rows of block
    buffers of about ``BLOCK_FLOATS`` floats; the distances and squared
    norms of a block are reduced together when it fills, and once more with
    the final iterate.  Iterates do not depend on the block size.
    Finiteness is tested per step through x.x, which is finite exactly
    when x is unless the entries of a finite x pass about 1e154; only then
    (with numpy's overflow warning) is every entry tested.
    """
    use_hat = problem.mismatched is not None
    lam = problem.prior.lipschitz(problem.sigma)
    regime = check_step_size(lam, problem.fidelity.lipschitz, problem.tau, config.gamma)
    if regime.regime == "neither":
        warnings.warn(
            f"step size {config.gamma} outside both theorem ranges "
            f"(contraction < {regime.contraction_threshold:.3e}, "
            f"nonexpansive < {regime.nonexpansive_threshold:.3e})"
        )
    elif lam < 1 and not regime.in_contraction_range:
        warnings.warn(
            f"step size {config.gamma} outside the contraction range "
            f"(< {regime.contraction_threshold:.3e}) for a contractive prior"
        )

    fid, prior, mismatched = problem.fidelity, problem.prior, problem.mismatched
    tau, sigma = problem.tau, problem.sigma
    gamma, tol, stride = config.gamma, config.tol, config.record_stride
    x0 = config.x0 if config.x0 is not None else fid.adjoint_image()
    x0 = np.asarray(x0, dtype=float)
    shape = x0.shape
    rows = max(1, BLOCK_FLOATS // x0.size)
    xs = np.empty((rows + 1,) + shape)  # the block's iterates; row 0 starts it
    xs[0] = x0
    trace = IterateTrace()

    dense = affine_residual(problem)
    dense_hat = dense
    if use_hat and dense is not None:
        dense_hat = affine_residual(problem, use_mismatched=True)
    affine = dense_hat is not None
    if affine:
        _check_shape("run_sd_red x0", x0, fid.op.input_shape)
        step_matrix = np.eye(x0.size) - gamma * dense_hat[0]
        step_offset = gamma * dense_hat[1]
    else:
        gs = np.empty((rows + 1,) + shape)  # the block's true-prior residuals
        hs = np.empty((rows + 1,) + shape) if use_hat else None  # mismatched ones

    # The mismatch wrapper shares the base denoiser evaluation, so the true
    # residual plus the known offset gives the mismatched residual for free.
    # A fixed-mode offset does not depend on the iterate: tau*offset is taken
    # once.
    shared_offset = isinstance(mismatched, MismatchedPrior) and mismatched.base is prior
    tau_offset = None
    if shared_offset and mismatched.mode == "fixed" and not affine:
        tau_offset = tau * mismatched.offset(xs[0], sigma)

    peak = None
    if config.ground_truth is not None:
        peak = float(np.max(config.ground_truth))

    def residuals(xk, g, g_hat, with_objective):
        # Writes G(xk), and G-hat(xk) when a mismatched prior is attached,
        # with the arithmetic of residual(); the objective, when asked for,
        # shares A x - y with grad g(x).
        obj = None
        if with_objective and config.objective is not None:
            grad, fid_value = fid.gradient_and_value(xk)
            obj = fid_value + config.objective.value(xk)
        else:
            grad = fid.gradient(xk)
        np.subtract(xk, prior.apply(xk, sigma), out=g)
        g *= tau
        g += grad
        if use_hat:
            if tau_offset is not None:
                np.subtract(g, tau_offset, out=g_hat)
            elif shared_offset:
                np.multiply(mismatched.offset(xk, sigma), tau, out=g_hat)
                np.subtract(g, g_hat, out=g_hat)
            else:
                np.subtract(xk, mismatched.apply(xk, sigma), out=g_hat)
                g_hat *= tau
                g_hat += grad
        return obj

    def dense_residuals(recorded):
        # G and G-hat of the recorded iterates, one matrix product each; the
        # objective is fid.value + objective.value, as residuals() takes it.
        if config.objective is None:
            objectives.extend([None] * len(recorded))
        else:
            objectives.extend(fid.value(x) + config.objective.value(x) for x in recorded)
        (k_mat, h), (k_hat, h_hat) = dense, dense_hat
        g = recorded @ k_mat.T
        g -= h
        if not use_hat:
            return g, None
        g_hat = recorded @ k_hat.T
        g_hat -= h_hat
        return g, g_hat

    def sq_norms(block):
        flat = block.reshape(len(block), x0.size)
        return np.einsum("ij,ij->i", flat, flat)

    objectives = []  # of the block's recorded iterates, in order

    def flush(k0, m, final):
        # Rows 0..m-1 hold iterates k0..k0+m-1, and row m the final iterate
        # when ``final``; every row counts towards r_max.
        rec = list(range(-k0 % stride, m, stride))
        if final:
            rec.append(m)
            m += 1
        count = len(rec)
        trace.iters.extend(k0 + r for r in rec)
        if affine:
            g, g_hat = dense_residuals(xs[rec])
        else:
            g, g_hat = gs[rec], (hs[rec] if use_hat else None)
        trace.g_norm_sq.extend(sq_norms(g).tolist())
        trace.g_hat_norm_sq.extend(sq_norms(g_hat).tolist() if use_hat else [None] * count)
        trace.objective.extend(objectives)
        objectives.clear()
        if config.x_ref is None:
            trace.dist_to_ref.extend([None] * count)
        else:
            dist = np.sqrt(sq_norms(xs[:m] - config.x_ref))
            if k0 == 0:
                trace.r0 = float(dist[0])
            top = float(dist.max())
            trace.r_max = top if trace.r_max is None else max(trace.r_max, top)
            trace.dist_to_ref.extend(dist[rec].tolist())
        if peak is None:
            trace.psnr.extend([None] * count)
        else:
            trace.psnr.extend(psnr(config.ground_truth, xs[r], peak=peak) for r in rec)

    def roll(k0):
        # Reduce the full block and start the next one at its last iterate.
        flush(k0, rows, False)
        xs[0] = xs[rows]

    flat = xs.reshape(rows + 1, x0.size)
    k0 = i = 0  # the iterate at the block's row 0, and the current row
    stopped_at = config.max_iters
    for k in range(config.max_iters):
        if i == rows:
            roll(k0)
            k0, i = k, 0
        x, x_new = xs[i], xs[i + 1]
        if affine:
            _affine_step(step_matrix, step_offset, x, x_new)
        else:
            g = gs[i]
            g_hat = hs[i] if use_hat else None
            recorded = k % stride == 0
            obj = residuals(x, g, g_hat, recorded)
            if recorded:
                objectives.append(obj)
            np.multiply(g_hat if use_hat else g, gamma, out=x_new)
            np.subtract(x, x_new, out=x_new)
        i += 1
        v = flat[i]
        if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
            raise DivergenceError(k + 1)
        if tol > 0.0:
            change = _norm(x_new - x) / max(_norm(x), 1.0)
            if change < tol:
                stopped_at = k + 1
                break

    if i == rows:
        roll(k0)
        k0, i = stopped_at, 0
    if not affine:
        objectives.append(residuals(xs[i], gs[i], hs[i] if use_hat else None, True))
    flush(k0, i, True)
    trace.final = xs[i].copy()
    trace.stopped_at = stopped_at
    return trace


def _cgnr(apply_m, apply_mt, rhs, tol, max_iters):
    """Conjugate gradient on the normal equations M^T M x = M^T rhs.

    Handles the nonsymmetric system matrices that affine priors produce.
    Stops on the true residual ||M x - rhs|| <= tol.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = apply_mt(r)
    p = z.copy()
    zz = float(np.sum(z * z))
    for _ in range(max_iters):
        if np.linalg.norm(r) <= tol:
            break
        mp = apply_m(p)
        denom = float(np.sum(mp * mp))
        if denom == 0.0:
            break
        alpha = zz / denom
        x = x + alpha * p
        r = r - alpha * mp
        z = apply_mt(r)
        zz_new = float(np.sum(z * z))
        if zz == 0.0:
            break
        p = z + (zz_new / zz) * p
        zz = zz_new
    return x


# Difference columns kept by the Anderson reference solve.
ANDERSON_MEMORY = 5


def _anderson_zero(problem, x0, gamma, tol, max_iters):
    """A fixed point of T(x) = x - gamma*G(x) by type-II Anderson acceleration.

    Each step mixes the last ANDERSON_MEMORY iterate and residual differences
    by least squares (Walker & Ni 2011, with mixing 1).  The mixed point is
    kept only if its residual ||x - T(x)|| is no larger than the current
    one.  The plain step never enlarges it, since T is averaged for gamma
    below 1/(L + 2*tau); without the check, l1 problems with n <= 4 can
    oscillate for 100k steps.  A mixed point that is rejected, non-finite or
    from a rank-deficient least-squares problem gives way to the plain step
    and the memory restarts.  Stops, with the plain step from the last
    iterate, once gamma*||G(x)|| < tol*max(||x||, 1), the relative-change
    rule of a tolerance-stopped SD-RED run.  Otherwise it returns after
    ``max_iters`` steps, or at a non-finite residual, and the caller's
    residual check rejects the point.
    """
    shape = x0.shape
    x = x0.ravel()
    f = -gamma * residual(problem, x0).ravel()
    dx, df = [], []  # flat differences of successive iterates and of f
    for _ in range(max_iters):
        if _norm(f) < tol * max(_norm(x), 1.0):
            break
        x_new, f_new = x + f, None
        if df:
            cols = np.stack(df, axis=1)
            theta, _, rank, _ = np.linalg.lstsq(cols, f, rcond=None)
            mixed = x_new - (np.stack(dx, axis=1) + cols) @ theta
            if rank == len(df) and np.isfinite(mixed).all():
                f_mixed = -gamma * residual(problem, mixed.reshape(shape)).ravel()
                if _norm(f_mixed) <= _norm(f):
                    x_new, f_new = mixed, f_mixed
            if f_new is None:
                dx, df = [], []
        if f_new is None:
            f_new = -gamma * residual(problem, x_new.reshape(shape)).ravel()
        if not np.isfinite(f_new).all():
            x, f = x_new, f_new
            break
        dx.append(x_new - x)
        df.append(f_new - f)
        if len(df) > ANDERSON_MEMORY:
            del dx[0], df[0]
        x, f = x_new, f_new
    return (x + f).reshape(shape)


def reference_zero(problem, tol=1e-12, max_iters=100000, gamma=None):
    """A point of Zer(G) for the true prior, to high accuracy.

    Affine priors with the quadratic fidelity reduce to the linear system
    (A^H A + tau*(I - W)) x = A^H y + tau*b, solved by conjugate gradient on
    the normal equations; otherwise Anderson acceleration finds the fixed
    point of the true-prior SD-RED step x - gamma*G(x), starting from A^H y,
    with ``gamma`` the default step unless given.  The returned point is
    validated against the fixed-point residual
    ||G(x*)|| <= 1e-9 * (1 + ||G(x0)||).

    Zer(G) need not be a single point: TV under Fourier undersampling leaves
    directions that neither the data nor the prior pin down.  The result is
    then the point the Anderson solve reaches from A^H y, and any distance
    measured to it (R, ``r_max``, a recon sweep's ``final_dist_to_ref``) is
    relative to that point, not to the whole zero set.
    """
    fid = problem.fidelity
    x0 = fid.adjoint_image()
    parts = problem.prior.affine_parts(problem.sigma, x0.shape)
    if parts is not None:
        apply_w, apply_wt, offset = parts
        tau = problem.tau

        def apply_m(v):
            av = np.real(fid.op.adjoint(fid.op.forward(v)))
            return av + tau * (v - apply_w(v))

        def apply_mt(v):
            av = np.real(fid.op.adjoint(fid.op.forward(v)))
            return av + tau * (v - apply_wt(v))

        rhs = fid.adjoint_image() + tau * offset
        scale = max(1.0, float(np.linalg.norm(rhs)))
        xstar = _cgnr(apply_m, apply_mt, rhs, tol * scale, max(200, 60 * rhs.size))
    else:
        if gamma is None:
            gamma = default_gamma(problem.prior.lipschitz(problem.sigma), fid.lipschitz, problem.tau)
        xstar = _anderson_zero(problem, np.asarray(x0, dtype=float), gamma, tol, max_iters)

    res = float(np.linalg.norm(residual(problem, xstar)))
    res0 = float(np.linalg.norm(residual(problem, x0)))
    if not res <= 1e-9 * (1.0 + res0):  # a NaN residual fails too
        raise ReferenceSolveError(
            f"reference solve stalled: ||G(x*)|| = {res:.3e} vs scale {1.0 + res0:.3e}"
        )
    return xstar
