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
    use_mismatched: bool = True

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

    def record(self, k, g_sq, g_hat_sq, obj, dist, quality):
        if self.iters and k <= self.iters[-1]:
            return
        self.iters.append(k)
        self.g_norm_sq.append(g_sq)
        self.g_hat_norm_sq.append(g_hat_sq)
        self.objective.append(obj)
        self.dist_to_ref.append(dist)
        self.psnr.append(quality)


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


def red_step(problem, x, gamma, use_mismatched=False):
    """One fixed-point update x - gamma * G(x)."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return x - gamma * residual(problem, x, use_mismatched=use_mismatched)


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


def run_sd_red(problem, config):
    """Iterate SD-RED and return the diagnostic trace.

    Starts from the adjoint image A^H y unless ``config.x0`` overrides it.
    Records every ``record_stride`` iterations plus the final iterate; the
    objective, squared residual norms and PSNR are computed only there, the
    distance to ``x_ref`` at every iterate (for ``r_max``).  Stops early only
    when ``config.tol`` is positive and the relative change drops below it.
    Non-finite iterates abort with :class:`DivergenceError`.
    """
    use_hat = config.use_mismatched and problem.mismatched is not None
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
    x = config.x0 if config.x0 is not None else fid.adjoint_image()
    x = np.asarray(x, dtype=float).copy()
    trace = IterateTrace()

    # The mismatch wrapper shares the base denoiser evaluation, so the true
    # residual plus the known offset gives the mismatched residual for free.
    shared_offset = isinstance(mismatched, MismatchedPrior) and mismatched.base is prior

    peak = None
    if config.ground_truth is not None:
        peak = float(np.max(config.ground_truth))

    def residuals(xk, with_objective):
        # Same arithmetic as residual(); the objective, when asked for, shares
        # A x - y with grad g(x).
        obj = None
        if with_objective and config.objective is not None:
            grad, fid_value = fid.gradient_and_value(xk)
            obj = fid_value + config.objective.value(xk)
        else:
            grad = fid.gradient(xk)
        g = grad + tau * (xk - prior.apply(xk, sigma))
        g_hat = None
        if use_hat:
            if shared_offset:
                g_hat = g - tau * mismatched.offset(xk, sigma)
            else:
                g_hat = grad + tau * (xk - mismatched.apply(xk, sigma))
        return g, g_hat, obj

    def distance(xk):
        # Taken at every iterate, recorded or not, because r_max needs it.
        if config.x_ref is None:
            return None
        dist = _norm(xk - config.x_ref)
        trace.r_max = dist if trace.r_max is None else max(trace.r_max, dist)
        return dist

    def record(k, xk, g, g_hat, obj, dist):
        g_hat_sq = None if g_hat is None else _sq_norm(g_hat)
        quality = None
        if peak is not None:
            quality = psnr(config.ground_truth, xk, peak=peak)
        trace.record(k, _sq_norm(g), g_hat_sq, obj, dist, quality)

    stopped_at = config.max_iters
    for k in range(config.max_iters):
        recorded = k % config.record_stride == 0
        g, g_hat, obj = residuals(x, recorded)
        dist = distance(x)
        if k == 0:
            trace.r0 = dist
        if recorded:
            record(k, x, g, g_hat, obj, dist)
        step_residual = g_hat if use_hat else g
        x_new = x - config.gamma * step_residual
        if not np.isfinite(x_new).all():
            raise DivergenceError(k + 1)
        if config.tol > 0.0:
            change = _norm(x_new - x) / max(_norm(x), 1.0)
            if change < config.tol:
                x = x_new
                stopped_at = k + 1
                break
        x = x_new

    g, g_hat, obj = residuals(x, True)
    record(stopped_at, x, g, g_hat, obj, distance(x))
    trace.final = x
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


def reference_zero(problem, tol=1e-12, max_iters=100000, gamma=None):
    """A point of Zer(G) for the true prior, to high accuracy.

    Affine priors with the quadratic fidelity reduce to the linear system
    (A^H A + tau*(I - W)) x = A^H y + tau*b, solved by conjugate gradient on
    the normal equations; otherwise a long SD-RED run with the true prior is
    used.  The returned point is validated against the fixed-point residual
    ||G(x*)|| <= 1e-9 * (1 + ||G(x0)||).
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
        cfg = SolverConfig(
            gamma=gamma,
            max_iters=max_iters,
            tol=tol,
            record_stride=max(1, max_iters // 10),
            use_mismatched=False,
        )
        xstar = run_sd_red(problem, cfg).final

    res = float(np.linalg.norm(residual(problem, xstar, use_mismatched=False)))
    res0 = float(np.linalg.norm(residual(problem, x0, use_mismatched=False)))
    if res > 1e-9 * (1.0 + res0):
        raise ReferenceSolveError(
            f"reference solve stalled: ||G(x*)|| = {res:.3e} vs scale {1.0 + res0:.3e}"
        )
    return xstar
