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


def _real_matrix(fid):
    return isinstance(fid.op, MatrixOperator) and np.isrealobj(fid.op.mat)


def affine_residual(problem):
    """Dense (K, h) with G(x) = K x - h, or None when G is not matrix-affine.

    G is matrix-affine when the fidelity operator is a real
    :class:`MatrixOperator` and the true prior has ``affine_parts``
    D(x) = W x + b.  Then K = A^T A + tau*(I - W) and h = A^T y + tau*b,
    with column j of W taken as W applied to the j-th unit vector.
    """
    fid = problem.fidelity
    if not _real_matrix(fid):
        return None
    shape = fid.op.input_shape
    parts = problem.prior.affine_parts(problem.sigma, shape)
    if parts is None:
        return None
    apply_w, _, offset = parts
    eye = np.eye(shape[0])
    w = np.stack([apply_w(e) for e in eye], axis=1)
    mat = fid.op.mat
    return mat.T @ mat + problem.tau * (eye - w), fid.adjoint_image() + problem.tau * offset


def _same_bits(a, b):
    """Whether two arrays hold the same bytes; unlike ==, -0.0 and 0.0 differ."""
    return a.tobytes() == b.tobytes()


def _affine_step(matrix, offset, x, out):
    """out = matrix @ x + offset: the precomposed part of a matrix-stepper step."""
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


def _row_sq_norms(block):
    """||row||^2 of each row of a block, complex rows included."""
    flat = block.reshape(len(block), math.prod(block.shape[1:]))
    if np.iscomplexobj(flat):
        return _row_sq_norms(flat.real) + _row_sq_norms(flat.imag)
    return np.einsum("ij,ij->i", flat, flat)


def _matrix_objectives(fid, objective, x):
    """g + h at each row of x for a matrix fidelity, from one product X A^T."""
    if objective is None:
        return [None] * len(x)
    halves = 0.5 * _row_sq_norms(x @ fid.op.mat.T - fid.y)
    return (halves + objective.values(x)).tolist()


# A stepper runs the steps of one kind of problem over the rows of the
# recorder's block of iterates ``xs``, also given as the list ``rows`` of its
# row views (indexing a list is cheaper than indexing ``xs``).
# ``step(i, k)`` writes row i + 1 from row i, which holds iterate k;
# ``finish(i)`` readies row i for the final record; ``block(rec)`` gives G,
# G-hat (None without a mismatched prior) and the objectives (None without
# an objective) of the rows ``rec``.  ``hold(i, k)`` is called once the step
# from row i returned its input bit for bit; from then on ``fill(i, k, m)``
# gives rows i..i+m-1, iterates k..k+m-1, the per-row data of the held
# iterate without stepping, and ``finish`` does the same for the final row.


class _MatrixStepper:
    """A real matrix fidelity with any prior, mismatched by none or by a
    fixed offset u around it (u = 0 without a mismatch).

    With K = A^T A + tau*I and c = A^T y, a step is x <- (I - gamma*K) x +
    gamma*(c + tau*u) + gamma*tau*D(x): one precomposed matrix product and
    one add, then one prior call and one more add.  An affine prior
    D(x) = W x + b is folded into the setup instead, K <- K - tau*W and
    c <- c + tau*b (the (K, h) of :func:`affine_residual`), so its step is
    the product and the add alone.  For any other prior the rows of ``ds``
    keep gamma*tau*D(x), the term the step adds.  G of a block's recorded
    rows is then X K^T - c, less tau*D for a prior that is not affine: one
    product.  G-hat = G - tau*u.
    """

    def __init__(self, problem, config, xs, rows):
        fid, mismatched = problem.fidelity, problem.mismatched
        tau, gamma = problem.tau, config.gamma
        eye = np.eye(xs[0].size)
        self.fid, self.objective = fid, config.objective
        self.xs, self.rows, self.gamma = xs, rows, gamma
        self.tau_offset = None
        if mismatched is not None:
            self.tau_offset = tau * mismatched.offset(xs[0], problem.sigma)
        dense = affine_residual(problem)
        self.ds = None  # gamma*tau*D of each row, for a prior that is not affine
        if dense is None:
            mat = fid.op.mat
            self.kmat, self.c = mat.T @ mat + tau * eye, fid.adjoint_image()
            self.apply, self.sigma, self.scale = problem.prior.apply, problem.sigma, gamma * tau
            self.ds = np.empty(xs.shape)
        else:
            self.kmat, self.c = dense
        self.step_matrix = eye - gamma * self.kmat
        self.step_offset = gamma * (self.c if self.tau_offset is None else self.c + self.tau_offset)
        self.held_d = None  # the held iterate's row of ds

    def step(self, i, k):
        x, out = self.rows[i], self.rows[i + 1]
        if self.ds is None:
            _affine_step(self.step_matrix, self.step_offset, x, out)
            return
        d = self.ds[i]
        np.multiply(self.apply(x, self.sigma), self.scale, out=d)
        _affine_step(self.step_matrix, self.step_offset, x, out)
        out += d

    def hold(self, i, k):
        if self.ds is not None:
            self.held_d = self.ds[i].copy()

    def fill(self, i, k, m):
        if self.ds is not None:
            self.ds[i:i + m] = self.held_d

    def finish(self, i):
        if self.ds is None:
            return
        if self.held_d is None:
            np.multiply(self.apply(self.rows[i], self.sigma), self.scale, out=self.ds[i])
        else:
            self.ds[i] = self.held_d

    def block(self, rec):
        x = self.xs[rec]
        g = x @ self.kmat.T
        g -= self.c
        if self.ds is not None:
            g -= self.ds[rec] / self.gamma
        g_hat = None if self.tau_offset is None else g - self.tau_offset
        return g, g_hat, _matrix_objectives(self.fid, self.objective, x)


class _GenericStepper:
    """Any problem: G, and G-hat, at every iterate with the arithmetic of
    :func:`residual`, and the step x - gamma*G-hat(x).

    The objective, at recorded iterates, shares A x - y with grad g(x).
    """

    def __init__(self, problem, config, xs, rows):
        prior, mismatched = problem.prior, problem.mismatched
        self.problem, self.objective = problem, config.objective
        self.gamma, self.stride = config.gamma, config.record_stride
        self.use_hat = mismatched is not None
        self.rows = rows
        self.gs = np.empty(xs.shape)  # the block's true-prior residuals
        self.hs = np.empty(xs.shape) if self.use_hat else self.gs  # the ones it steps by
        self.objectives = []  # of the block's recorded iterates, in order
        self.held = None  # G, G-hat and the objective of the held iterate
        # An offset around the true prior shares its denoiser evaluation and
        # does not depend on the iterate: tau*offset is taken once, and the
        # true residual less it is the mismatched residual.
        self.tau_offset = None
        if isinstance(mismatched, MismatchedPrior) and mismatched.base is prior:
            self.tau_offset = problem.tau * mismatched.offset(xs[0], problem.sigma)

    def _residuals(self, i, with_objective):
        # Writes G, and G-hat when a mismatched prior is attached, of row i.
        p = self.problem
        xk, g, g_hat = self.rows[i], self.gs[i], self.hs[i]
        obj = None
        if with_objective and self.objective is not None:
            grad, fid_value = p.fidelity.gradient_and_value(xk)
            obj = fid_value + self.objective.value(xk)
        else:
            grad = p.fidelity.gradient(xk)
        np.subtract(xk, p.prior.apply(xk, p.sigma), out=g)
        g *= p.tau
        g += grad
        if self.use_hat:
            if self.tau_offset is not None:
                np.subtract(g, self.tau_offset, out=g_hat)
            else:
                np.subtract(xk, p.mismatched.apply(xk, p.sigma), out=g_hat)
                g_hat *= p.tau
                g_hat += grad
        return obj

    def step(self, i, k):
        recorded = k % self.stride == 0
        obj = self._residuals(i, recorded)
        if recorded:
            self.objectives.append(obj)
        x, out = self.rows[i], self.rows[i + 1]
        np.multiply(self.hs[i], self.gamma, out=out)
        np.subtract(x, out, out=out)

    def hold(self, i, k):
        # Step k recorded the objective at this iterate already, if it was
        # recorded; else it is evaluated here, once.
        obj = None
        if self.objective is not None:
            if k % self.stride == 0:
                obj = self.objectives[-1]
            else:
                xk = self.rows[i]
                obj = self.problem.fidelity.value(xk) + self.objective.value(xk)
        self.held = self.gs[i].copy(), self.hs[i].copy(), obj

    def fill(self, i, k, m):
        g, g_hat, obj = self.held
        self.gs[i:i + m] = g
        self.hs[i:i + m] = g_hat
        self.objectives += [obj] * len(range(-k % self.stride, m, self.stride))

    def finish(self, i):
        if self.held is None:
            self.objectives.append(self._residuals(i, True))
            return
        g, g_hat, obj = self.held
        self.gs[i] = g
        self.hs[i] = g_hat
        self.objectives.append(obj)

    def block(self, rec):
        objectives, self.objectives = self.objectives, []
        return self.gs[rec], (self.hs[rec] if self.use_hat else None), objectives


def _stepper(problem, config, xs, rows):
    """The stepper of a problem: the matrix stepper for a real matrix fidelity
    with no mismatch or a fixed offset around the true prior, else the
    generic one."""
    fid, mismatched = problem.fidelity, problem.mismatched
    if not _real_matrix(fid):
        return _GenericStepper(problem, config, xs, rows)
    _check_shape("run_sd_red x0", xs[0], fid.op.input_shape)
    if mismatched is None or (isinstance(mismatched, MismatchedPrior)
                              and mismatched.base is problem.prior):
        return _MatrixStepper(problem, config, xs, rows)
    return _GenericStepper(problem, config, xs, rows)


def _warn_on_step_size(problem, gamma):
    lam = problem.prior.lipschitz(problem.sigma)
    regime = check_step_size(lam, problem.fidelity.lipschitz, problem.tau, gamma)
    if regime.regime == "neither":
        warnings.warn(
            f"step size {gamma} outside both theorem ranges "
            f"(contraction < {regime.contraction_threshold:.3e}, "
            f"nonexpansive < {regime.nonexpansive_threshold:.3e})"
        )
    elif lam < 1 and not regime.in_contraction_range:
        warnings.warn(
            f"step size {gamma} outside the contraction range "
            f"(< {regime.contraction_threshold:.3e}) for a contractive prior"
        )


def run_sd_red(problem, config):
    """Iterate SD-RED and return the diagnostic trace.

    Starts from the adjoint image A^H y unless ``config.x0`` overrides it.
    Records every ``record_stride`` iterations plus the final iterate; the
    objective (g plus ``config.objective``, a
    :class:`~sdred.objectives.Regularizer` h), squared residual norms and
    PSNR are computed only there, the
    distance to ``x_ref`` at every iterate (for ``r_max``).  Stops early only
    when ``config.tol`` is positive and the relative change drops below it.
    Non-finite iterates abort with :class:`DivergenceError` at once.  With
    ``tol`` zero, a run that reaches an exact fixed point (a step returns its
    input bit for bit) takes no more steps: each step is a deterministic
    function of the iterate's bits, so the remaining rows are filled from the
    held iterate and its residuals and record exactly what stepping would
    have, and ``stopped_at`` stays ``max_iters``.

    The loop is a recorder around one of two steppers, each of which
    writes the next iterate from the current one and gives G, G-hat and the
    objective of a block's recorded iterates:

    * matrix, for any prior on a real matrix fidelity, with no mismatch or
      a fixed offset around the true prior: one precomposed matrix
      product per step, into which an affine prior is folded (see
      :func:`affine_residual`); any other prior adds one prior call;
    * generic, for everything else (Fourier operators, and mismatched
      priors other than an offset around the true one): G, and
      G-hat, at every iterate with the arithmetic of :func:`residual`, and
      the step x - gamma*G-hat(x).

    The steppers agree to rounding; each is deterministic.  The recorder
    keeps iterates in the rows of a block buffer of about ``BLOCK_FLOATS``
    floats; the distances and squared norms of a block are reduced together
    when it fills, and once more with the final iterate.  Iterates do not
    depend on the block size.  Finiteness is tested per step through x.x,
    which is finite exactly when x is unless the entries of a finite x pass
    about 1e154; only then (with numpy's overflow warning) is every entry
    tested.  The same x.x finds a fixed point: the bytes of two iterates are
    compared only when their x.x are equal.
    """
    _warn_on_step_size(problem, config.gamma)
    tol, stride = config.tol, config.record_stride
    x0 = config.x0 if config.x0 is not None else problem.fidelity.adjoint_image()
    x0 = np.asarray(x0, dtype=float)
    rows = max(1, BLOCK_FLOATS // x0.size)
    xs = np.empty((rows + 1,) + x0.shape)  # the block's iterates; row 0 starts it
    xs[0] = x0
    views = list(xs)
    stepper = _stepper(problem, config, xs, views)
    trace = IterateTrace()
    peak = None
    if config.ground_truth is not None:
        peak = float(np.max(config.ground_truth))

    def flush(k0, m, final):
        # Rows 0..m-1 hold iterates k0..k0+m-1, and row m the final iterate
        # when ``final``; every row counts towards r_max.
        first = -k0 % stride
        rec = list(range(first, m, stride))
        trace.iters.extend(range(k0 + first, k0 + m, stride))
        if final:
            rec.append(m)
            trace.iters.append(k0 + m)
            m += 1
        count = len(rec)
        g, g_hat, objectives = stepper.block(rec)
        trace.g_norm_sq.extend(_row_sq_norms(g).tolist())
        trace.g_hat_norm_sq.extend([None] * count if g_hat is None
                                   else _row_sq_norms(g_hat).tolist())
        trace.objective.extend(objectives)
        if config.x_ref is None:
            trace.dist_to_ref.extend([None] * count)
        else:
            dist = np.sqrt(_row_sq_norms(xs[:m] - config.x_ref))
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

    flat = views if x0.ndim == 1 else list(xs.reshape(rows + 1, x0.size))
    step = stepper.step
    k0 = i = 0  # the iterate at the block's row 0, and the current row
    stopped_at = config.max_iters
    sq = flat[0].dot(flat[0])  # x.x of the current iterate
    for k in range(config.max_iters):
        if i == rows:
            roll(k0)
            k0, i = k, 0
        step(i, k)
        i += 1
        v = flat[i]
        last, sq = sq, v.dot(v)
        if not math.isfinite(sq) and not np.isfinite(v).all():
            raise DivergenceError(k + 1)
        if tol > 0.0:
            x = views[i - 1]
            if _norm(views[i] - x) / max(_norm(x), 1.0) < tol:
                stopped_at = k + 1
                break
        elif sq == last and _same_bits(v, flat[i - 1]):
            # An exact fixed point: every later step would repeat these bits.
            stepper.hold(i - 1, k)
            k += 1
            while k < stopped_at:
                if i == rows:
                    roll(k0)
                    k0, i = k, 0
                m = min(rows - i, stopped_at - k)
                xs[i + 1:i + 1 + m] = xs[i]
                stepper.fill(i, k, m)
                i += m
                k += m
            break

    if i == rows:
        roll(k0)
        k0, i = stopped_at, 0
    stepper.finish(i)
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

    The conjugate-gradient branch stays for affine priors on operators with
    no dense matrix, such as the Gaussian prior of ``recon-gaussian-prior``
    sweeps on Fourier sampling (the linear families solve the dense (K, h)
    of :func:`affine_residual` instead); moving it to the Anderson solve
    would shift those references by about 1e-12.

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
