"""Closed-form theorem constants and bound verification against traces.

Three bounds are checked: the contraction bound on the distance to the
fixed point (linear rate plus a tau*sigma*epsilon*A floor), the
nonexpansive bound on the running average of the squared residual norm
(B1/t + tau*sigma*epsilon*B2), and the smoothed-objective bound for
proximal priors with tau = 1/sigma^2.

The trace checks evaluate every record at once with numpy, in the order of
operations of the scalar ``theorem*_bound`` functions, so each bound value
is bitwise the scalar one.  Their inputs and step ranges are checked once
per trace.  Like Python float arithmetic, they overflow to inf and give NaN
without a warning.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .solver import check_step_size

_quiet = np.errstate(over="ignore", invalid="ignore")


class StepSizeError(ValueError):
    """Step size outside the range the requested constants require."""


def _require_step(inside, upper, gamma):
    if not inside:
        raise StepSizeError(f"gamma must lie in (0, {upper:.6e}), got {gamma}")


def _check_nonexpansive_step(L, tau, gamma):
    # The nonexpansive range does not depend on lambda; 1 is a valid one.
    step = check_step_size(1.0, L, tau, gamma)
    _require_step(step.in_nonexpansive_range, step.nonexpansive_threshold, gamma)


def theorem1_constants(lam, L, tau, gamma):
    """Contraction factor eta and error amplification A = gamma/(1-eta).

    Requires lam < 1 and 0 < gamma < (1-lam)*tau/(L+(1+lam)*tau)^2;
    eta^2 = 1 - 2*gamma*tau*(1-lam) + gamma^2*(L+(1+lam)*tau)^2.
    """
    if not (0 < lam < 1):
        raise StepSizeError("contraction constants need lambda in (0, 1)")
    step = check_step_size(lam, L, tau, gamma)
    _require_step(step.in_contraction_range, step.contraction_threshold, gamma)
    eta_sq = 1.0 - 2.0 * gamma * tau * (1.0 - lam) + gamma**2 * (L + (1.0 + lam) * tau) ** 2
    eta = math.sqrt(eta_sq)
    return eta, gamma / (1.0 - eta)


def theorem1_bound(t, r0, eta, a_const, tau, sigma, epsilon):
    """Distance bound eta^t * R0 + tau*sigma*epsilon*A after t iterations."""
    _check_theorem1_inputs(t, r0, eta, a_const, tau, sigma, epsilon)
    return _theorem1_value(eta**t, r0, a_const, tau, sigma, epsilon)


def _check_theorem1_inputs(t, r0, eta, a_const, tau, sigma, epsilon):
    if not (0 < eta < 1):
        raise ValueError("eta must lie in (0, 1)")
    if min(t, r0, tau, sigma, epsilon, a_const) < 0:
        raise ValueError("bound inputs must be nonnegative")


def _theorem1_value(eta_t, r0, a_const, tau, sigma, epsilon):
    # eta_t is eta**t taken by the caller with Python's float pow: np.power
    # rounds differently in the last bit for some (eta, t).
    return eta_t * r0 + tau * sigma * epsilon * a_const


def theorem2_constants(L, tau, gamma, R, sigma, epsilon):
    """B1 = (L+2*tau)*R^2/gamma and B2 = (L+2*tau)*(2*R + gamma*tau*sigma*epsilon)."""
    _check_nonexpansive_step(L, tau, gamma)
    if R < 0:
        raise ValueError("R must be nonnegative")
    b1 = (L + 2.0 * tau) * R**2 / gamma
    b2 = (L + 2.0 * tau) * (2.0 * R + gamma * tau * sigma * epsilon)
    return b1, b2


def theorem2_bound(t, b1, b2, tau, sigma, epsilon):
    """Running-average residual bound B1/t + tau*sigma*epsilon*B2."""
    _check_t(t)
    return _theorem2_value(t, b1, b2, tau, sigma, epsilon)


def _check_t(t):
    if t < 1:
        raise ValueError("t must be at least 1")


def _theorem2_value(t, b1, b2, tau, sigma, epsilon):
    # Scalar or array t: the scalar factors are formed first either way.
    return b1 / t + tau * sigma * epsilon * b2


def theorem4_bound(t, L, tau, gamma, R, epsilon, sigma, S):
    """Objective-gap bound 2*(L+2*tau)*R^3/(gamma*t) + eps^2*R/sigma^2 + S^2*sigma^2/2.

    Valid for proximal priors with the coupling tau = 1/sigma^2, which is
    enforced here.
    """
    _check_theorem4_step(L, tau, gamma, sigma)
    _check_t(t)
    return _theorem4_value(t, L, tau, gamma, R, epsilon, sigma, S)


def _check_theorem4_step(L, tau, gamma, sigma):
    if abs(tau * sigma**2 - 1.0) > 1e-12:
        raise ValueError(f"requires tau = 1/sigma^2; got tau*sigma^2 = {tau * sigma**2}")
    _check_nonexpansive_step(L, tau, gamma)


def _theorem4_value(t, L, tau, gamma, R, epsilon, sigma, S):
    # Scalar or array t: every term but the first is a scalar sub-expression.
    return 2.0 * (L + 2.0 * tau) * R**3 / (gamma * t) + epsilon**2 * R / sigma**2 + S**2 * sigma**2 / 2.0


def optimal_sigma_theorem4(epsilon, R, S):
    """Smoothing level minimizing eps^2*R/sigma^2 + S^2*sigma^2/2.

    Returns (sigma^2, minimal error) = (sqrt(2*eps^2*R/S^2), eps*S*sqrt(2*R)).
    """
    if S <= 0:
        raise ValueError("S must be positive")
    if epsilon < 0 or R < 0:
        raise ValueError("epsilon and R must be nonnegative")
    sigma2 = math.sqrt(2.0 * epsilon**2 * R / S**2)
    min_error = epsilon * S * math.sqrt(2.0 * R)
    if sigma2 > 0:
        # First-order condition of the two-term error as a sanity check.
        deriv = -(epsilon**2) * R / sigma2**2 + S**2 / 2.0
        if abs(deriv) > 1e-9 * max(1.0, S**2):
            raise AssertionError(f"stationarity violated: derivative {deriv:.3e}")
    return sigma2, min_error


@dataclass
class BoundReport:
    """Per-iteration bound values against measured quantities, with verdict."""

    descriptor: str
    iters: list = field(default_factory=list)
    measured: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    max_violation: float = -math.inf
    worst_iter: int = None
    slack: float = 1e-9
    passed: bool = False

    @_quiet
    def finish(self):
        """Set the verdict from the largest relative violation (m - b)/max(1, |b|).

        The first maximum wins and a NaN violation is never the worst, as
        with a running ``>`` comparison; if no violation exceeds -inf the
        worst stays -inf with no iteration.
        """
        if not self.iters:
            raise ValueError("bound report has no iterations to verify")
        measured = np.asarray(self.measured, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        scale = np.abs(bounds)
        violation = (measured - bounds) / np.where(scale > 1.0, scale, 1.0)
        violation[np.isnan(violation)] = -math.inf
        index = int(np.argmax(violation))
        worst = float(violation[index])
        self.max_violation = worst
        self.worst_iter = self.iters[index] if worst > -math.inf else None
        self.passed = worst <= self.slack
        return self

    def summary(self):
        word = "pass" if self.passed else "FAIL"
        return (
            f"{word} {self.descriptor}: max violation {self.max_violation:.3e} "
            f"at iter {self.worst_iter} (slack {self.slack:.1e})"
        )


def empirical_R(trace):
    """Max recorded distance to the reference, the constant of the bounded-iterates assumption."""
    dists = [d for d in trace.dist_to_ref if d is not None]
    if not dists:
        raise ValueError("trace has no recorded distances to a reference")
    return max(dists)


def _trace_R(trace):
    if trace.r_max is not None:
        return trace.r_max
    return empirical_R(trace)


def _check_stride_one(iters, theorem):
    if any(b - a != 1 for a, b in zip(iters, iters[1:])):
        raise ValueError(f"theorem-{theorem} verification needs a stride-1 trace")


def _report(descriptor, slack, iters, measured, bounds, bound_scale):
    """A finished report; ``bounds`` is an array, the other columns are lists."""
    report = BoundReport(
        descriptor=descriptor,
        iters=iters,
        measured=measured,
        bounds=(bounds * bound_scale).tolist(),
        slack=slack,
    )
    return report.finish()


@_quiet
def verify_theorem1_trace(trace, lam, L, tau, gamma, sigma, epsilon, slack=1e-9, bound_scale=1.0):
    """Check dist-to-reference against eta^k * R0 + tau*sigma*epsilon*A at every record."""
    eta, a_const = theorem1_constants(lam, L, tau, gamma)
    if trace.r0 is None:
        raise ValueError("trace has no reference distances; run with x_ref set")
    iters, dists = trace.iters, trace.dist_to_ref
    descriptor = "contraction bound"
    if not iters:
        return BoundReport(descriptor=descriptor, slack=slack).finish()
    if dists[0] is not None:
        _check_theorem1_inputs(iters[0], trace.r0, eta, a_const, tau, sigma, epsilon)
    if None in dists:
        raise ValueError("trace record missing distance to reference")
    eta_t = np.array([eta**k for k in iters])
    bounds = _theorem1_value(eta_t, trace.r0, a_const, tau, sigma, epsilon)
    return _report(descriptor, slack, list(iters), list(dists), bounds, bound_scale)


@_quiet
def verify_theorem2_trace(trace, L, tau, gamma, sigma, epsilon, slack=1e-9, bound_scale=1.0):
    """Check the running average of ||G(x^{i-1})||^2 against B1/t + tau*sigma*epsilon*B2.

    Needs a stride-1 trace: the average at t uses the true-prior residuals of
    iterates 0..t-1 along the (mismatched) trajectory.  The residual of the
    final record would start the next average, so it is not used.
    """
    iters = trace.iters
    _check_stride_one(iters, 2)
    r_const = _trace_R(trace)
    b1, b2 = theorem2_constants(L, tau, gamma, r_const, sigma, epsilon)
    descriptor = "nonexpansive residual bound"
    if len(iters) < 2:
        return BoundReport(descriptor=descriptor, slack=slack).finish()
    _check_t(iters[0] + 1)
    t = np.arange(iters[0] + 1, iters[-1] + 1)
    # add.accumulate from a 0.0 seed adds in sequence, exactly as a running sum.
    g_sq = np.asarray(trace.g_norm_sq[: len(t)], dtype=float)
    running = np.add.accumulate(np.concatenate(([0.0], g_sq)))[1:]
    bounds = _theorem2_value(t, b1, b2, tau, sigma, epsilon)
    return _report(descriptor, slack, t.tolist(), (running / t).tolist(), bounds, bound_scale)


@_quiet
def verify_theorem4_trace(
    trace, f_star, L, tau, gamma, sigma, epsilon, S, slack=1e-8, bound_scale=1.0
):
    """Check the running-min objective gap against the smoothed-objective bound."""
    iters = trace.iters
    _check_stride_one(iters, 4)
    r_const = _trace_R(trace)
    descriptor = "smoothed objective bound"
    if len(iters) < 2:
        return BoundReport(descriptor=descriptor, slack=slack).finish()
    objective = trace.objective[: len(iters) - 1]
    if objective[0] is None:
        raise ValueError("trace record missing objective value")
    _check_theorem4_step(L, tau, gamma, sigma)
    _check_t(iters[0] + 1)
    if None in objective:
        raise ValueError("trace record missing objective value")
    t = np.arange(iters[0] + 1, iters[-1] + 1)
    gaps = (np.asarray(objective, dtype=float) - f_star).tolist()
    # Python's min keeps the earlier of two equal values (0.0 before -0.0)
    # and never takes a NaN; np.minimum.accumulate does neither.
    best_gap = list(itertools.accumulate(gaps, min, initial=math.inf))
    del best_gap[0]
    bounds = _theorem4_value(t, L, tau, gamma, r_const, epsilon, sigma, S)
    return _report(descriptor, slack, t.tolist(), best_gap, bounds, bound_scale)
