"""Closed-form theorem constants and bound verification against traces.

Three bounds are checked: the contraction bound on the distance to the
fixed point (linear rate plus a tau*sigma*epsilon*A floor), the
nonexpansive bound on the running average of the squared residual norm
(B1/t + tau*sigma*epsilon*B2), and the smoothed-objective bound for
proximal priors with tau = 1/sigma^2.
"""

import math
from dataclasses import dataclass, field


class StepSizeError(ValueError):
    """Step size outside the range the requested constants require."""


def theorem1_constants(lam, L, tau, gamma):
    """Contraction factor eta and error amplification A = gamma/(1-eta).

    Requires lam < 1 and 0 < gamma < (1-lam)*tau/(L+(1+lam)*tau)^2;
    eta^2 = 1 - 2*gamma*tau*(1-lam) + gamma^2*(L+(1+lam)*tau)^2.
    """
    if not (0 < lam < 1):
        raise StepSizeError("contraction constants need lambda in (0, 1)")
    upper = (1.0 - lam) * tau / (L + (1.0 + lam) * tau) ** 2
    if not (0.0 < gamma < upper):
        raise StepSizeError(f"gamma must lie in (0, {upper:.6e}), got {gamma}")
    eta_sq = 1.0 - 2.0 * gamma * tau * (1.0 - lam) + gamma**2 * (L + (1.0 + lam) * tau) ** 2
    eta = math.sqrt(eta_sq)
    return eta, gamma / (1.0 - eta)


def theorem1_bound(t, r0, eta, a_const, tau, sigma, epsilon):
    """Distance bound eta^t * R0 + tau*sigma*epsilon*A after t iterations."""
    if not (0 < eta < 1):
        raise ValueError("eta must lie in (0, 1)")
    if min(t, r0, tau, sigma, epsilon, a_const) < 0:
        raise ValueError("bound inputs must be nonnegative")
    return eta**t * r0 + tau * sigma * epsilon * a_const


def theorem2_constants(L, tau, gamma, R, sigma, epsilon):
    """B1 = (L+2*tau)*R^2/gamma and B2 = (L+2*tau)*(2*R + gamma*tau*sigma*epsilon)."""
    upper = 1.0 / (L + 2.0 * tau)
    if not (0.0 < gamma < upper):
        raise StepSizeError(f"gamma must lie in (0, {upper:.6e}), got {gamma}")
    if R < 0:
        raise ValueError("R must be nonnegative")
    b1 = (L + 2.0 * tau) * R**2 / gamma
    b2 = (L + 2.0 * tau) * (2.0 * R + gamma * tau * sigma * epsilon)
    return b1, b2


def theorem2_bound(t, b1, b2, tau, sigma, epsilon):
    """Running-average residual bound B1/t + tau*sigma*epsilon*B2."""
    if t < 1:
        raise ValueError("t must be at least 1")
    return b1 / t + tau * sigma * epsilon * b2


def theorem4_bound(t, L, tau, gamma, R, epsilon, sigma, S):
    """Objective-gap bound 2*(L+2*tau)*R^3/(gamma*t) + eps^2*R/sigma^2 + S^2*sigma^2/2.

    Valid for proximal priors with the coupling tau = 1/sigma^2, which is
    enforced here.
    """
    if abs(tau * sigma**2 - 1.0) > 1e-12:
        raise ValueError(f"requires tau = 1/sigma^2; got tau*sigma^2 = {tau * sigma**2}")
    upper = 1.0 / (L + 2.0 * tau)
    if not (0.0 < gamma < upper):
        raise StepSizeError(f"gamma must lie in (0, {upper:.6e}), got {gamma}")
    if t < 1:
        raise ValueError("t must be at least 1")
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

    def finish(self):
        if not self.iters:
            raise ValueError("bound report has no iterations to verify")
        worst = -math.inf
        worst_iter = None
        for k, m, b in zip(self.iters, self.measured, self.bounds):
            violation = (m - b) / max(1.0, abs(b))
            if violation > worst:
                worst = violation
                worst_iter = k
        self.max_violation = worst
        self.worst_iter = worst_iter
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


def verify_theorem1_trace(trace, lam, L, tau, gamma, sigma, epsilon, slack=1e-9, bound_scale=1.0):
    """Check dist-to-reference against eta^k * R0 + tau*sigma*epsilon*A at every record."""
    eta, a_const = theorem1_constants(lam, L, tau, gamma)
    if trace.r0 is None:
        raise ValueError("trace has no reference distances; run with x_ref set")
    report = BoundReport(descriptor="contraction bound", slack=slack)
    for k, dist in zip(trace.iters, trace.dist_to_ref):
        if dist is None:
            raise ValueError("trace record missing distance to reference")
        bound = theorem1_bound(k, trace.r0, eta, a_const, tau, sigma, epsilon)
        report.iters.append(k)
        report.measured.append(dist)
        report.bounds.append(bound * bound_scale)
    return report.finish()


def verify_theorem2_trace(trace, L, tau, gamma, sigma, epsilon, slack=1e-9, bound_scale=1.0):
    """Check the running average of ||G(x^{i-1})||^2 against B1/t + tau*sigma*epsilon*B2.

    Needs a stride-1 trace: the average at t uses the true-prior residuals of
    iterates 0..t-1 along the (mismatched) trajectory.
    """
    iters = trace.iters
    if any(b - a != 1 for a, b in zip(iters, iters[1:])):
        raise ValueError("theorem-2 verification needs a stride-1 trace")
    r_const = _trace_R(trace)
    b1, b2 = theorem2_constants(L, tau, gamma, r_const, sigma, epsilon)
    report = BoundReport(descriptor="nonexpansive residual bound", slack=slack)
    running = 0.0
    for k, g_sq in zip(iters, trace.g_norm_sq):
        if k == iters[-1]:
            break  # residual of the final iterate starts the (t+1)-th average
        running += g_sq
        t = k + 1
        report.iters.append(t)
        report.measured.append(running / t)
        report.bounds.append(theorem2_bound(t, b1, b2, tau, sigma, epsilon) * bound_scale)
    return report.finish()


def verify_theorem4_trace(
    trace, f_star, L, tau, gamma, sigma, epsilon, S, slack=1e-8, bound_scale=1.0
):
    """Check the running-min objective gap against the smoothed-objective bound."""
    iters = trace.iters
    if any(b - a != 1 for a, b in zip(iters, iters[1:])):
        raise ValueError("theorem-4 verification needs a stride-1 trace")
    r_const = _trace_R(trace)
    report = BoundReport(descriptor="smoothed objective bound", slack=slack)
    best_gap = math.inf
    for k, obj in zip(iters, trace.objective):
        if k == iters[-1]:
            break
        if obj is None:
            raise ValueError("trace record missing objective value")
        best_gap = min(best_gap, obj - f_star)
        t = k + 1
        bound = theorem4_bound(t, L, tau, gamma, r_const, epsilon, sigma, S)
        report.iters.append(t)
        report.measured.append(best_gap)
        report.bounds.append(bound * bound_scale)
    return report.finish()
