import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdred.families import make_linear_contraction_instance
from sdred.solver import IterateTrace, run_sd_red
from sdred.theory import (
    BoundReport,
    StepSizeError,
    _trace_R,
    empirical_R,
    optimal_sigma_theorem4,
    theorem1_bound,
    theorem1_constants,
    theorem2_bound,
    theorem2_constants,
    theorem4_bound,
    verify_theorem1_trace,
    verify_theorem2_trace,
    verify_theorem4_trace,
)

from trace_helpers import record


class TestTheorem1Constants:
    def test_reference_values(self):
        # 64-bit oracle: eta = sqrt(1 - 2*.04*.5 + .04^2*2.5^2), A = gamma/(1-eta)
        eta, a_const = theorem1_constants(0.5, 1.0, 1.0, 0.04)
        eta_oracle = math.sqrt(1.0 - 2 * 0.04 * 0.5 + 0.04**2 * 2.5**2)
        assert abs(eta**2 - 0.97) <= 1e-15
        assert abs(eta - eta_oracle) <= 1e-15
        assert abs(eta - 0.98489) <= 1e-5
        assert abs(a_const - 0.04 / (1.0 - eta_oracle)) <= 1e-12
        assert abs(a_const - 2.6465143735728156) <= 1e-12

    def test_eta_tends_to_one_as_gamma_vanishes(self):
        etas = [theorem1_constants(0.5, 1.0, 1.0, g)[0] for g in (0.04, 0.004, 0.0004)]
        assert etas[0] < etas[1] < etas[2] < 1.0

    def test_range_upper_bound_lambda_09(self):
        upper = 0.1 * 1.0 / (1.0 + 1.9) ** 2
        assert abs(upper - 0.011890606420927468) <= 1e-15
        theorem1_constants(0.9, 1.0, 1.0, upper * 0.99)  # inside: fine
        with pytest.raises(StepSizeError):
            theorem1_constants(0.9, 1.0, 1.0, upper * 1.01)

    def test_out_of_range_message_names_interval(self):
        with pytest.raises(StepSizeError, match="gamma must lie in"):
            theorem1_constants(0.5, 1.0, 1.0, 1.0)
        with pytest.raises(StepSizeError):
            theorem1_constants(1.0, 1.0, 1.0, 0.01)  # lambda must be < 1


class TestTheorem1Bound:
    def test_pure_contraction_vanishes(self):
        eta, a_const = theorem1_constants(0.5, 1.0, 1.0, 0.04)
        assert theorem1_bound(100000, 1.0, eta, a_const, 1.0, 1.0, 0.0) <= 1e-10

    def test_t_zero(self):
        assert theorem1_bound(0, 2.0, 0.9, 3.0, 1.0, 1.0, 0.1) == 2.0 + 0.1 * 3.0

    def test_reference_arithmetic(self):
        eta, a_const = theorem1_constants(0.5, 1.0, 1.0, 0.04)
        got = theorem1_bound(100, 1.0, eta, a_const, 1.0, 1.0, 0.1)
        oracle = eta**100 * 1.0 + 0.1 * a_const
        assert abs(got - oracle) <= 1e-15
        assert abs(got - 0.48271681270468936) <= 1e-12

    def test_nonincreasing_in_t(self):
        eta, a_const = theorem1_constants(0.5, 1.0, 1.0, 0.04)
        values = [theorem1_bound(t, 1.0, eta, a_const, 1.0, 1.0, 0.1) for t in range(50)]
        for a, b in zip(values, values[1:]):
            assert b <= a


class TestTheorem2:
    def test_reference_constants(self):
        b1, b2 = theorem2_constants(1.0, 1.0, 0.3, 2.0, 1.0, 0.1)
        assert abs(b1 - 40.0) <= 1e-12
        assert abs(b2 - 12.09) <= 1e-12

    def test_zero_radius(self):
        b1, b2 = theorem2_constants(1.0, 1.0, 0.3, 0.0, 1.0, 0.1)
        assert b1 == 0.0
        assert abs(b2 - 3.0 * 0.3 * 0.1) <= 1e-15

    def test_zero_epsilon_drops_gamma_term(self):
        _, b2 = theorem2_constants(1.0, 1.0, 0.3, 2.0, 1.0, 0.0)
        assert abs(b2 - 2 * 2.0 * 3.0) <= 1e-15

    def test_bound_values_and_rate(self):
        b1, b2 = theorem2_constants(1.0, 1.0, 0.3, 2.0, 1.0, 0.1)
        assert abs(theorem2_bound(100, b1, b2, 1.0, 1.0, 0.1) - 1.609) <= 1e-12
        assert abs(theorem2_bound(1, b1, b2, 1.0, 1.0, 0.0) - b1) <= 1e-15
        # 1/t decay of the transient term
        for t in (1, 2, 4, 8):
            lhs = theorem2_bound(t, b1, 0.0, 1.0, 1.0, 0.0)
            assert abs(lhs - b1 / t) <= 1e-12

    def test_gamma_range_enforced(self):
        with pytest.raises(StepSizeError):
            theorem2_constants(1.0, 1.0, 0.5, 2.0, 1.0, 0.1)


class TestTheorem4:
    def test_reference_value(self):
        got = theorem4_bound(100, 1.0, 1.0, 0.3, 2.0, 0.1, 1.0, 1.0)
        assert abs(got - 2.12) <= 1e-12

    def test_residual_term_only_at_large_t(self):
        got = theorem4_bound(10**9, 1.0, 1.0, 0.3, 2.0, 0.0, 1.0, 1.0)
        assert abs(got - 0.5) <= 1e-6

    def test_zero_radius(self):
        got = theorem4_bound(100, 1.0, 1.0, 0.3, 0.0, 0.1, 1.0, 1.0)
        assert abs(got - 0.5) <= 1e-15

    def test_tau_sigma_coupling_enforced(self):
        with pytest.raises(ValueError, match="tau"):
            theorem4_bound(100, 1.0, 2.0, 0.1, 1.0, 0.1, 1.0, 1.0)

    def test_transient_decays_like_one_over_t(self):
        for t in (1, 10, 100):
            full = theorem4_bound(t, 1.0, 1.0, 0.3, 2.0, 0.0, 1.0, 0.0)
            assert abs(full - 2.0 * 3.0 * 8.0 / (0.3 * t)) <= 1e-12


class TestOptimalSigma:
    def test_reference_values(self):
        sigma2, err = optimal_sigma_theorem4(0.1, 2.0, 1.0)
        assert abs(sigma2 - 0.2) <= 1e-12
        assert abs(err - 0.2) <= 1e-12

    def test_matches_grid_minimization_oracle(self):
        eps, r, s = 0.1, 2.0, 1.0
        grid = np.linspace(1e-4, 2.0, 2000001)
        values = eps**2 * r / grid + s**2 * grid / 2.0
        sigma2, err = optimal_sigma_theorem4(eps, r, s)
        assert abs(grid[np.argmin(values)] - sigma2) <= 1e-5
        assert abs(values.min() - err) <= 1e-9

    def test_zero_epsilon_limit(self):
        sigma2, err = optimal_sigma_theorem4(0.0, 2.0, 1.0)
        assert sigma2 == 0.0
        assert err == 0.0

    def test_linear_scaling_in_epsilon(self):
        _, e1 = optimal_sigma_theorem4(0.1, 2.0, 1.0)
        _, e3 = optimal_sigma_theorem4(0.3, 2.0, 1.0)
        assert abs(e3 - 3 * e1) <= 1e-14


class TestVerifyTrace:
    def test_exact_prior_contraction_passes(self):
        inst = make_linear_contraction_instance(5, eps_range=(0.0, 0.0), t=300)
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        report = verify_theorem1_trace(
            trace, lam=c["lambda"], L=c["L"], tau=c["tau"], gamma=c["gamma"],
            sigma=c["sigma"], epsilon=c["epsilon"],
        )
        assert report.passed
        assert report.max_violation <= 0.0

    def test_saturated_one_d_instance_passes(self):
        inst = make_linear_contraction_instance(6, eps_range=(0.3, 0.3), t=400)
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        report = verify_theorem1_trace(
            trace, lam=c["lambda"], L=c["L"], tau=c["tau"], gamma=c["gamma"],
            sigma=c["sigma"], epsilon=c["epsilon"],
        )
        assert report.passed
        # final gap stays below the error floor tau*sigma*eps*A
        _, a_const = theorem1_constants(c["lambda"], c["L"], c["tau"], c["gamma"])
        floor = c["tau"] * c["sigma"] * c["epsilon"] * a_const
        assert trace.dist_to_ref[-1] <= floor + 1e-12

    def test_corrupted_bound_fails(self):
        inst = make_linear_contraction_instance(7, eps_range=(0.3, 0.4), t=300)
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        report = verify_theorem1_trace(
            trace, lam=c["lambda"], L=c["L"], tau=c["tau"], gamma=c["gamma"],
            sigma=c["sigma"], epsilon=c["epsilon"], bound_scale=0.01,
        )
        assert not report.passed

    def test_summary_line(self):
        inst = make_linear_contraction_instance(8, t=100)
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        report = verify_theorem1_trace(
            trace, lam=c["lambda"], L=c["L"], tau=c["tau"], gamma=c["gamma"],
            sigma=c["sigma"], epsilon=c["epsilon"],
        )
        assert "pass" in report.summary()


class TestEmpiricalR:
    def test_zero_when_started_at_reference(self):
        inst = make_linear_contraction_instance(9, eps_range=(0.0, 0.0), t=50)
        inst.config.x0 = inst.config.x_ref.copy()
        trace = run_sd_red(inst.problem, inst.config)
        assert empirical_R(trace) <= 1e-9

    def test_monotone_approach_gives_r0(self):
        inst = make_linear_contraction_instance(10, eps_range=(0.0, 0.0), t=200)
        trace = run_sd_red(inst.problem, inst.config)
        # exact-prior contraction approaches monotonically, so the max is R0
        assert empirical_R(trace) == trace.r0

    def test_coarser_stride_never_increases_r(self):
        inst = make_linear_contraction_instance(11, t=200)
        fine = run_sd_red(inst.problem, inst.config)
        inst.config.record_stride = 10
        coarse = run_sd_red(inst.problem, inst.config)
        assert empirical_R(coarse) <= empirical_R(fine) + 1e-15

    def test_missing_reference_rejected(self):
        inst = make_linear_contraction_instance(12, t=50)
        inst.config.x_ref = None
        trace = run_sd_red(inst.problem, inst.config)
        with pytest.raises(ValueError):
            empirical_R(trace)


# The scalar bound functions and trace loops as they were before the trace
# checks became array expressions, kept verbatim as the reference: every
# report list must match them in repr, which is bitwise for floats.


def scalar_theorem1_bound(t, r0, eta, a_const, tau, sigma, epsilon):
    if not (0 < eta < 1):
        raise ValueError("eta must lie in (0, 1)")
    if min(t, r0, tau, sigma, epsilon, a_const) < 0:
        raise ValueError("bound inputs must be nonnegative")
    return eta**t * r0 + tau * sigma * epsilon * a_const


def scalar_theorem2_bound(t, b1, b2, tau, sigma, epsilon):
    if t < 1:
        raise ValueError("t must be at least 1")
    return b1 / t + tau * sigma * epsilon * b2


def scalar_theorem4_bound(t, L, tau, gamma, R, epsilon, sigma, S):
    if abs(tau * sigma**2 - 1.0) > 1e-12:
        raise ValueError(f"requires tau = 1/sigma^2; got tau*sigma^2 = {tau * sigma**2}")
    upper = 1.0 / (L + 2.0 * tau)
    if not (0.0 < gamma < upper):
        raise StepSizeError(f"gamma must lie in (0, {upper:.6e}), got {gamma}")
    if t < 1:
        raise ValueError("t must be at least 1")
    return 2.0 * (L + 2.0 * tau) * R**3 / (gamma * t) + epsilon**2 * R / sigma**2 + S**2 * sigma**2 / 2.0


class ScalarReport(BoundReport):
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


def scalar_theorem1_trace(trace, lam, L, tau, gamma, sigma, epsilon, slack=1e-9, bound_scale=1.0):
    eta, a_const = theorem1_constants(lam, L, tau, gamma)
    if trace.r0 is None:
        raise ValueError("trace has no reference distances; run with x_ref set")
    report = ScalarReport(descriptor="contraction bound", slack=slack)
    for k, dist in zip(trace.iters, trace.dist_to_ref):
        if dist is None:
            raise ValueError("trace record missing distance to reference")
        bound = scalar_theorem1_bound(k, trace.r0, eta, a_const, tau, sigma, epsilon)
        report.iters.append(k)
        report.measured.append(dist)
        report.bounds.append(bound * bound_scale)
    return report.finish()


def scalar_theorem2_trace(trace, L, tau, gamma, sigma, epsilon, slack=1e-9, bound_scale=1.0):
    iters = trace.iters
    if any(b - a != 1 for a, b in zip(iters, iters[1:])):
        raise ValueError("theorem-2 verification needs a stride-1 trace")
    r_const = _trace_R(trace)
    b1, b2 = theorem2_constants(L, tau, gamma, r_const, sigma, epsilon)
    report = ScalarReport(descriptor="nonexpansive residual bound", slack=slack)
    running = 0.0
    for k, g_sq in zip(iters, trace.g_norm_sq):
        if k == iters[-1]:
            break  # residual of the final iterate starts the (t+1)-th average
        running += g_sq
        t = k + 1
        report.iters.append(t)
        report.measured.append(running / t)
        report.bounds.append(scalar_theorem2_bound(t, b1, b2, tau, sigma, epsilon) * bound_scale)
    return report.finish()


def scalar_theorem4_trace(
    trace, f_star, L, tau, gamma, sigma, epsilon, S, slack=1e-8, bound_scale=1.0
):
    iters = trace.iters
    if any(b - a != 1 for a, b in zip(iters, iters[1:])):
        raise ValueError("theorem-4 verification needs a stride-1 trace")
    r_const = _trace_R(trace)
    report = ScalarReport(descriptor="smoothed objective bound", slack=slack)
    best_gap = math.inf
    for k, obj in zip(iters, trace.objective):
        if k == iters[-1]:
            break
        if obj is None:
            raise ValueError("trace record missing objective value")
        best_gap = min(best_gap, obj - f_star)
        t = k + 1
        bound = scalar_theorem4_bound(t, L, tau, gamma, r_const, epsilon, sigma, S)
        report.iters.append(t)
        report.measured.append(best_gap)
        report.bounds.append(bound * bound_scale)
    return report.finish()


_SPECIAL = (0.0, -0.0, math.nan, math.inf, 5e-324, 1e308)


def _column(rng, n, scale):
    """Positive values over several decades, some replaced by special floats."""
    values = scale * rng.lognormal(sigma=2.0, size=n)
    specials = rng.random(n) < rng.choice([0.0, 0.02, 0.2])
    values[specials] = rng.choice(_SPECIAL, size=int(specials.sum()))
    return values.tolist()


@st.composite
def random_cases(draw):
    """A random trace and constants for all three checks; tau = 1/sigma^2 for Theorem 4."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.sampled_from([0, 0, 0, 7]))
    lam = float(rng.uniform(0.05, 0.95))
    L = float(rng.uniform(0.0, 5.0))
    sigma = float(rng.uniform(0.3, 3.0))
    tau = 1.0 / sigma**2
    contraction = (1.0 - lam) * tau / (L + (1.0 + lam) * tau) ** 2
    gamma = float(rng.uniform(0.01, 0.99)) * contraction  # inside both step ranges
    r0 = float(10.0 ** rng.uniform(-3, 2))
    trace = IterateTrace()
    trace.iters = list(range(start, start + n))
    trace.g_norm_sq = _column(rng, n, r0**2)
    trace.g_hat_norm_sq = [None] * n
    trace.objective = _column(rng, n, r0)
    trace.dist_to_ref = _column(rng, n, r0 / 10.0)
    trace.psnr = [None] * n
    trace.r0 = r0
    trace.r_max = None if rng.random() < 0.3 else float(10.0 ** rng.uniform(-3, 2))
    if trace.r_max is None and not any(d == d for d in trace.dist_to_ref):
        trace.r_max = r0  # empirical_R would take the max over NaN only
    constants = {
        "lam": lam, "L": L, "tau": tau, "gamma": gamma, "sigma": sigma,
        "epsilon": float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),
        "S": float(rng.uniform(0.0, 10.0)),
        "f_star": float(rng.choice([0.0, rng.uniform(-1.0, 1.0) * r0])),
        "bound_scale": float(rng.choice([1.0, 0.01, 0.5, 3.7])),
        "slack": float(rng.choice([1e-9, 1e-8, 0.3])),
    }
    return trace, constants


def _run_all(check1, check2, check4, trace, c):
    kw = {"L": c["L"], "tau": c["tau"], "gamma": c["gamma"], "sigma": c["sigma"],
          "epsilon": c["epsilon"], "slack": c["slack"], "bound_scale": c["bound_scale"]}
    outcomes = []
    for check, args, extra in (
        (check1, (trace,), {"lam": c["lam"]}),
        (check2, (trace,), {}),
        (check4, (trace, c["f_star"]), {"S": c["S"]}),
    ):
        try:
            report = check(*args, **kw, **extra)
        except Exception as exc:  # compared by type and message
            outcomes.append((type(exc), str(exc)))
            continue
        outcomes.append(tuple(repr(v) for v in (
            report.descriptor, report.iters, report.measured, report.bounds,
            report.max_violation, report.worst_iter, report.passed, report.slack,
        )))
    return outcomes


@settings(max_examples=150, deadline=None)
@given(case=random_cases())
def test_array_checks_match_scalar_loops(case):
    trace, c = case
    got = _run_all(verify_theorem1_trace, verify_theorem2_trace, verify_theorem4_trace, trace, c)
    want = _run_all(scalar_theorem1_trace, scalar_theorem2_trace, scalar_theorem4_trace, trace, c)
    assert got == want


def _error_cases():
    def base(n=5, start=0):
        trace = IterateTrace()
        for k in range(start, start + n):
            record(trace, k, 1.0 / (k + 1), None, 2.0 / (k + 1), 0.5 / (k + 1), None)
        trace.r0, trace.r_max = 0.5, 0.5
        return trace

    sigma = 1.3
    good = {"lam": 0.5, "L": 1.0, "tau": 1.0 / sigma**2, "gamma": 0.01, "sigma": sigma,
            "epsilon": 0.1, "S": 1.0, "f_star": 0.0, "slack": 1e-9, "bound_scale": 1.0}
    stride2 = base()
    stride2.iters = [0, 2, 4, 6, 8]
    missing_first = base()
    missing_first.objective[0] = None
    missing_later = base()
    missing_later.objective[3] = None
    missing_final = base()
    missing_final.objective[-1] = None  # never used: not an error
    missing_dist = base()
    missing_dist.dist_to_ref[2] = None
    no_ref = base()
    no_ref.r0 = None
    return [
        ("stride-2", stride2, good),
        ("missing objective first", missing_first, good),
        ("missing objective later", missing_later, good),
        ("missing final objective", missing_final, good),
        ("missing distance", missing_dist, good),
        ("no reference", no_ref, good),
        ("gamma above range", base(), {**good, "gamma": 10.0}),
        ("gamma zero", base(), {**good, "gamma": 0.0}),
        ("tau*sigma^2 != 1", base(), {**good, "tau": 1.0}),
        ("one record", base(n=1), good),
        ("empty", base(n=0), good),
        ("negative epsilon", base(), {**good, "epsilon": -0.1}),
    ]


@pytest.mark.parametrize("name, trace, constants", _error_cases(),
                         ids=[case[0] for case in _error_cases()])
def test_array_checks_raise_as_scalar_loops(name, trace, constants):
    got = _run_all(verify_theorem1_trace, verify_theorem2_trace, verify_theorem4_trace,
                   trace, constants)
    want = _run_all(scalar_theorem1_trace, scalar_theorem2_trace, scalar_theorem4_trace,
                    trace, constants)
    assert got == want
