import numpy as np
import pytest

from sdred import solver
from sdred.metrics import psnr
from sdred.objectives import DataFidelity, L1Norm, moreau_envelope
from sdred.operators import MatrixOperator
from sdred.priors import GaussianMapPrior, LinearPrior, ProximalPrior, perturb_prior
from sdred.solver import (
    DivergenceError,
    Problem,
    SolverConfig,
    check_step_size,
    reference_zero,
    residual,
    run_sd_red,
)

from operator_helpers import IdentityOperator


def one_d_problem(epsilon=0.0):
    """g = 0.5*(x-1)^2, D(x) = 0.5*x, tau = 1: G(x) = 1.5*x - 1, zero at 2/3."""
    fid = DataFidelity(MatrixOperator(np.array([[1.0]])), np.array([1.0]))
    prior = LinearPrior(np.array([[0.5]]))
    mismatched = perturb_prior(prior, epsilon) if epsilon > 0 else None
    return Problem(fidelity=fid, prior=prior, tau=1.0, sigma=1.0, mismatched=mismatched)


class TestResidual:
    def test_linear_zero_solved_by_hand(self):
        prob = one_d_problem()
        assert abs(residual(prob, np.array([2.0 / 3.0]))[0]) <= 1e-15

    def test_substitution_at_zero(self):
        prob = one_d_problem()
        assert np.allclose(residual(prob, np.array([0.0])), [-1.0])

    def test_identity_prior_reduces_to_gradient(self):
        fid = DataFidelity(MatrixOperator(np.array([[2.0]])), np.array([0.0]))
        prob = Problem(fidelity=fid, prior=LinearPrior(np.eye(1)), tau=3.7, sigma=1.0)
        x = np.array([1.3])
        assert np.allclose(residual(prob, x), fid.gradient(x))

    def test_missing_mismatched_prior(self):
        prob = one_d_problem()
        with pytest.raises(ValueError):
            residual(prob, np.zeros(1), use_mismatched=True)


@pytest.mark.filterwarnings("ignore:step size")
class TestRedStep:
    """One SD-RED step x - gamma*G(x), as run_sd_red takes it."""

    def one_step(self, x0, gamma):
        return run_sd_red(one_d_problem(), SolverConfig(gamma=gamma, max_iters=1, x0=x0)).final

    def test_fixed_point_unchanged(self):
        x = np.array([2.0 / 3.0])
        assert np.allclose(self.one_step(x, 0.1), x)

    def test_hand_step(self):
        assert np.allclose(self.one_step(np.array([0.0]), 0.1), [0.1])


class TestRunSdRed:
    @pytest.mark.filterwarnings("ignore:step size")
    def test_converges_to_closed_form_zero(self):
        prob = one_d_problem()
        cfg = SolverConfig(gamma=0.1, max_iters=200, x0=np.array([0.0]))
        trace = run_sd_red(prob, cfg)
        assert abs(trace.final[0] - 2.0 / 3.0) <= 1e-8

    def test_exact_prior_at_fixed_point_stays(self):
        prob = one_d_problem()
        xstar = np.array([2.0 / 3.0])
        cfg = SolverConfig(gamma=0.05, max_iters=50, x0=xstar, x_ref=xstar)
        trace = run_sd_red(prob, cfg)
        assert all(d <= 1e-15 for d in trace.dist_to_ref)

    def test_mismatched_fixed_point_and_gap_bound(self):
        eps = 0.2
        prob = one_d_problem(epsilon=eps)
        # fixed direction on shape (1,) is the unit vector +-1; Ghat zero at (1 + tau*sigma*eps*u)/1.5
        u = prob.mismatched._unit_direction(np.zeros(1))[0]
        xhat = (1.0 + eps * u) / 1.5
        cfg = SolverConfig(gamma=0.04, max_iters=3000, x_ref=np.array([2.0 / 3.0]))
        trace = run_sd_red(prob, cfg)
        assert abs(trace.final[0] - xhat) <= 1e-10
        gap = abs(trace.final[0] - 2.0 / 3.0)
        assert abs(gap - eps / 1.5) <= 1e-10
        # gap stays below the contraction-bound error floor tau*sigma*eps*A
        from sdred.theory import theorem1_constants

        eta, a_const = theorem1_constants(0.5, 1.0, 1.0, 0.04)
        assert gap <= 1.0 * 1.0 * eps * a_const

    def test_default_init_is_adjoint_image(self):
        prob = one_d_problem()
        cfg = SolverConfig(gamma=0.05, max_iters=1)
        trace = run_sd_red(prob, cfg)
        x0 = prob.fidelity.adjoint_image()
        expected = x0 - 0.05 * residual(prob, x0)
        assert np.allclose(trace.final, expected)

    def test_divergence_detected_with_iteration_index(self):
        fid = DataFidelity(MatrixOperator(np.array([[1.0]])), np.array([1.0]), lipschitz=1.0)
        # expansive "prior" drives the iterate to overflow
        prior = LinearPrior(np.array([[-200.0]]))
        prior._lam = 1.0  # claim validity so only the numeric guard trips
        prob = Problem(fidelity=fid, prior=prior, tau=1.0, sigma=1.0)
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            run_sd_red(prob, SolverConfig(gamma=0.3, max_iters=500, x0=np.array([1.0])))
        assert err.value.iteration >= 1

    def test_determinism_bit_identical(self):
        prob = one_d_problem(epsilon=0.1)
        cfg = lambda: SolverConfig(gamma=0.04, max_iters=100, x_ref=np.array([2.0 / 3.0]))
        t1 = run_sd_red(prob, cfg())
        t2 = run_sd_red(prob, cfg())
        assert np.array_equal(t1.final, t2.final)
        assert t1.g_norm_sq == t2.g_norm_sq
        assert t1.dist_to_ref == t2.dist_to_ref

    def test_step_size_warning_outside_ranges(self):
        prob = one_d_problem()
        with pytest.warns(UserWarning):
            run_sd_red(prob, SolverConfig(gamma=5.0, max_iters=2, x0=np.array([0.0])))

    def test_record_stride_and_final_always_recorded(self):
        prob = one_d_problem()
        cfg = SolverConfig(gamma=0.05, max_iters=10, record_stride=4, x0=np.zeros(1))
        trace = run_sd_red(prob, cfg)
        assert trace.iters == [0, 4, 8, 10]

    def test_objective_and_psnr_only_at_recorded_iterates(self, monkeypatch):
        counts = {"objective": 0, "psnr": 0}

        class CountingObjective:
            def value(self, x):
                counts["objective"] += 1
                return 0.0

        def counting_psnr(*args, **kwargs):
            counts["psnr"] += 1
            return psnr(*args, **kwargs)

        monkeypatch.setattr(solver, "psnr", counting_psnr)
        prob = one_d_problem()
        cfg = SolverConfig(gamma=0.05, max_iters=10, record_stride=4, x0=np.zeros(1),
                           objective=CountingObjective(), ground_truth=np.ones(1))
        trace = run_sd_red(prob, cfg)
        assert trace.iters == [0, 4, 8, 10]
        assert counts == {"objective": 4, "psnr": 4}

    @pytest.mark.filterwarnings("ignore:step size")
    def test_tolerance_stop(self):
        prob = one_d_problem()
        cfg = SolverConfig(gamma=0.1, max_iters=10000, tol=1e-13, x0=np.zeros(1))
        trace = run_sd_red(prob, cfg)
        assert trace.stopped_at < 10000
        assert abs(trace.final[0] - 2.0 / 3.0) <= 1e-10

    @pytest.mark.filterwarnings("ignore:step size")
    def test_r0_and_running_max(self):
        prob = one_d_problem()
        xstar = np.array([2.0 / 3.0])
        cfg = SolverConfig(gamma=0.1, max_iters=50, x0=np.zeros(1), x_ref=xstar)
        trace = run_sd_red(prob, cfg)
        assert abs(trace.r0 - 2.0 / 3.0) <= 1e-15
        assert abs(trace.r_max - trace.r0) <= 1e-15  # monotone approach


class TestExactPriorContraction:
    def test_per_step_contraction_factor(self):
        rng = np.random.default_rng(0)
        n = 6
        mat = rng.standard_normal((n, n)) / np.sqrt(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = 0.6
        prior = LinearPrior(lam * q, 0.05 * rng.standard_normal(n))
        fid = DataFidelity(MatrixOperator(mat), rng.standard_normal(n))
        prob = Problem(fidelity=fid, prior=prior, tau=1.2, sigma=1.0)
        L = fid.lipschitz
        gamma = 0.5 * (1 - lam) * 1.2 / (L + (1 + lam) * 1.2) ** 2
        xstar = reference_zero(prob)
        from sdred.theory import theorem1_constants

        eta, _ = theorem1_constants(lam, L, 1.2, gamma)
        cfg = SolverConfig(gamma=gamma, max_iters=400, x_ref=xstar)
        trace = run_sd_red(prob, cfg)
        for a, b in zip(trace.dist_to_ref, trace.dist_to_ref[1:]):
            if a > 1e-12:
                assert b / a <= eta + 1e-10


class TestSmoothedDescent:
    def test_per_iteration_descent_inequality(self):
        # proximal prior with tau = 1/sigma^2: one SD-RED step descends the
        # smoothed objective up to (gamma/2)*(tau*sigma*eps)^2
        rng = np.random.default_rng(1)
        n = 8
        mat = rng.standard_normal((n + 4, n)) / np.sqrt(n + 4)
        reg = L1Norm(0.2)
        prior = ProximalPrior(reg)
        sigma = 1.2
        tau = 1.0 / sigma**2
        eps = 0.3
        fid = DataFidelity(MatrixOperator(mat), rng.standard_normal(n + 4))
        prob = Problem(
            fidelity=fid, prior=prior, tau=tau, sigma=sigma,
            mismatched=perturb_prior(prior, eps),
        )
        gamma = 0.5 / (fid.lipschitz + 2 * tau)

        def f_smooth(x):
            return fid.value(x) + tau * moreau_envelope(reg, sigma**2, x)

        x = fid.adjoint_image()
        for _ in range(100):
            g_true = residual(prob, x, use_mismatched=False)
            x_next = x - gamma * residual(prob, x, use_mismatched=True)
            lhs = f_smooth(x_next)
            rhs = (
                f_smooth(x)
                - 0.5 * gamma * float(np.sum(g_true**2))
                + 0.5 * gamma * (tau * sigma * eps) ** 2
            )
            assert lhs <= rhs + 1e-8
            x = x_next


class TestReferenceZero:
    def test_one_d_closed_form(self):
        assert abs(reference_zero(one_d_problem())[0] - 2.0 / 3.0) <= 1e-12

    def test_identity_everything_returns_y(self):
        y = np.array([0.3, -1.1, 0.9])
        fid = DataFidelity(IdentityOperator((3,)), y)
        prob = Problem(fidelity=fid, prior=LinearPrior(np.eye(3)), tau=2.3, sigma=1.0)
        assert np.allclose(reference_zero(prob), y, atol=1e-10)

    def test_cg_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            n = int(rng.integers(2, 65))
            mat = rng.standard_normal((n, n)) / np.sqrt(n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = float(rng.uniform(0.2, 0.9))
            b = 0.1 * rng.standard_normal(n)
            prior = LinearPrior(lam * q, b)
            y = rng.standard_normal(n)
            tau = float(rng.uniform(0.5, 2.0))
            fid = DataFidelity(MatrixOperator(mat), y)
            prob = Problem(fidelity=fid, prior=prior, tau=tau, sigma=1.0)
            dense = np.linalg.solve(
                mat.T @ mat + tau * (np.eye(n) - lam * q), mat.T @ y + tau * b
            )
            assert np.linalg.norm(reference_zero(prob) - dense) <= 1e-9 * (1 + np.linalg.norm(dense))

    def test_gaussian_prior_quadratic_instance(self):
        rng = np.random.default_rng(3)
        n = 10
        mat = rng.standard_normal((n, n)) / np.sqrt(n)
        prior = GaussianMapPrior(0.2, 1.5)
        y = rng.standard_normal(n)
        fid = DataFidelity(MatrixOperator(mat), y)
        sigma = 1.0
        prob = Problem(fidelity=fid, prior=prior, tau=0.8, sigma=sigma)
        shrink = 1.5 / (1.5 + 1.0)
        dense = np.linalg.solve(
            mat.T @ mat + 0.8 * (1 - shrink) * np.eye(n),
            mat.T @ y + 0.8 * (1 - shrink) * 0.2 * np.ones(n),
        )
        assert np.linalg.norm(reference_zero(prob) - dense) <= 1e-9 * (1 + np.linalg.norm(dense))

    def test_iterative_fallback_for_prox_prior(self):
        rng = np.random.default_rng(4)
        n = 6
        mat = rng.standard_normal((n + 4, n)) / np.sqrt(n)
        fid = DataFidelity(MatrixOperator(mat), rng.standard_normal(n + 4))
        prob = Problem(fidelity=fid, prior=ProximalPrior(L1Norm(0.1)), tau=1.0, sigma=1.0)
        xstar = reference_zero(prob)
        res = np.linalg.norm(residual(prob, xstar))
        res0 = np.linalg.norm(residual(prob, fid.adjoint_image()))
        assert res <= 1e-9 * (1 + res0)

    @pytest.mark.parametrize("family", ["l1", "linear"])
    def test_attached_mismatch_is_ignored(self, family):
        # Zer(G) belongs to the true prior: attaching D-hat changes no bit.
        rng = np.random.default_rng(5)
        n = 6
        mat = rng.standard_normal((n + 4, n)) / np.sqrt(n)
        fid = DataFidelity(MatrixOperator(mat), rng.standard_normal(n + 4))
        if family == "l1":
            prior = ProximalPrior(L1Norm(0.1))  # the Anderson solve
        else:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            prior = LinearPrior(0.5 * q, 0.1 * rng.standard_normal(n))  # the CG solve
        plain = Problem(fidelity=fid, prior=prior, tau=1.0, sigma=1.0)
        attached = Problem(fidelity=fid, prior=prior, tau=1.0, sigma=1.0,
                           mismatched=perturb_prior(prior, 0.3))
        assert np.array_equal(reference_zero(attached), reference_zero(plain))


class TestStepSizeCheck:
    def test_contraction_threshold_example(self):
        report = check_step_size(0.5, 1.0, 1.0, 0.05)
        assert abs(report.contraction_threshold - 0.08) <= 1e-15
        assert report.regime == "contraction"

    def test_nonexpansive_thresholds_at_lambda_one(self):
        report = check_step_size(1.0, 1.0, 1.0, 0.2)
        assert report.contraction_threshold == 0.0
        assert abs(report.nonexpansive_threshold - 1.0 / 3.0) <= 1e-15
        assert report.regime == "nonexpansive"

    def test_zero_gamma_invalid_everywhere(self):
        report = check_step_size(0.5, 1.0, 1.0, 0.0)
        assert not report.in_contraction_range
        assert not report.in_nonexpansive_range
        assert report.regime == "neither"
