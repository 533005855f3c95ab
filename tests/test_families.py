import numpy as np

from sdred.families import (
    make_linear_contraction_instance,
    make_linear_sweep_base,
    make_linear_sweep_cell,
    make_prox_l1_instance,
    prox_gradient_reference,
)
from sdred.solver import residual, run_sd_red


class TestLinearFamily:
    def test_constants_within_declared_ranges(self):
        for seed in range(5):
            inst = make_linear_contraction_instance(seed, t=10)
            c = inst.constants
            assert 2 <= c["n"] <= 64
            assert 0.2 <= c["lambda"] <= 0.9
            assert 0.0 <= c["epsilon"] <= 0.5
            thr = (1 - c["lambda"]) * c["tau"] / (c["L"] + (1 + c["lambda"]) * c["tau"]) ** 2
            assert abs(c["gamma"] - 0.5 * thr) <= 1e-15

    def test_reference_is_zero_of_g(self):
        inst = make_linear_contraction_instance(3, t=10)
        g = residual(inst.problem, inst.config.x_ref)
        assert np.linalg.norm(g) <= 1e-10

    def test_prior_lipschitz_is_exact(self):
        inst = make_linear_contraction_instance(4, t=10)
        lam_declared = inst.problem.prior.lipschitz(inst.problem.sigma)
        assert abs(lam_declared - inst.constants["lambda"]) <= 1e-12

    def test_deterministic_given_seed(self):
        a = make_linear_contraction_instance(11, t=10)
        b = make_linear_contraction_instance(11, t=10)
        assert np.array_equal(a.config.x_ref, b.config.x_ref)


class TestSweepCells:
    def test_distance_scales_exactly_with_sigma_epsilon(self):
        base = make_linear_sweep_base(0, n=8, lam=0.5)
        dists = {}
        for sigma, eps in [(1.0, 0.1), (2.0, 0.1), (1.0, 0.3)]:
            problem, cfg = make_linear_sweep_cell(base, tau=1.0, sigma=sigma, epsilon=eps, t=4000)
            trace = run_sd_red(problem, cfg)
            dists[(sigma, eps)] = trace.dist_to_ref[-1]
        unit = dists[(1.0, 0.1)] / 0.1
        assert abs(dists[(2.0, 0.1)] - 0.2 * unit) <= 1e-8
        assert abs(dists[(1.0, 0.3)] - 0.3 * unit) <= 1e-8


    def test_reference_is_the_old_dense_solve_bitwise(self):
        # x_ref solves (A^T A + tau*(I - W)) x = A^T y + tau*b, as the
        # builder wrote it before it took (K, h) from affine_residual.
        for seed in range(4):
            base = make_linear_sweep_base(seed, n=3 + 5 * seed, lam=0.4)
            mat, prior, y = base["op"].mat, base["prior"], base["y"]
            for tau, sigma, eps in [(1.0, 0.5, 0.0), (0.7, 2.0, 0.25)]:
                _, cfg = make_linear_sweep_cell(base, tau, sigma, eps, t=10)
                system = mat.T @ mat + tau * (np.eye(mat.shape[1]) - prior.matrix)
                want = np.linalg.solve(system, mat.T @ y + tau * prior.offset)
                assert np.array_equal(cfg.x_ref, want), (seed, tau)


class TestProxFamily:
    def test_tau_sigma_coupling(self):
        inst = make_prox_l1_instance(0, t=10)
        assert abs(inst.constants["tau"] * inst.constants["sigma"] ** 2 - 1.0) <= 1e-12

    def test_reference_is_zero_of_g(self):
        inst = make_prox_l1_instance(1, t=10)
        g = residual(inst.problem, inst.config.x_ref)
        g0 = residual(inst.problem, inst.problem.fidelity.adjoint_image())
        assert np.linalg.norm(g) <= 1e-9 * (1 + np.linalg.norm(g0))

    def test_prox_gradient_reference_minimizes_composite(self):
        inst = make_prox_l1_instance(2, t=10)
        fid = inst.problem.fidelity
        reg = inst.problem.prior.reg
        x_pg, f_star = prox_gradient_reference(fid, reg, max_iters=20000)
        rng = np.random.default_rng(0)
        for _ in range(20):
            probe = x_pg + 1e-4 * rng.standard_normal(x_pg.shape)
            assert f_star <= fid.value(probe) + reg.value(probe) + 1e-12
