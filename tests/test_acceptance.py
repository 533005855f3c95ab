"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Bound checks run at the stated slacks; runtime limits use wall-clock time
(a first TV-prox call warms up the kernel outside the timed section).
"""

import math
import time

import numpy as np

import sdred
from sdred.families import (
    make_linear_contraction_instance,
    make_linear_sweep_base,
    make_linear_sweep_cell,
    make_prox_l1_instance,
    prox_gradient_reference,
)
from sdred.objectives import AnisotropicTV, DataFidelity
from sdred.priors import GaussianMapPrior, ProximalPrior, estimate_mismatch_epsilon, perturb_prior
from sdred.solver import Problem, SolverConfig, run_sd_red
from sdred.theory import (
    optimal_sigma_theorem4,
    theorem1_constants,
    verify_theorem1_trace,
    verify_theorem2_trace,
    verify_theorem4_trace,
)


def report(n, ok, detail):
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_theorem1_hundred_instances():
    t0 = time.perf_counter()
    passed = 0
    for i in range(100):
        inst = make_linear_contraction_instance(
            1000 + i, n_max=64, lam_range=(0.2, 0.9), eps_range=(0.0, 0.5), t=500
        )
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        rep = verify_theorem1_trace(
            trace, lam=c["lambda"], L=c["L"], tau=c["tau"], gamma=c["gamma"],
            sigma=c["sigma"], epsilon=c["epsilon"], slack=1e-9,
        )
        passed += rep.passed
    elapsed = time.perf_counter() - t0
    report(
        1,
        passed == 100 and elapsed < 10.0,
        f"contraction bound {passed}/100 instances, {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_2_exact_prior_per_step_contraction():
    worst = -math.inf
    for i in range(30):
        inst = make_linear_contraction_instance(
            2000 + i, n_max=64, lam_range=(0.2, 0.9), eps_range=(0.0, 0.0), t=500
        )
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        eta, _ = theorem1_constants(c["lambda"], c["L"], c["tau"], c["gamma"])
        for a, b in zip(trace.dist_to_ref, trace.dist_to_ref[1:]):
            if a > 1e-12:
                worst = max(worst, b / a - eta)
    report(2, worst <= 1e-10, f"max per-step factor excess over eta: {worst:.3e} (<= 1e-10)")


def test_criterion_3_theorem2_fifty_instances():
    t0 = time.perf_counter()
    passed = 0
    for i in range(50):
        inst = make_prox_l1_instance(3000 + i, n_max=64, t=2000)
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        rep = verify_theorem2_trace(
            trace, L=c["L"], tau=c["tau"], gamma=c["gamma"], sigma=c["sigma"],
            epsilon=c["epsilon"], slack=1e-9,
        )
        passed += rep.passed
    elapsed = time.perf_counter() - t0
    report(
        3,
        passed == 50 and elapsed < 60.0,
        f"residual-average bound {passed}/50 instances, {elapsed:.2f} s (< 60 s)",
    )


def test_criterion_4_theorem3_oracle_grid():
    t0 = time.perf_counter()
    base = sdred.LogConcaveDensity1D(lambda x: x * x, (-6.0, 6.0), 4097)
    zgrid = np.linspace(-5.0, 5.0, 201)
    cells = 0
    all_ok = True
    for delta in (0.001, 0.005, 0.01):
        hat = sdred.LogConcaveDensity1D(
            lambda x, d=delta: x * x + d * math.cos(x), (-6.0, 6.0), 4097
        )
        for sigma in (0.5, 1.0, 2.0):
            rep = sdred.verify_theorem3_1d(base, hat, sigma, zgrid, slack=1e-6)
            all_ok = all_ok and rep.passed
            cells += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        all_ok and cells == 9 and elapsed < 5.0,
        f"denoiser distance <= sigma*sqrt(2*log_gap)+1e-6 on {cells}/9 cells, "
        f"{elapsed:.2f} s (< 5 s)",
    )


def test_criterion_5_theorem4_objective_bound():
    passed = 0
    count = 20
    for i in range(count):
        inst = make_prox_l1_instance(4000 + i, n_max=64, t=2000)
        trace = run_sd_red(inst.problem, inst.config)
        c = inst.constants
        _, f_star = prox_gradient_reference(
            inst.problem.fidelity, inst.problem.prior.reg, max_iters=50000, tol=1e-12
        )
        rep = verify_theorem4_trace(
            trace, f_star, L=c["L"], tau=c["tau"], gamma=c["gamma"], sigma=c["sigma"],
            epsilon=c["epsilon"], S=c["S"], slack=1e-8,
        )
        passed += rep.passed
    sigma2, min_err = optimal_sigma_theorem4(0.1, 2.0, 1.0)
    closed_forms = abs(sigma2 - 0.2) <= 1e-12 and abs(min_err - 0.2) <= 1e-12
    report(
        5,
        passed == count and closed_forms,
        f"smoothed-objective bound {passed}/{count} instances; "
        f"optimal sigma^2={sigma2:.12f}, min error={min_err:.12f}",
    )


def test_criterion_6_mismatch_linear_in_sigma():
    base = GaussianMapPrior(0.0, 1.0)
    hat = perturb_prior(base, 0.1, mode="fixed")
    rng = np.random.default_rng(6)
    points = [rng.standard_normal((16, 16)) for _ in range(10)]
    sigmas = [1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 10.0, 12.0, 15.0]
    rows = estimate_mismatch_epsilon(base, hat, points, sigmas)
    worst = max(abs(row.epsilon_hat - 0.1) for row in rows)
    report(
        6,
        worst <= 0.001,
        f"max |max_dist/sigma - 0.1| over {len(rows)} noise levels: {worst:.3e} (<= 1e-3)",
    )


def test_criterion_7_error_term_monotonicity():
    base = make_linear_sweep_base(7, n=8, lam=0.4)
    taus = [1.0]
    sigmas = [0.5, 1.0, 2.0]
    epsilons = [0.0, 0.1, 0.25, 0.5]
    dists = {}
    for tau in taus:
        for sigma in sigmas:
            for eps in epsilons:
                problem, cfg = make_linear_sweep_cell(base, tau, sigma, eps, t=4000)
                trace = run_sd_red(problem, cfg)
                dists[(tau, sigma, eps)] = trace.dist_to_ref[-1]
    ok_eps = True
    for tau in taus:
        for sigma in sigmas:
            seq = [dists[(tau, sigma, e)] for e in epsilons]
            ok_eps &= all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))
    by_product = sorted(dists.items(), key=lambda kv: kv[0][0] * kv[0][1] * kv[0][2])
    vals = [v for _, v in by_product]
    ok_prod = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    report(
        7,
        ok_eps and ok_prod,
        f"final dist nondecreasing in eps at fixed (tau, sigma) [{ok_eps}] "
        f"and in tau*sigma*eps across the {len(dists)}-cell grid [{ok_prod}]",
    )


def test_criterion_8_tv_reconstruction():
    # first-call warm-up of the TV kernel, outside the timed section
    AnisotropicTV(0.01, 5, 1e-9).prox(np.zeros((8, 8)), 0.1)
    t0 = time.perf_counter()
    phantom = sdred.make_phantom(128)
    mask = sdred.make_radial_mask(128, 128, 40)
    op = sdred.make_fourier_subsampling(mask)
    fid = DataFidelity(op, op.forward(phantom))
    reg = AnisotropicTV(0.01, inner_iters=60, inner_tol=1e-9)
    problem = Problem(fidelity=fid, prior=ProximalPrior(reg), tau=1.0, sigma=1.0)
    gamma = 0.9 / (fid.lipschitz + 2.0)
    trace = run_sd_red(
        problem,
        SolverConfig(gamma=gamma, max_iters=1000, ground_truth=phantom, record_stride=100),
    )
    elapsed = time.perf_counter() - t0
    peak = float(phantom.max())
    adj_psnr = sdred.psnr(phantom, fid.adjoint_image(), peak=peak)
    final_psnr = sdred.psnr(phantom, trace.final, peak=peak)
    ratio = trace.g_norm_sq[-1] / trace.g_norm_sq[0]
    monotone = all(b <= a + 1e-12 for a, b in zip(trace.g_norm_sq, trace.g_norm_sq[1:]))
    report(
        8,
        0.28 < mask.sampling_ratio < 0.32
        and final_psnr >= adj_psnr + 3.0
        and ratio < 1e-4
        and monotone
        and elapsed < 60.0,
        f"mask ratio {mask.sampling_ratio:.3f}, PSNR {final_psnr:.2f} dB vs adjoint "
        f"{adj_psnr:.2f} dB (gain {final_psnr - adj_psnr:.2f} >= 3), residual ratio "
        f"{ratio:.2e} (< 1e-4) within {trace.stopped_at} iters, {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_9_property_suite_headliners():
    rng = np.random.default_rng(9)
    checks = []

    # adjointness of the Fourier-subsampling operator
    op = sdred.make_fourier_subsampling(sdred.make_radial_mask(16, 16, 5))
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    y = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    lhs = np.vdot(y, op.forward(x))
    rhs = np.vdot(op.adjoint(y), x)
    checks.append(abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(x) * np.linalg.norm(y) + 1))

    # prox nonexpansiveness (l1)
    reg = sdred.L1Norm(0.8)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    checks.append(
        np.linalg.norm(reg.prox(a, 0.7) - reg.prox(b, 0.7)) <= np.linalg.norm(a - b) + 1e-10
    )

    # Moreau sandwich and gradient-vs-finite-differences
    s = reg.subgradient_bound((8,))
    x = rng.standard_normal(8)
    gap = reg.value(x) - sdred.moreau_envelope(reg, 0.5, x) / 0.5
    checks.append(-1e-10 <= gap <= 0.25 * s**2 + 1e-10)
    h = 1e-6
    num = np.zeros(8)
    for i in range(8):
        e = np.zeros(8)
        e[i] = h
        num[i] = (
            sdred.moreau_envelope(reg, 0.5, x + e) - sdred.moreau_envelope(reg, 0.5, x - e)
        ) / (2 * h)
    ana = sdred.moreau_gradient(reg, 0.5, x)
    checks.append(np.linalg.norm(ana - num) <= 1e-5 * (np.linalg.norm(num) + 1.0))

    # mask idempotence
    mask = sdred.make_radial_mask(12, 12, 4)
    proj = sdred.MaskProjection(mask)
    z = rng.standard_normal((12, 12))
    checks.append(np.array_equal(proj.forward(proj.forward(z)), proj.forward(z)))

    # spectral-norm example
    est = sdred.estimate_spectral_norm(sdred.MatrixOperator(np.diag([3.0, 1.0])), 500, 1e-12)
    checks.append(abs(est - 3.0) <= 1e-8)

    # metric unit cases
    img = rng.random((16, 16))
    checks.append(abs(sdred.psnr(img, img + 0.1, peak=1.0) - 20.0) <= 1e-12)
    checks.append(abs(sdred.ssim(img, img, peak=1.0) - 1.0) <= 1e-12)

    report(9, all(checks), f"{sum(checks)}/{len(checks)} property headliners green")
