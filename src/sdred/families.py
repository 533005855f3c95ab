"""Randomized instance families for theorem-bound verification.

Each builder returns the problem, a ready solver configuration, and the
constants the bound checks need.  The linear-Gaussian family exercises the
contraction regime with an affine prior of known Lipschitz constant; the
l1 proximal family exercises the nonexpansive regime (and, with
tau = 1/sigma^2, the smoothed-objective bound).
"""

from dataclasses import dataclass

import numpy as np

from .objectives import DataFidelity, L1Norm
from .operators import MatrixOperator
from .priors import LinearPrior, ProximalPrior, perturb_prior
from .solver import Problem, SolverConfig, affine_residual, default_gamma, reference_zero


@dataclass
class TheoryInstance:
    problem: Problem
    config: SolverConfig
    constants: dict
    seed: int


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _linear_base(seed, mat, lam, rng):
    """Draw Q, b and y for the prior D(x) = lam*Q*x + b around a drawn matrix."""
    n = mat.shape[1]
    prior = LinearPrior(lam * _random_orthogonal(rng, n), 0.1 * rng.standard_normal(n))
    y = rng.standard_normal(n)
    op = MatrixOperator(mat)
    return {
        "seed": seed,
        "prior": prior,
        "lam": lam,
        "y": y,
        "op": op,
        "L": op.spectral_norm() ** 2,
    }


def make_linear_contraction_instance(
    seed,
    n_max=64,
    lam_range=(0.2, 0.9),
    eps_range=(0.0, 0.5),
    t=500,
):
    """Linear-Gaussian contraction instance with a dense-solve reference.

    The prior is D(x) = lam*Q*x + b with Q orthogonal, so its Lipschitz
    constant is exactly lam; the mismatch saturates ||Dhat - D|| = sigma*eps
    in a fixed direction, keeping the perturbed problem affine with a
    closed-form fixed point.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    mat = rng.standard_normal((n, n)) / np.sqrt(n)
    lam = float(rng.uniform(*lam_range))
    epsilon = float(rng.uniform(*eps_range))
    tau = float(rng.uniform(0.5, 2.0))
    sigma = float(rng.uniform(0.5, 2.0))
    base = _linear_base(seed, mat, lam, rng)
    problem, config = make_linear_sweep_cell(base, tau, sigma, epsilon, t)
    constants = {
        "n": n, "lambda": lam, "L": base["L"], "tau": tau, "sigma": sigma,
        "epsilon": epsilon, "gamma": config.gamma, "t": t,
    }
    return TheoryInstance(problem=problem, config=config, constants=constants, seed=seed)


def make_linear_sweep_base(seed, n, lam):
    """One fixed linear-Gaussian instance whose (tau, sigma, epsilon) are swept."""
    if not (0 < lam < 1):
        raise ValueError("sweep base needs a contractive prior, lam in (0, 1)")
    rng = np.random.default_rng(seed)
    return _linear_base(seed, rng.standard_normal((n, n)) / np.sqrt(n), lam, rng)


def make_linear_sweep_cell(base, tau, sigma, epsilon, t):
    """Problem and solver config for one (tau, sigma, epsilon) sweep cell.

    The mismatch direction comes from the base seed, so it is identical
    across cells and the converged distance to the true fixed point scales
    exactly with tau*sigma*epsilon at fixed tau.  The reference is the dense
    solve of K x = h, with (K, h) = (A^T A + tau*(I - lam*Q), A^T y + tau*b)
    from :func:`~sdred.solver.affine_residual`.
    """
    prior, L = base["prior"], base["L"]
    fid = DataFidelity(base["op"], base["y"], lipschitz=L)
    mismatched = perturb_prior(prior, epsilon, mode="fixed", direction_seed=base["seed"])
    problem = Problem(fidelity=fid, prior=prior, tau=tau, sigma=sigma, mismatched=mismatched)
    gamma = default_gamma(base["lam"], L, tau)
    x_ref = np.linalg.solve(*affine_residual(problem))
    config = SolverConfig(gamma=gamma, max_iters=t, x_ref=x_ref)
    return problem, config


def prox_gradient_reference(fidelity, reg, max_iters=50000, tol=1e-12):
    """Long proximal-gradient run on f = g + h; returns (x, f(x)).

    Supplies the optimal value the smoothed-objective bound is measured
    against.
    """
    step = 1.0 / fidelity.lipschitz
    x = fidelity.adjoint_image()
    for _ in range(max_iters):
        x_new = reg.prox(x - step * fidelity.gradient(x), step)
        if np.linalg.norm(x_new - x) <= tol * max(1.0, np.linalg.norm(x)):
            x = x_new
            break
        x = x_new
    return x, fidelity.value(x) + reg.value(x)


def make_prox_l1_instance(
    seed,
    n_max=64,
    eps_range=(0.0, 0.5),
    t=2000,
    weight_range=(0.05, 0.3),
    sigma_fixed=None,
):
    """l1 proximal-prior instance (lambda = 1) with tau = 1/sigma^2.

    The fidelity matrix has full column rank so the reference computations
    converge linearly; gamma is :func:`~sdred.solver.default_gamma`, half of
    1/(L+2*tau).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    m = n + 8
    mat = rng.standard_normal((m, n)) / np.sqrt(m)
    weight = float(rng.uniform(*weight_range))
    epsilon = float(rng.uniform(*eps_range))
    sigma = float(rng.uniform(0.7, 1.5)) if sigma_fixed is None else float(sigma_fixed)
    tau = 1.0 / sigma**2

    x_true = rng.standard_normal(n) * (rng.random(n) < 0.4)
    y = mat @ x_true

    op = MatrixOperator(mat)
    L = op.spectral_norm() ** 2
    fid = DataFidelity(op, y, lipschitz=L)
    reg = L1Norm(weight)
    prior = ProximalPrior(reg)
    mismatched = perturb_prior(prior, epsilon, mode="fixed", direction_seed=seed)
    problem = Problem(fidelity=fid, prior=prior, tau=tau, sigma=sigma, mismatched=mismatched)

    gamma = default_gamma(prior.lipschitz(sigma), L, tau)
    x_ref = reference_zero(problem, gamma=gamma)
    config = SolverConfig(gamma=gamma, max_iters=t, x_ref=x_ref, objective=reg)
    constants = {
        "n": n, "lambda": 1.0, "L": L, "tau": tau, "sigma": sigma,
        "epsilon": epsilon, "gamma": gamma, "t": t, "weight": weight,
        "S": reg.subgradient_bound((n,)),
    }
    return TheoryInstance(problem=problem, config=config, constants=constants, seed=seed)
