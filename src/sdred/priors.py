"""Strength-parameterized priors and controlled mismatch wrappers.

A prior is a mapping ``apply(x, sigma)`` with a declared Lipschitz constant
``lipschitz(sigma)`` in (0, 1].  Mismatched priors add a norm-controlled
offset of exactly sigma*epsilon, so the mismatch constant is known by
construction rather than estimated from a trained network.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np


class ConvexityError(ValueError):
    """A 1-D density failed its grid log-concavity certificate."""


class Prior:
    def apply(self, x, sigma):
        raise NotImplementedError

    def lipschitz(self, sigma):
        raise NotImplementedError

    def affine_parts(self, sigma, shape):
        """(W, W^T, b) callables/offset when D(x) = W x + b at this sigma, else None."""
        return None


class ProximalPrior(Prior):
    """Exact proximal prior D_sigma(x) = prox of sigma^2 * h; nonexpansive."""

    def __init__(self, reg):
        self.reg = reg

    def apply(self, x, sigma):
        return self.reg.prox(np.asarray(x, dtype=float), sigma**2)

    def lipschitz(self, sigma):
        return 1.0


def gaussian_map_denoise(mean, variances, sigma, z):
    """Exact MAP (= MMSE) denoiser for a diagonal Gaussian prior under AWGN.

    D(z) = mean + v/(v + sigma^2) * (z - mean), elementwise.
    """
    variances = np.asarray(variances, dtype=float)
    if np.any(variances <= 0):
        raise ValueError("prior variances must be positive")
    shrink = variances / (variances + sigma**2)
    return mean + shrink * (np.asarray(z, dtype=float) - mean)


class GaussianMapPrior(Prior):
    """Diagonal Gaussian MAP denoiser; contraction for every sigma > 0."""

    def __init__(self, mean, variances):
        self.mean = np.asarray(mean, dtype=float)
        self.variances = np.asarray(variances, dtype=float)
        if np.any(self.variances <= 0):
            raise ValueError("prior variances must be positive")

    def apply(self, x, sigma):
        return gaussian_map_denoise(self.mean, self.variances, sigma, x)

    def lipschitz(self, sigma):
        return float(np.max(self.variances / (self.variances + sigma**2)))

    def affine_parts(self, sigma, shape):
        shrink = self.variances / (self.variances + sigma**2)
        offset = np.broadcast_to(self.mean * (1.0 - shrink), shape).astype(float)

        def apply_w(v):
            return shrink * v

        return apply_w, apply_w, offset.copy()


class LinearPrior(Prior):
    """Affine prior D(x) = W x + b on 1-D vectors, sigma-independent."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("linear prior needs a square matrix")
        n = self.matrix.shape[0]
        self.offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
        self._lam = float(np.linalg.norm(self.matrix, 2))

    def apply(self, x, sigma):
        return self.matrix @ x + self.offset

    def lipschitz(self, sigma):
        return self._lam

    def affine_parts(self, sigma, shape):
        if tuple(shape) != (self.matrix.shape[0],):
            return None

        def apply_w(v):
            return self.matrix @ v

        def apply_wt(v):
            return self.matrix.T @ v

        return apply_w, apply_wt, self.offset.copy()


def _hashed_seed(x):
    digest = hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class MismatchedPrior(Prior):
    """Base prior plus an offset of norm exactly sigma*epsilon.

    ``mode='fixed'`` uses one unit direction for every input (the distance
    bound is saturated with a constant direction); ``mode='hashed'`` derives
    the unit direction deterministically from a 64-bit hash of the input
    bytes, so the bound stays saturated while the direction varies.
    """

    def __init__(self, base, epsilon, mode="fixed", direction_seed=0):
        if epsilon < 0:
            raise ValueError("mismatch epsilon must be nonnegative")
        if mode not in ("fixed", "hashed"):
            raise ValueError(f"unknown mismatch mode {mode!r}")
        self.base = base
        self.epsilon = float(epsilon)
        self.mode = mode
        self.direction_seed = int(direction_seed)
        self._fixed_offsets = {}

    def _unit_direction(self, x):
        seed = self.direction_seed if self.mode == "fixed" else _hashed_seed(x)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(np.shape(x) if np.shape(x) else (1,))
        return u / np.linalg.norm(u)

    def offset(self, x, sigma):
        """The offset at x, of norm sigma*epsilon.

        In fixed mode it depends on x only through its shape, so it is built
        once per (shape, sigma) and returned read-only.
        """
        if self.mode == "hashed":
            return self._build_offset(x, sigma)
        key = (np.shape(x), sigma)
        off = self._fixed_offsets.get(key)
        if off is None:
            off = self._build_offset(x, sigma)
            off.setflags(write=False)
            self._fixed_offsets[key] = off
        return off

    def _build_offset(self, x, sigma):
        if self.epsilon == 0.0:
            return np.zeros(np.shape(x))
        return (sigma * self.epsilon) * self._unit_direction(x).reshape(np.shape(x))

    def apply(self, x, sigma):
        out = self.base.apply(x, sigma)
        if self.epsilon == 0.0:
            return out
        return out + self.offset(x, sigma)

    def lipschitz(self, sigma):
        # Declared constant of the underlying true prior; in fixed mode the
        # offset is constant so the constant carries over exactly.
        return self.base.lipschitz(sigma)


def perturb_prior(base, epsilon, mode="fixed", direction_seed=0):
    return MismatchedPrior(base, epsilon, mode=mode, direction_seed=direction_seed)


@dataclass(frozen=True)
class MismatchRow:
    sigma: float
    mean_dist: float
    max_dist: float
    epsilon_hat: float


def estimate_mismatch_epsilon(d, dhat, test_points, sigmas):
    """Per-sigma distance statistics between two priors over test points.

    Returns one row per sigma with the mean and max of ||Dhat(x) - D(x)||_2
    and the implied epsilon_hat = max_dist / sigma (an empirical lower
    estimate of the true mismatch constant).
    """
    if not test_points or not sigmas:
        raise ValueError("need at least one test point and one sigma")
    rows = []
    for sigma in sigmas:
        if sigma <= 0:
            raise ValueError("sigma values must be positive")
        dists = [
            float(np.linalg.norm(dhat.apply(x, sigma) - d.apply(x, sigma)))
            for x in test_points
        ]
        max_dist = max(dists)
        rows.append(
            MismatchRow(
                sigma=float(sigma),
                mean_dist=sum(dists) / len(dists),
                max_dist=max_dist,
                epsilon_hat=max_dist / sigma,
            )
        )
    return rows


class LogConcaveDensity1D:
    """1-D density given by its negative log h on [a, b], certified log-concave.

    The certificate checks second finite differences of h on a uniform grid;
    the density is normalized by composite Simpson quadrature on that grid and
    the log normalization constant is folded into h.
    """

    def __init__(self, neg_log_density, domain, grid_points=4097, certificate_slack=1e-10):
        a, b = float(domain[0]), float(domain[1])
        if not b > a:
            raise ValueError("domain must satisfy a < b")
        if grid_points < 5 or grid_points % 2 == 0:
            raise ValueError("grid_points must be odd and at least 5 for Simpson")
        self._raw = neg_log_density
        self.domain = (a, b)
        self.grid = np.linspace(a, b, grid_points)
        self.spacing = self.grid[1] - self.grid[0]
        values = np.asarray([float(neg_log_density(t)) for t in self.grid])
        if not np.all(np.isfinite(values)):
            raise ValueError("negative log density must be finite on the domain")
        second = values[2:] - 2.0 * values[1:-1] + values[:-2]
        worst = float(second.min())
        if worst < -certificate_slack:
            raise ConvexityError(
                f"log-concavity certificate failed: min second difference {worst:.3e}"
            )
        shift = values.min()
        y = np.exp(-(values - shift))
        z = float(np.sum(y[0:-1:2] + 4.0 * y[1::2] + y[2::2])) * (self.spacing / 3.0)
        if not np.isfinite(z) or z <= 0:
            raise ValueError("normalization quadrature failed")
        self.log_z = float(np.log(z) - shift)
        self._grid_values = values

    def h(self, x):
        """Normalized negative log density (integrates to one on the domain)."""
        return float(self._raw(x)) + self.log_z

    def h_prime(self, x):
        """Central difference with the grid spacing as step."""
        dx = self.spacing
        return (float(self._raw(x + dx)) - float(self._raw(x - dx))) / (2.0 * dx)

    def grid_h(self):
        """Normalized h sampled on the certification grid."""
        return self._grid_values + self.log_z


def map_denoiser_1d(density, sigma, z, tol=1e-10):
    """MAP denoiser for the 1-D AWGN model: argmin 0.5(x-z)^2 + sigma^2 h(x).

    Bisection on the strictly increasing derivative, to ``tol`` in x.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a, b = density.domain
    lo = a + density.spacing
    hi = b - density.spacing

    def phi_prime(x):
        return (x - z) + sigma**2 * density.h_prime(x)

    flo, fhi = phi_prime(lo), phi_prime(hi)
    if flo > 0 or fhi < 0:
        raise ValueError(f"z={z} too close to the domain boundary for a bracketed minimum")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi_prime(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def density_ratio_to_epsilon(log_gap):
    """Smallest epsilon with exp(-eps^2/2) <= density ratio <= exp(eps^2/2)."""
    if log_gap < 0:
        raise ValueError("log gap must be nonnegative")
    return math.sqrt(2.0 * log_gap)


@dataclass(frozen=True)
class Theorem3Report:
    log_gap: float
    epsilon: float
    sigma: float
    max_distance: float
    bound: float
    worst_z: float
    passed: bool


def verify_theorem3_1d(density, density_hat, sigma, grid, slack=1e-6):
    """Check that the MAP-denoiser distance stays below sigma * sqrt(2*log_gap).

    ``log_gap`` is the sup of |log density ratio| of the two normalized
    densities, taken over their certification grid.
    """
    if density.domain != density_hat.domain:
        raise ValueError("densities must share the evaluation domain")
    if len(density.grid) != len(density_hat.grid):
        raise ValueError("densities must share the certification grid")
    log_gap = float(np.max(np.abs(density.grid_h() - density_hat.grid_h())))
    epsilon = density_ratio_to_epsilon(log_gap)
    bound = sigma * epsilon + slack
    worst_z = float(grid[0])
    max_distance = -1.0
    for z in grid:
        dist = abs(map_denoiser_1d(density, sigma, z) - map_denoiser_1d(density_hat, sigma, z))
        if dist > max_distance:
            max_distance = dist
            worst_z = float(z)
    return Theorem3Report(
        log_gap=log_gap,
        epsilon=epsilon,
        sigma=float(sigma),
        max_distance=max_distance,
        bound=bound,
        worst_z=worst_z,
        passed=max_distance <= bound,
    )
