"""Data-fidelity terms, regularizers with proximal operators, and Moreau utilities."""

import math

import numpy as np

from ._kernels import grad2d, tv_prox_dual
from .operators import _check_shape


class DataFidelity:
    """Least-squares fidelity g(x) = 0.5 ||y - A x||_2^2.

    ``lipschitz`` is the gradient-Lipschitz constant L = ||A||_2^2, taken
    from the operator's spectral norm unless supplied.
    """

    def __init__(self, op, y, lipschitz=None):
        y = np.asarray(y)
        _check_shape("DataFidelity measurements", y, op.output_shape)
        self.op = op
        self.y = y
        if lipschitz is None:
            lipschitz = op.spectral_norm() ** 2
        if not np.isfinite(lipschitz) or lipschitz < 0:
            raise ValueError(f"invalid Lipschitz constant {lipschitz}")
        self.lipschitz = float(lipschitz)

    def value(self, x):
        return self._value_of(self.op.forward(x) - self.y)

    def gradient(self, x):
        """A^H (A x - y); the real part when x is a real array."""
        x = np.asarray(x)
        return self._gradient_of(x, self.op.forward(x) - self.y)

    def gradient_and_value(self, x):
        """``(gradient(x), value(x))`` from one evaluation of A x - y."""
        x = np.asarray(x)
        r = self.op.forward(x) - self.y
        return self._gradient_of(x, r), self._value_of(r)

    @staticmethod
    def _value_of(r):
        return 0.5 * float(np.sum(np.abs(r) ** 2))

    def _gradient_of(self, x, r):
        g = self.op.adjoint(r)
        if np.isrealobj(x):
            return np.real(g)
        return g

    def adjoint_image(self):
        """A^H y, the standard zero-filled initialization (real part)."""
        return np.real(self.op.adjoint(self.y))


class Regularizer:
    """Convex regularizer h with a proximal rule and a subgradient bound.

    ``prox(z, mu)`` returns argmin_x 0.5||x - z||^2 + mu*h(x); the bound
    ``subgradient_bound(shape)`` is a valid Lipschitz constant of h on
    arrays of that shape.
    """

    def value(self, x):
        raise NotImplementedError

    def prox(self, z, mu):
        raise NotImplementedError

    def subgradient_bound(self, shape):
        raise NotImplementedError


class L1Norm(Regularizer):
    """h(x) = weight * ||x||_1 with the elementwise soft-threshold prox."""

    def __init__(self, weight=1.0):
        if weight <= 0:
            raise ValueError("l1 weight must be positive")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.sum(np.abs(x)))

    def prox(self, z, mu):
        if mu < 0:
            raise ValueError("prox parameter must be nonnegative")
        z = np.asarray(z, dtype=float)
        thresh = self.weight * mu
        return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)

    def subgradient_bound(self, shape):
        return self.weight * math.sqrt(np.prod(shape))

    def moreau_exact(self, x, mu):
        """Closed-form envelope: elementwise Huber with knee weight*mu."""
        t = self.weight * mu
        a = np.abs(np.asarray(x, dtype=float))
        quad = 0.5 * a**2
        lin = t * a - 0.5 * t**2
        return float(np.where(a <= t, quad, lin).sum())


class AnisotropicTV(Regularizer):
    """h(x) = weight * ||D x||_1 with forward differences, replicate boundary.

    The prox is computed by dual projected gradient with step 1/8 (a bound on
    the norm of the divergence-gradient composition for this stencil).
    """

    DUAL_STEP = 0.125

    def __init__(self, weight=1.0, inner_iters=200, inner_tol=1e-9):
        if weight <= 0:
            raise ValueError("tv weight must be positive")
        if inner_iters < 1:
            raise ValueError("need at least one inner iteration")
        self.weight = float(weight)
        self.inner_iters = int(inner_iters)
        self.inner_tol = float(inner_tol)

    def value(self, x):
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError("anisotropic TV is defined for 2-D images")
        return self.weight * float(np.sum(np.abs(grad2d(x))))

    def prox(self, z, mu, inner_iters=None, inner_tol=None):
        if mu < 0:
            raise ValueError("prox parameter must be nonnegative")
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            raise ValueError("anisotropic TV is defined for 2-D images")
        iters = self.inner_iters if inner_iters is None else int(inner_iters)
        tol = self.inner_tol if inner_tol is None else float(inner_tol)
        x, _, _ = tv_prox_dual(z, mu * self.weight, self.DUAL_STEP, iters, tol)
        return x

    def subgradient_bound(self, shape):
        # Subgradients are weight * D^T s with |s| <= 1 componentwise, so the
        # l2->l1 route needs the operator norm of D too: sqrt(8)*sqrt(2*H*W).
        # A checkerboard probe shows the factor sqrt(8) cannot be dropped.
        return self.weight * 4.0 * math.sqrt(np.prod(shape))


def moreau_envelope(reg, sigma2, x):
    """Moreau envelope of h at smoothing sigma2, evaluated through the prox."""
    if sigma2 <= 0:
        raise ValueError("smoothing parameter must be positive")
    x = np.asarray(x, dtype=float)
    v = reg.prox(x, sigma2)
    return 0.5 * float(np.sum((v - x) ** 2)) + sigma2 * reg.value(v)


def moreau_gradient(reg, sigma2, x):
    """Gradient of the Moreau envelope: the prox residual x - prox(x)."""
    if sigma2 <= 0:
        raise ValueError("smoothing parameter must be positive")
    x = np.asarray(x, dtype=float)
    return x - reg.prox(x, sigma2)
