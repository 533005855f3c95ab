"""Hot numeric kernels: numba-jitted loops with a pure-numpy fallback.

The dual projected-gradient loop behind the TV proximal operator is the
inner loop that dominates reconstruction runs, so it gets a fused @njit
kernel.  Set ``SDRED_NO_NUMBA=1`` in the environment to force the
vectorized numpy path, which also runs whenever numba is not installed.
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("SDRED_NO_NUMBA", "0").lower() not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def grad2d(x):
    """Forward differences with replicate boundary, stacked (horizontal, vertical).

    Output shape is (2, H, W); differences across the last column/row are zero.
    """
    g = np.zeros((2,) + x.shape, dtype=x.dtype)
    g[0, :, :-1] = x[:, 1:] - x[:, :-1]
    g[1, :-1, :] = x[1:, :] - x[:-1, :]
    return g


def grad2d_adjoint(p):
    """Adjoint of :func:`grad2d` (negative discrete divergence)."""
    out = np.zeros(p.shape[1:], dtype=p.dtype)
    out[:, :-1] -= p[0, :, :-1]
    out[:, 1:] += p[0, :, :-1]
    out[:-1, :] -= p[1, :-1, :]
    out[1:, :] += p[1, :-1, :]
    return out


def tv_prox_dual_numpy(z, mu, step, max_iters, tol):
    """Dual projected gradient for prox of mu*TV, vectorized numpy path.

    Returns (x, iterations_run, final_dual_residual) where the dual residual
    is the max-norm change of the dual variable per sweep.
    """
    p = np.zeros((2,) + z.shape)
    iters_run = 0
    resid = np.inf
    for iters_run in range(1, max_iters + 1):
        w = z - grad2d_adjoint(p)
        p_new = np.clip(p + step * grad2d(w), -mu, mu)
        resid = np.abs(p_new - p).max()
        p = p_new
        if resid < tol:
            break
    return z - grad2d_adjoint(p), iters_run, resid


@njit(cache=True)
def tv_prox_dual_jit(z, mu, step, max_iters, tol):  # pragma: no cover - exercised via tv_prox_dual
    H, W = z.shape
    p = np.zeros((2, H, W))
    w = np.empty((H, W))
    resid = np.inf
    iters_run = 0
    for _ in range(max_iters):
        iters_run += 1
        # w = z - D^T p
        for i in range(H):
            for j in range(W):
                acc = 0.0
                if j == 0:
                    acc -= p[0, i, 0]
                elif j == W - 1:
                    acc += p[0, i, W - 2]
                else:
                    acc += p[0, i, j - 1] - p[0, i, j]
                if i == 0:
                    acc -= p[1, 0, j]
                elif i == H - 1:
                    acc += p[1, H - 2, j]
                else:
                    acc += p[1, i - 1, j] - p[1, i, j]
                w[i, j] = z[i, j] - acc
        # p <- clip(p + step * D w), track max change
        resid = 0.0
        for i in range(H):
            for j in range(W):
                if j < W - 1:
                    nv = p[0, i, j] + step * (w[i, j + 1] - w[i, j])
                    nv = min(max(nv, -mu), mu)
                    d = abs(nv - p[0, i, j])
                    if d > resid:
                        resid = d
                    p[0, i, j] = nv
                if i < H - 1:
                    nv = p[1, i, j] + step * (w[i + 1, j] - w[i, j])
                    nv = min(max(nv, -mu), mu)
                    d = abs(nv - p[1, i, j])
                    if d > resid:
                        resid = d
                    p[1, i, j] = nv
        if resid < tol:
            break
    x = np.empty((H, W))
    for i in range(H):
        for j in range(W):
            acc = 0.0
            if j == 0:
                acc -= p[0, i, 0]
            elif j == W - 1:
                acc += p[0, i, W - 2]
            else:
                acc += p[0, i, j - 1] - p[0, i, j]
            if i == 0:
                acc -= p[1, 0, j]
            elif i == H - 1:
                acc += p[1, H - 2, j]
            else:
                acc += p[1, i - 1, j] - p[1, i, j]
            x[i, j] = z[i, j] - acc
    return x, iters_run, resid


def tv_prox_dual(z, mu, step, max_iters, tol):
    """Prox of mu*anisotropic-TV via dual projected gradient (jit or numpy path)."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    if mu == 0.0:
        return z.copy(), 0, 0.0
    if USE_NUMBA:
        return tv_prox_dual_jit(z, float(mu), float(step), int(max_iters), float(tol))
    return tv_prox_dual_numpy(z, float(mu), float(step), int(max_iters), float(tol))
