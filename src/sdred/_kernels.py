"""Hot numeric kernels: the image-gradient stencils and the TV-prox dual loop.

The dual projected-gradient loop behind the TV proximal operator is the
inner loop that dominates reconstruction runs.  It is one numpy kernel that
allocates its buffers once per call and nothing per iteration; there is no
jit path and no environment switch.
"""

import numpy as np

# perfbench records which kernel path ran; numpy is the only one.
USE_NUMBA = False


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


def _adjoint_flat(p, W, out):
    """``out = D^T p`` for a dual ``p`` of shape (2, H*W) on the flattened image.

    Per pixel the sum runs ``-p0 + p0[k-1] - p1 + p1[k-W]``, the order in
    which :func:`grad2d_adjoint` accumulates, so both give equal values (an
    exact zero may differ in sign).  The
    entries of ``p`` on the row ends (horizontal) and the last row (vertical)
    must be zero; adding those zeros leaves every sum unchanged.
    """
    p0, p1 = p
    n = out.size
    np.negative(p0, out=out)
    out[1:] += p0[:-1]
    out -= p1
    out[W:] += p1[: n - W]
    return out


def tv_prox_dual(z, mu, step, max_iters, tol):
    """Prox of mu*anisotropic-TV via dual projected gradient (Chambolle 2004).

    Returns (x, iterations_run, final_dual_residual) where the dual residual
    is the max-norm change of the dual variable per sweep.  The loop runs on
    the flattened image, so the stencils are shifts by 1 and by W, and it
    reuses four buffers allocated once per call.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    if mu == 0.0:
        return z.copy(), 0, 0.0
    mu, step, tol = float(mu), float(step), float(tol)
    H, W = z.shape
    n = H * W
    zf = z.ravel()
    # p and q are the current and next dual; they swap every iteration.  The
    # horizontal entries on the row ends and the vertical entries on the last
    # row are zero here and stay zero: the row ends are reset after each
    # difference, and the vertical difference never reaches the last row.
    p = np.zeros((2, n))
    q = np.zeros((2, n))
    w = np.empty(n)
    d = np.empty((2, n))
    row_ends = np.arange(W - 1, n - 1, W)
    iters_run = 0
    resid = np.inf
    for iters_run in range(1, int(max_iters) + 1):
        # w = z - D^T p
        np.subtract(zf, _adjoint_flat(p, W, w), out=w)
        # q = clip(p + step * D w, -mu, mu)
        np.subtract(w[1:], w[:-1], out=q[0, :-1])
        q[0, row_ends] = 0.0
        np.subtract(w[W:], w[: n - W], out=q[1, : n - W])
        q *= step
        q += p
        np.clip(q, -mu, mu, out=q)
        np.subtract(q, p, out=d)
        resid = max(d.max(), -d.min())
        p, q = q, p
        if resid < tol:
            break
    np.subtract(zf, _adjoint_flat(p, W, w), out=w)
    return w.reshape(H, W), iters_run, resid
