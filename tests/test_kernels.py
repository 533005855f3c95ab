import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdred import _kernels as kernels


def reference_tv_prox_dual(z, mu, step, max_iters, tol):
    """The allocation-based dual loop the kernel replaced, kept as its reference."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    if mu == 0.0:
        return z.copy(), 0, 0.0
    p = np.zeros((2,) + z.shape)
    iters_run = 0
    resid = np.inf
    for iters_run in range(1, max_iters + 1):
        w = z - kernels.grad2d_adjoint(p)
        p_new = np.clip(p + step * kernels.grad2d(w), -mu, mu)
        resid = np.abs(p_new - p).max()
        p = p_new
        if resid < tol:
            break
    return z - kernels.grad2d_adjoint(p), iters_run, resid


class TestStencils:
    def test_grad_div_adjoint_pair(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((7, 5))
            p = rng.standard_normal((2, 7, 5))
            lhs = np.sum(kernels.grad2d(x) * p)
            rhs = np.sum(x * kernels.grad2d_adjoint(p))
            assert abs(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) * np.linalg.norm(p) + 1)

    def test_grad_operator_norm_below_stencil_bound(self):
        # step 1/8 in the dual loop relies on ||D^T D|| <= 8
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 16))
        for _ in range(200):
            x = kernels.grad2d_adjoint(kernels.grad2d(x))
            x /= np.linalg.norm(x)
        lam = np.sum(x * kernels.grad2d_adjoint(kernels.grad2d(x)))
        assert lam <= 8.0 + 1e-12


class TestDualPaths:
    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        mu=st.floats(0.0, 2.0),
        max_iters=st.integers(1, 200),
        tol=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=1, w=9, mu=0.5, max_iters=200, tol=1e-6, seed=1)
    @example(h=9, w=1, mu=0.5, max_iters=200, tol=1e-6, seed=2)
    @example(h=1, w=1, mu=0.5, max_iters=3, tol=0.0, seed=3)
    def test_matches_reference_loop(self, h, w, mu, max_iters, tol, seed):
        z = np.random.default_rng(seed).standard_normal((h, w))
        z_before = z.copy()
        x, iters, resid = kernels.tv_prox_dual(z, mu, 0.125, max_iters, tol)
        x_ref, iters_ref, resid_ref = reference_tv_prox_dual(z, mu, 0.125, max_iters, tol)
        assert np.array_equal(x, x_ref)
        assert iters == iters_ref
        assert resid == resid_ref
        assert np.array_equal(z, z_before)
        assert not np.shares_memory(x, z)

    def test_zero_mu_returns_input(self):
        z = np.random.default_rng(3).standard_normal((6, 6))
        x, iters, resid = kernels.tv_prox_dual(z, 0.0, 0.125, 100, 1e-9)
        assert np.array_equal(x, z)
        assert iters == 0

    def test_tolerance_stops_early(self):
        z = np.random.default_rng(4).standard_normal((8, 8))
        _, it_loose, res = kernels.tv_prox_dual(z, 0.3, 0.125, 10000, 1e-6)
        assert it_loose < 10000
        assert res < 1e-6
