import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdred import _kernels as kernels
from sdred.metrics import make_phantom


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
    def test_constant_image_zero_gradient(self):
        assert np.all(kernels.grad2d(3.0 * np.ones((5, 7))) == 0)

    def test_hand_2x2(self):
        g = kernels.grad2d(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert np.array_equal(g[0], [[1.0, 0.0], [1.0, 0.0]])  # horizontal
        assert np.array_equal(g[1], np.zeros((2, 2)))  # vertical

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
        nan_at=st.just(None),  # NaN inputs come from the examples only
    )
    @example(h=1, w=9, mu=0.5, max_iters=200, tol=1e-6, seed=1, nan_at=None)
    @example(h=9, w=1, mu=0.5, max_iters=200, tol=1e-6, seed=2, nan_at=None)
    @example(h=1, w=1, mu=0.5, max_iters=3, tol=0.0, seed=3, nan_at=None)
    # stops at iteration 15 after iterations that only read witnesses
    @example(h=8, w=8, mu=0.3, max_iters=200, tol=1e-2, seed=5, nan_at=None)
    @example(h=6, w=5, mu=0.5, max_iters=50, tol=0.0, seed=6, nan_at=None)
    @example(h=5, w=7, mu=0.5, max_iters=1, tol=1e-6, seed=8, nan_at=None)
    @example(h=5, w=7, mu=0.5, max_iters=2, tol=1e-6, seed=8, nan_at=None)
    # every dual entry clips to +-mu on the first iteration, so every witness
    # fails on the second, and that full pass stops the loop
    @example(h=5, w=7, mu=1e-6, max_iters=50, tol=1e-12, seed=7, nan_at=None)
    # a NaN in z: NaN dual changes fail every witness
    @example(h=6, w=6, mu=0.5, max_iters=40, tol=1e-6, seed=9, nan_at=14)
    @example(h=12, w=12, mu=0.5, max_iters=200, tol=1e-9, seed=10, nan_at=0)
    @example(h=1, w=5, mu=0.5, max_iters=200, tol=0.0, seed=11, nan_at=4)
    def test_matches_reference_loop(self, h, w, mu, max_iters, tol, seed, nan_at):
        z = np.random.default_rng(seed).standard_normal((h, w))
        if nan_at is not None:
            z.flat[nan_at % z.size] = np.nan
        z_before = z.copy()
        x, iters, resid = kernels.tv_prox_dual(z, mu, 0.125, max_iters, tol)
        x_ref, iters_ref, resid_ref = reference_tv_prox_dual(z, mu, 0.125, max_iters, tol)
        assert np.array_equal(x, x_ref, equal_nan=True)
        assert iters == iters_ref
        assert resid == resid_ref or (np.isnan(resid) and np.isnan(resid_ref))
        assert np.array_equal(z, z_before, equal_nan=True)
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

    def test_two_full_residual_passes_when_capped(self, monkeypatch):
        # A 32x32 recon-like image at the recon's mu and inner settings: the
        # loop runs to its cap, and only the first and the last iteration
        # take the full max-norm pass; the others are refuted by witnesses.
        z = make_phantom(32) + 0.05 * np.random.default_rng(0).standard_normal((32, 32))
        calls = []
        full_pass = kernels._max_change

        def counted(*args):
            calls.append(None)
            return full_pass(*args)

        monkeypatch.setattr(kernels, "_max_change", counted)
        _, iters, resid = kernels.tv_prox_dual(z, 0.01, 0.125, 60, 1e-9)
        assert iters == 60 and resid >= 1e-9
        assert len(calls) == 2
