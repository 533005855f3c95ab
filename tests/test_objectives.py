import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdred.objectives import (
    AnisotropicTV,
    DataFidelity,
    L1Norm,
    moreau_envelope,
    moreau_gradient,
)
from sdred.operators import MatrixOperator, make_fourier_subsampling, make_radial_mask

from operator_helpers import IdentityOperator


def central_diff_gradient(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    flat = g.ravel()
    xf = x.astype(float).ravel()
    for i in range(x.size):
        e = np.zeros_like(xf)
        e[i] = h
        flat[i] = (f((xf + e).reshape(x.shape)) - f((xf - e).reshape(x.shape))) / (2 * h)
    return g


class TestLeastSquares:
    def test_zero_at_exact_fit(self):
        x = np.array([1.0, -2.0])
        fid = DataFidelity(IdentityOperator((2,)), x)
        assert fid.value(x) == 0.0

    def test_norm_two_gives_two(self):
        x = np.array([2.0, 0.0])
        fid = DataFidelity(IdentityOperator((2,)), np.zeros(2))
        assert fid.value(x) == 2.0

    def test_hand_value(self):
        fid = DataFidelity(MatrixOperator(np.array([[1.0, 2.0], [3.0, 4.0]])), np.zeros(2))
        assert fid.value(np.array([1.0, 1.0])) == 29.0

    def test_gradient_identity(self):
        fid = DataFidelity(IdentityOperator((3,)), np.zeros(3))
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(fid.gradient(x), x)

    def test_gradient_zero_at_solution(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        fid = DataFidelity(MatrixOperator(mat), mat @ x)
        assert np.linalg.norm(fid.gradient(x)) < 1e-12

    def test_gradient_hand_value(self):
        fid = DataFidelity(MatrixOperator(np.array([[1.0, 2.0], [3.0, 4.0]])), np.zeros(2))
        assert np.allclose(fid.gradient(np.array([1.0, 1.0])), [24.0, 34.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        mask = make_radial_mask(8, 8, 3)
        op = make_fourier_subsampling(mask)
        fid = DataFidelity(op, op.forward(rng.standard_normal((8, 8))))
        for _ in range(5):
            x = rng.standard_normal((8, 8))
            num = central_diff_gradient(fid.value, x)
            ana = fid.gradient(x)
            assert np.linalg.norm(ana - num) <= 1e-5 * (np.linalg.norm(num) + 1.0)

    def test_gradient_lipschitz_bound(self):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((5, 5))
        fid = DataFidelity(MatrixOperator(mat), rng.standard_normal(5))
        for _ in range(50):
            x = rng.standard_normal(5)
            z = rng.standard_normal(5)
            lhs = np.linalg.norm(fid.gradient(x) - fid.gradient(z))
            assert lhs <= fid.lipschitz * np.linalg.norm(x - z) + 1e-8

    def test_gradient_and_value_equal_separate_calls(self):
        rng = np.random.default_rng(3)
        for op in (MatrixOperator(rng.standard_normal((6, 4))),
                   make_fourier_subsampling(make_radial_mask(8, 8, 3))):
            fid = DataFidelity(op, op.forward(rng.standard_normal(op.input_shape)))
            real = rng.standard_normal(op.input_shape)
            for x in (real, real + 1j * rng.standard_normal(op.input_shape)):
                grad, value = fid.gradient_and_value(x)
                want = fid.gradient(x)
                assert grad.dtype == want.dtype
                assert np.array_equal(grad, want)
                assert value == fid.value(x)

    def test_shape_mismatch(self):
        fid = DataFidelity(IdentityOperator((3,)), np.zeros(3))
        with pytest.raises(ValueError):
            fid.value(np.zeros(4))


class TestL1:
    def test_prox_zero_mu_is_identity(self):
        z = np.array([3.0, -0.5])
        assert np.array_equal(L1Norm(1.0).prox(z, 0.0), z)

    def test_prox_against_grid_oracle(self):
        # 1-D oracle: dense grid minimization of 0.5*(x-z)^2 + mu*|x|
        grid = np.linspace(-5, 5, 200001)
        for z, mu in [(3.0, 1.0), (-0.5, 1.0), (0.2, 0.5), (-4.0, 2.5)]:
            oracle = grid[np.argmin(0.5 * (grid - z) ** 2 + mu * np.abs(grid))]
            got = L1Norm(1.0).prox(np.array([z]), mu)[0]
            assert abs(got - oracle) <= 1e-4
        assert np.allclose(L1Norm(1.0).prox(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])

    def test_eval(self):
        assert L1Norm(2.0).value(np.array([1.0, -2.0])) == 6.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            L1Norm(-1.0)

    def test_subgradient_bound(self):
        assert np.isclose(L1Norm(2.0).subgradient_bound((4,)), 4.0)


class TestTV:
    def test_constant_image(self):
        tv = AnisotropicTV(1.0)
        img = 0.7 * np.ones((6, 6))
        assert tv.value(img) == 0.0
        assert np.allclose(tv.prox(img, 0.5), img, atol=1e-12)

    def test_hand_count_2x2(self):
        assert AnisotropicTV(1.0).value(np.array([[0.0, 1.0], [0.0, 1.0]])) == 2.0

    def test_prox_optimality_against_random_neighborhood(self):
        rng = np.random.default_rng(3)
        tv = AnisotropicTV(1.0, inner_iters=500, inner_tol=1e-12)
        z = rng.standard_normal((8, 8))
        mu = 0.4
        x = tv.prox(z, mu)

        def f(v):
            return 0.5 * np.sum((v - z) ** 2) + mu * tv.value(v)

        fx = f(x)
        assert fx <= f(z) + 1e-10
        for _ in range(50):
            assert fx <= f(x + 1e-3 * rng.standard_normal(z.shape)) + 1e-10

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            AnisotropicTV(1.0).value(np.zeros(5))
        with pytest.raises(ValueError):
            AnisotropicTV(1.0).prox(np.zeros(5), 0.1)


class TestProxNonexpansive:
    def test_l1_exact(self):
        rng = np.random.default_rng(4)
        reg = L1Norm(0.7)
        for _ in range(50):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            lhs = np.linalg.norm(reg.prox(a, 0.9) - reg.prox(b, 0.9))
            assert lhs <= np.linalg.norm(a - b) + 1e-10

    def test_tv_within_inner_tolerance(self):
        rng = np.random.default_rng(5)
        reg = AnisotropicTV(1.0, inner_iters=400, inner_tol=1e-12)
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6))
            lhs = np.linalg.norm(reg.prox(a, 0.3) - reg.prox(b, 0.3))
            assert lhs <= np.linalg.norm(a - b) + 1e-6


class TestConvexityProbes:
    def test_midpoint_convexity(self):
        rng = np.random.default_rng(6)
        for reg, shape in ((L1Norm(1.3), (8,)), (AnisotropicTV(0.8), (5, 5))):
            for _ in range(30):
                x = rng.standard_normal(shape)
                z = rng.standard_normal(shape)
                mid = reg.value(0.5 * x + 0.5 * z)
                assert mid <= 0.5 * reg.value(x) + 0.5 * reg.value(z) + 1e-10

    def test_lipschitz_from_subgradient_bound(self):
        rng = np.random.default_rng(7)
        for reg, shape in ((L1Norm(1.3), (8,)), (AnisotropicTV(0.8), (5, 5))):
            s = reg.subgradient_bound(shape)
            for _ in range(30):
                x = rng.standard_normal(shape)
                z = rng.standard_normal(shape)
                lhs = abs(reg.value(x) - reg.value(z))
                assert lhs <= s * np.linalg.norm(x - z) + 1e-10


class TestMoreau:
    def test_scalar_abs_huber_value(self):
        # 1-D brute-force oracle for min_v 0.5*(v-x)^2 + sigma2*|v| at x=2
        grid = np.linspace(-4, 4, 400001)
        oracle = np.min(0.5 * (grid - 2.0) ** 2 + np.abs(grid))
        got = moreau_envelope(L1Norm(1.0), 1.0, np.array([2.0]))
        assert abs(got - oracle) <= 1e-8
        assert abs(got - 1.5) <= 1e-12

    def test_value_at_prox_fixed_point(self):
        # h minimized at x: envelope equals sigma2 * h(x)
        reg = L1Norm(1.0)
        assert moreau_envelope(reg, 0.7, np.zeros(3)) == 0.0

    def test_matches_exact_l1_envelope(self):
        rng = np.random.default_rng(8)
        reg = L1Norm(1.4)
        for _ in range(20):
            x = rng.standard_normal(6)
            assert np.isclose(moreau_envelope(reg, 0.6, x), reg.moreau_exact(x, 0.6))

    def test_sandwich_bound_tight_case(self):
        # at x=2, h=|.|, mu=1: h(x) - envelope = 0.5 = (mu/2)*S^2 with S=1
        reg = L1Norm(1.0)
        x = np.array([2.0])
        gap = reg.value(x) - moreau_envelope(reg, 1.0, x) / 1.0
        assert abs(gap - 0.5) <= 1e-12

    def test_sandwich_bound_random_probes(self):
        rng = np.random.default_rng(9)
        for reg, shape in ((L1Norm(0.9), (5,)), (AnisotropicTV(0.5, 400, 1e-12), (5, 5))):
            s = reg.subgradient_bound(shape)
            for mu in (0.3, 1.0):
                for _ in range(20):
                    x = rng.standard_normal(shape)
                    gap = reg.value(x) - moreau_envelope(reg, mu, x) / mu
                    assert -1e-8 <= gap <= mu / 2 * s**2 + 1e-8

    def test_gradient_is_prox_residual(self):
        # h=|.|, sigma2=1, x=2 -> 2 - soft(2,1) = 1
        g = moreau_gradient(L1Norm(1.0), 1.0, np.array([2.0]))
        assert np.allclose(g, [1.0])

    def test_gradient_zero_at_minimizer(self):
        assert np.all(moreau_gradient(L1Norm(1.0), 1.0, np.zeros(4)) == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        reg = L1Norm(0.8)
        sigma2 = 0.7
        for _ in range(20):
            x = 3.0 * rng.standard_normal(4)
            num = central_diff_gradient(lambda v: moreau_envelope(reg, sigma2, v), x)
            ana = moreau_gradient(reg, sigma2, x)
            assert np.linalg.norm(ana - num) <= 1e-5 * (np.linalg.norm(num) + 1.0)

    def test_gradient_one_lipschitz(self):
        rng = np.random.default_rng(11)
        reg = L1Norm(1.1)
        for _ in range(50):
            x = rng.standard_normal(5)
            z = rng.standard_normal(5)
            lhs = np.linalg.norm(moreau_gradient(reg, 0.9, x) - moreau_gradient(reg, 0.9, z))
            assert lhs <= np.linalg.norm(x - z) + 1e-12

    def test_rejects_nonpositive_sigma2(self):
        with pytest.raises(ValueError):
            moreau_envelope(L1Norm(1.0), 0.0, np.zeros(2))


# The leaf formulas the l1 prox and the sums of squares and magnitudes
# replaced, kept verbatim as references.


def sign_form_prox(z, thresh):
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def abs_sq_sum(r):
    return 0.5 * float((np.abs(r) ** 2).sum())


def abs_sum(x):
    return float(np.abs(x).sum())


_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308)


@st.composite
def leaf_arrays(draw):
    """Arrays of several shapes over many decades, some entries special floats."""
    shape = draw(st.sampled_from([(0,), (1,), (7,), (33,), (4, 5), (2, 3, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 10.0 ** rng.uniform(-300, 300) * rng.standard_normal(shape)
    specials = rng.random(shape) < rng.choice([0.0, 0.1, 0.5, 1.0])
    values[specials] = rng.choice(_SPECIAL, size=int(specials.sum()))
    return values


@settings(max_examples=300, deadline=None)
@given(z=leaf_arrays(), weight=st.sampled_from([1e-3, 0.3, 1.0, 7.5]),
       mu=st.sampled_from([0.0, 5e-324, 0.01, 1.0, 1e3]))
def test_leaf_calls_match_the_old_formulas(z, weight, mu):
    reg = L1Norm(weight)
    with np.errstate(all="ignore"):
        got, want = reg.prox(z, mu), sign_form_prox(z, weight * mu)
        # Equal values, NaN where NaN; only the sign of an exact zero may differ.
        np.testing.assert_array_equal(got, want)
        assert repr(reg.value(z)) == repr(weight * abs_sum(z))
        assert repr(DataFidelity._value_of(z)) == repr(abs_sq_sum(z))
        r = z + 1j * np.flip(z)
        assert repr(DataFidelity._value_of(r)) == repr(abs_sq_sum(r))
