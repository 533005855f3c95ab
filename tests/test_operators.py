import numpy as np
import pytest

from sdred.operators import (
    CoilOperator,
    FourierSubsampling,
    MaskProjection,
    MatrixOperator,
    SamplingMask,
    ShapeMismatchError,
    estimate_spectral_norm,
    gaussian_coil_maps,
    make_coil_operator,
    make_fourier_subsampling,
    make_radial_mask,
)

from operator_helpers import IdentityOperator


def inner(a, b):
    return complex(np.vdot(np.asarray(a).ravel(), np.asarray(b).ravel()))


def random_probe(rng, shape, complex_=False):
    x = rng.standard_normal(shape)
    if complex_:
        x = x + 1j * rng.standard_normal(shape)
    return x


def all_test_operators():
    rng = np.random.default_rng(7)
    mask = make_radial_mask(8, 8, 3)
    sens = gaussian_coil_maps((8, 8), 3)
    return [
        IdentityOperator((5,)),
        MatrixOperator(rng.standard_normal((4, 6))),
        MatrixOperator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
        MaskProjection(mask),
        FourierSubsampling(mask),
        CoilOperator(mask, sens),
    ]


class TestForwardAdjoint:
    def test_identity_forward(self):
        x = np.arange(4.0)
        assert np.array_equal(IdentityOperator((4,)).forward(x), x)

    def test_all_false_mask_annihilates(self):
        op = MaskProjection(SamplingMask(np.zeros((4, 4), dtype=bool)))
        rng = np.random.default_rng(0)
        x = random_probe(rng, (4, 4), complex_=True)
        assert np.all(op.forward(x) == 0)

    def test_hand_matrix_vector(self):
        op = MatrixOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(op.forward(np.array([1.0, 1.0])), [3.0, 7.0])

    def test_hand_matrix_adjoint(self):
        op = MatrixOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(op.adjoint(np.array([1.0, 0.0])), [1.0, 2.0])

    def test_matrix_adjoint_is_conjugate_transpose(self):
        rng = np.random.default_rng(8)
        real = rng.standard_normal((4, 3))
        for mat in (real, real + 1j * rng.standard_normal((4, 3))):
            op = MatrixOperator(mat)
            for _ in range(10):
                x = random_probe(rng, (3,), complex_=True)
                y = random_probe(rng, (4,), complex_=True)
                assert np.array_equal(op.adjoint(y), mat.conj().T @ y)
                lhs, rhs = inner(y, op.forward(x)), inner(op.adjoint(y), x)
                assert abs(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) * np.linalg.norm(y) + 1.0)

    def test_identity_adjoint(self):
        y = np.arange(3.0)
        assert np.array_equal(IdentityOperator((3,)).adjoint(y), y)

    def test_unitary_fft_roundtrip(self):
        mask = SamplingMask(np.ones((8, 8), dtype=bool))
        op = FourierSubsampling(mask)
        rng = np.random.default_rng(1)
        x = random_probe(rng, (8, 8), complex_=True)
        assert np.max(np.abs(op.adjoint(op.forward(x)) - x)) < 1e-12

    def test_shape_mismatch_rejected(self):
        op = MatrixOperator(np.eye(3))
        with pytest.raises(ShapeMismatchError):
            op.forward(np.zeros(4))
        with pytest.raises(ShapeMismatchError):
            op.adjoint(np.zeros((3, 1)))

    def test_adjointness_random_probes(self):
        rng = np.random.default_rng(42)
        for op in all_test_operators():
            for _ in range(100):
                x = random_probe(rng, op.input_shape, complex_=True)
                y = random_probe(rng, op.output_shape, complex_=True)
                lhs = inner(y, op.forward(x))
                rhs = inner(op.adjoint(y), x)
                scale = np.linalg.norm(x) * np.linalg.norm(y) + 1.0
                assert abs(lhs - rhs) <= 1e-10 * scale, type(op).__name__

    def test_linearity_random_probes(self):
        rng = np.random.default_rng(3)
        for op in all_test_operators():
            for _ in range(10):
                x = random_probe(rng, op.input_shape, complex_=True)
                z = random_probe(rng, op.input_shape, complex_=True)
                a, b = rng.standard_normal(2)
                lhs = op.forward(a * x + b * z)
                rhs = a * op.forward(x) + b * op.forward(z)
                scale = np.linalg.norm(rhs) + 1.0
                assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale, type(op).__name__


class TestRadialMask:
    def test_single_line_is_center_row(self):
        mask = make_radial_mask(8, 8, 1)
        assert mask.mask.sum() == 8
        assert mask.sampling_ratio == 8 / 64
        assert np.all(mask.mask[4, :])

    def test_two_lines_row_and_column(self):
        mask = make_radial_mask(8, 8, 2)
        # union of one row and one column sharing the center pixel
        assert mask.mask.sum() == 15
        assert mask.sampling_ratio == 15 / 64

    def test_saturation(self):
        assert make_radial_mask(8, 8, 32).sampling_ratio == 1.0
        assert make_radial_mask(16, 16, 64).sampling_ratio == 1.0

    def test_determinism(self):
        a = make_radial_mask(32, 24, 7)
        b = make_radial_mask(32, 24, 7)
        assert np.array_equal(a.mask, b.mask)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_radial_mask(1, 8, 1)
        with pytest.raises(ValueError):
            make_radial_mask(8, 8, 0)

    def test_mask_idempotence(self):
        mask = make_radial_mask(12, 12, 5)
        op = MaskProjection(mask)
        rng = np.random.default_rng(9)
        x = random_probe(rng, (12, 12), complex_=True)
        once = op.forward(x)
        assert np.array_equal(op.forward(once), once)

    def test_sampling_ratio_matches_count(self):
        mask = make_radial_mask(16, 12, 4)
        assert mask.sampling_ratio == mask.mask.sum() / mask.mask.size


class TestFourierSubsampling:
    def test_full_mask_parseval(self):
        op = make_fourier_subsampling(SamplingMask(np.ones((16, 16), dtype=bool)))
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = random_probe(rng, (16, 16), complex_=True)
            assert np.isclose(np.linalg.norm(op.forward(x)), np.linalg.norm(x))

    def test_empty_mask_warns_and_zeroes(self):
        with pytest.warns(UserWarning):
            op = make_fourier_subsampling(SamplingMask(np.zeros((8, 8), dtype=bool)))
        x = np.random.default_rng(0).standard_normal((8, 8))
        assert np.all(op.forward(x) == 0)
        assert op.spectral_norm() == 0.0

    def test_nonempty_mask_spectral_norm_one(self):
        op = make_fourier_subsampling(make_radial_mask(16, 16, 2))
        est = estimate_spectral_norm(op, max_iters=200, tol=1e-12)
        assert abs(est - 1.0) <= 1e-6


class TestCoilOperator:
    def test_unit_single_coil_matches_fourier(self):
        mask = make_radial_mask(8, 8, 3)
        coil = make_coil_operator(mask, np.ones((1, 8, 8)))
        plain = make_fourier_subsampling(mask)
        rng = np.random.default_rng(11)
        x = random_probe(rng, (8, 8), complex_=True)
        assert np.allclose(coil.forward(x)[0], plain.forward(x))

    def test_two_unit_coils_double_energy(self):
        mask = SamplingMask(np.ones((8, 8), dtype=bool))
        coil = make_coil_operator(mask, np.ones((2, 8, 8)))
        rng = np.random.default_rng(12)
        x = random_probe(rng, (8, 8), complex_=True)
        assert np.isclose(np.sum(np.abs(coil.forward(x)) ** 2), 2 * np.sum(np.abs(x) ** 2))

    def test_adjoint_identity_complex_probes(self):
        mask = make_radial_mask(8, 8, 2)
        coil = make_coil_operator(mask, gaussian_coil_maps((8, 8), 4))
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = random_probe(rng, (8, 8), complex_=True)
            y = random_probe(rng, (4, 8, 8), complex_=True)
            scale = np.linalg.norm(x) * np.linalg.norm(y) + 1.0
            assert abs(inner(y, coil.forward(x)) - inner(coil.adjoint(y), x)) <= 1e-10 * scale

    def test_shape_validation(self):
        mask = make_radial_mask(8, 8, 2)
        with pytest.raises(ValueError):
            make_coil_operator(mask, np.ones((2, 4, 4)))

    def test_coil_maps_normalized(self):
        maps = gaussian_coil_maps((16, 16), 5)
        assert np.allclose((maps**2).sum(axis=0), 1.0)


class TestSpectralNorm:
    def test_diagonal_example(self):
        op = MatrixOperator(np.diag([3.0, 1.0]))
        assert abs(estimate_spectral_norm(op, max_iters=500, tol=1e-12) - 3.0) <= 1e-8

    def test_unitary_fft(self):
        op = make_fourier_subsampling(SamplingMask(np.ones((8, 8), dtype=bool)))
        assert abs(estimate_spectral_norm(op, max_iters=500, tol=1e-12) - 1.0) <= 1e-8

    def test_2x2_against_svd_oracle(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        oracle = np.linalg.svd(mat, compute_uv=False)[0]
        est = estimate_spectral_norm(MatrixOperator(mat), max_iters=2000, tol=1e-14)
        assert abs(est - oracle) <= 1e-4
        assert abs(oracle - 5.4650) < 1e-4

    def test_zero_operator(self):
        op = MatrixOperator(np.zeros((3, 3)))
        assert estimate_spectral_norm(op) == 0.0

    def test_estimates_nondecreasing(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            op = MatrixOperator(rng.standard_normal((6, 6)))
            _, history = estimate_spectral_norm(
                op, max_iters=100, tol=1e-15, seed=2, return_history=True
            )
            for a, b in zip(history, history[1:]):
                assert b >= a - 1e-12

    def test_estimate_is_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            mat = rng.standard_normal((5, 7))
            est = estimate_spectral_norm(MatrixOperator(mat), max_iters=300, tol=1e-13)
            assert est <= np.linalg.norm(mat, 2) + 1e-9
