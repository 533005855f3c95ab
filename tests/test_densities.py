import math

import numpy as np
import pytest

from sdred.priors import (
    ConvexityError,
    LogConcaveDensity1D,
    density_ratio_to_epsilon,
    map_denoiser_1d,
    verify_theorem3_1d,
)


def quadratic():
    return LogConcaveDensity1D(lambda x: x * x, (-6.0, 6.0), 4097)


class TestDensity:
    def test_certificate_rejects_nonconvex(self):
        with pytest.raises(ConvexityError):
            LogConcaveDensity1D(lambda x: x * x + 3.0 * math.cos(x), (-6.0, 6.0), 1025)

    def test_certificate_accepts_small_perturbation(self):
        LogConcaveDensity1D(lambda x: x * x + 0.01 * math.cos(x), (-6.0, 6.0), 1025)

    @pytest.mark.parametrize("points", [5, 101, 4097])
    @pytest.mark.parametrize("domain", [(-6.0, 6.0), (-3.0, 5.0)], ids=["sym", "shifted"])
    @pytest.mark.parametrize(
        "neg_log",
        [lambda x: x * x, abs, lambda x: x * x + 0.01 * math.cos(x)],
        ids=["x2", "abs", "x2_cos"],
    )
    def test_normalization_folds_into_h(self, neg_log, domain, points):
        d = LogConcaveDensity1D(neg_log, domain, points)
        # integral of exp(-h_norm) over the domain should be 1
        vals = np.exp(-d.grid_h())
        from scipy.integrate import simpson

        assert abs(simpson(vals, x=d.grid) - 1.0) <= 1e-10

    def test_rejects_even_grid(self):
        with pytest.raises(ValueError):
            LogConcaveDensity1D(lambda x: x * x, (-1.0, 1.0), 1024)


class TestMapDenoiser1D:
    def test_quadratic_against_analytic_oracle(self):
        # argmin 0.5(x-z)^2 + sigma^2 x^2 = z / (1 + 2 sigma^2)
        d = quadratic()
        for sigma in (0.5, 1.0, 2.0):
            for z in (-3.0, 0.3, 3.0):
                oracle = z / (1.0 + 2.0 * sigma**2)
                assert abs(map_denoiser_1d(d, sigma, z) - oracle) <= 1e-8

    def test_sigma_to_zero_returns_z(self):
        d = quadratic()
        assert abs(map_denoiser_1d(d, 1e-8, 2.2) - 2.2) <= 1e-7

    def test_constant_density_uninformative(self):
        d = LogConcaveDensity1D(lambda x: 1.0, (-6.0, 6.0), 1025)
        assert abs(map_denoiser_1d(d, 1.0, 1.7) - 1.7) <= 1e-9

    def test_monotone_in_z(self):
        d = LogConcaveDensity1D(lambda x: x * x + 0.01 * math.cos(x), (-6.0, 6.0), 2049)
        zs = np.linspace(-4, 4, 41)
        outs = [map_denoiser_1d(d, 1.0, z) for z in zs]
        for a, b in zip(outs, outs[1:]):
            assert b >= a - 1e-9

    def test_out_of_domain_rejected(self):
        d = quadratic()
        with pytest.raises(ValueError):
            map_denoiser_1d(d, 1.0, 50.0)


class TestDensityRatio:
    def test_zero_gap(self):
        assert density_ratio_to_epsilon(0.0) == 0.0

    def test_inverts_half_eps_squared(self):
        assert abs(density_ratio_to_epsilon(0.02) - 0.2) <= 1e-15

    def test_unit_epsilon(self):
        assert density_ratio_to_epsilon(0.5) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            density_ratio_to_epsilon(-0.1)


class TestTheorem3:
    def test_identical_densities_trivial_pass(self):
        d = quadratic()
        rep = verify_theorem3_1d(d, d, 1.0, np.linspace(-5, 5, 21))
        assert rep.passed
        assert rep.log_gap == 0.0
        assert rep.max_distance <= 1e-9

    def test_cosine_perturbation_passes(self):
        d = quadratic()
        dh = LogConcaveDensity1D(lambda x: x * x + 0.005 * math.cos(x), (-6.0, 6.0), 4097)
        rep = verify_theorem3_1d(d, dh, 1.0, np.linspace(-5, 5, 201))
        assert rep.passed
        assert rep.max_distance <= rep.bound

    def test_constant_shift_cancels_after_normalization(self):
        d = quadratic()
        shifted = LogConcaveDensity1D(lambda x: x * x + 3.7, (-6.0, 6.0), 4097)
        rep = verify_theorem3_1d(d, shifted, 1.0, np.linspace(-5, 5, 51))
        assert rep.log_gap <= 1e-12
        assert rep.max_distance <= 1e-9
        assert rep.passed

    def test_randomized_amplitudes_never_fail(self):
        d = LogConcaveDensity1D(lambda x: x * x, (-6.0, 6.0), 2049)
        rng = np.random.default_rng(11)
        zgrid = np.linspace(-5, 5, 41)
        for _ in range(5):
            delta = float(rng.uniform(0.0, 0.01))
            dh = LogConcaveDensity1D(
                lambda x, dd=delta: x * x + dd * math.cos(x), (-6.0, 6.0), 2049
            )
            for sigma in (0.5, 2.0):
                assert verify_theorem3_1d(d, dh, sigma, zgrid).passed

    def test_bisection_agrees_with_dense_grid_oracle(self):
        # independent oracle: dense-grid minimization of the prox objective
        d = LogConcaveDensity1D(lambda x: x * x + 0.005 * math.cos(x), (-6.0, 6.0), 4097)
        grid = np.linspace(-6, 6, 1200001)
        hvals = grid * grid + 0.005 * np.cos(grid)
        for z in (-2.0, 0.5, 3.0):
            oracle = grid[np.argmin(0.5 * (grid - z) ** 2 + 1.0 * hvals)]
            assert abs(map_denoiser_1d(d, 1.0, z) - oracle) <= 1e-4
