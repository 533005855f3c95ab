import math

import numpy as np
import pytest

from sdred.objectives import L1Norm
from sdred.priors import (
    GaussianMapPrior,
    MismatchedPrior,
    ProximalPrior,
    estimate_mismatch_epsilon,
    gaussian_map_denoise,
    perturb_prior,
)


def golden_section_min(f, lo, hi, tol=1e-12):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


class TestProximalPrior:
    def test_vanishing_strength_is_identity(self):
        prior = ProximalPrior(L1Norm(1.0))
        x = np.array([0.4, -1.2, 2.0])
        assert np.linalg.norm(prior.apply(x, 1e-9) - x) <= 1e-6

    def test_soft_threshold_example(self):
        prior = ProximalPrior(L1Norm(1.0))
        assert np.allclose(prior.apply(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])

    def test_nonexpansive_on_random_pairs(self):
        prior = ProximalPrior(L1Norm(0.8))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(6)
            z = rng.standard_normal(6)
            d = np.linalg.norm(prior.apply(x, 1.3) - prior.apply(z, 1.3))
            assert d <= prior.lipschitz(1.3) * np.linalg.norm(x - z) + 1e-12


class TestGaussianMapDenoiser:
    def test_scalar_case_against_golden_section(self):
        # minimize 0.5*(x-2)^2 + 1*(x^2/2): oracle by golden section
        oracle = golden_section_min(lambda x: 0.5 * (x - 2.0) ** 2 + 0.5 * x**2, -5, 5)
        got = gaussian_map_denoise(0.0, 1.0, 1.0, np.array([2.0]))[0]
        # golden section resolves the argmin to ~sqrt(eps) only
        assert abs(got - oracle) <= 1e-7
        assert abs(got - 1.0) <= 1e-12

    def test_sigma_to_zero_identity(self):
        z = np.array([1.5, -0.3])
        out = gaussian_map_denoise(0.0, 1.0, 1e-9, z)
        assert np.allclose(out, z, atol=1e-12)

    def test_mean_is_fixed_point(self):
        mean = np.array([0.7, -0.1])
        assert np.allclose(gaussian_map_denoise(mean, 2.0, 1.0, mean), mean)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            gaussian_map_denoise(0.0, 0.0, 1.0, np.zeros(2))

    def test_lipschitz_matches_shrink_factor(self):
        def probe_ratios(prior, shape, count):
            rng = np.random.default_rng(1)
            pairs = (rng.standard_normal((2,) + shape) for _ in range(count))
            return [np.linalg.norm(prior.apply(x, 1.0) - prior.apply(z, 1.0))
                    / np.linalg.norm(x - z) for x, z in pairs]

        # isotropic case: the map is exactly 0.5*I, every probe pair achieves it
        ratios = probe_ratios(GaussianMapPrior(0.0, 1.0), (4,), 100)
        assert max(abs(r - 0.5) for r in ratios) <= 1e-10
        # diagonal case: the ratios stay below and approach max_i v_i/(v_i+s^2)
        prior = GaussianMapPrior(0.0, np.array([1.0, 3.0]))
        assert abs(prior.lipschitz(1.0) - 0.75) <= 1e-15
        ratios = probe_ratios(prior, (2,), 200)
        assert max(ratios) <= 0.75 + 1e-12
        assert max(ratios) >= 0.749


class TestPerturbPrior:
    def test_zero_epsilon_is_exact(self):
        base = GaussianMapPrior(0.0, 1.0)
        hat = perturb_prior(base, 0.0)
        x = np.random.default_rng(2).standard_normal((4, 4))
        assert np.array_equal(hat.apply(x, 1.7), base.apply(x, 1.7))

    def test_fixed_direction_saturates_bound(self):
        base = GaussianMapPrior(0.0, 1.0)
        hat = perturb_prior(base, 0.3, mode="fixed")
        rng = np.random.default_rng(3)
        for sigma in (0.5, 1.0, 2.0):
            for _ in range(10):
                x = rng.standard_normal((5,))
                d = np.linalg.norm(hat.apply(x, sigma) - base.apply(x, sigma))
                assert abs(d - sigma * 0.3) <= 1e-12

    def test_offset_norm_product(self):
        base = GaussianMapPrior(0.0, 1.0)
        hat = perturb_prior(base, 0.1)
        x = np.zeros(3)
        assert abs(np.linalg.norm(hat.offset(x, 2.0)) - 0.2) <= 1e-14

    def test_hashed_direction_varies_but_saturates(self):
        base = GaussianMapPrior(0.0, 1.0)
        hat = perturb_prior(base, 0.2, mode="hashed")
        rng = np.random.default_rng(4)
        x1 = rng.standard_normal(6)
        x2 = rng.standard_normal(6)
        o1 = hat.apply(x1, 1.0) - base.apply(x1, 1.0)
        o2 = hat.apply(x2, 1.0) - base.apply(x2, 1.0)
        assert abs(np.linalg.norm(o1) - 0.2) <= 1e-12
        assert abs(np.linalg.norm(o2) - 0.2) <= 1e-12
        assert np.linalg.norm(o1 - o2) > 1e-3  # direction depends on the input

    def test_hashed_direction_deterministic(self):
        base = GaussianMapPrior(0.0, 1.0)
        hat = perturb_prior(base, 0.2, mode="hashed")
        x = np.random.default_rng(5).standard_normal(6)
        assert np.array_equal(hat.apply(x, 1.0), hat.apply(x.copy(), 1.0))

    def test_fixed_offset_built_once_per_shape_and_sigma(self):
        hat = perturb_prior(GaussianMapPrior(0.0, 1.0), 0.3, mode="fixed", direction_seed=4)
        rng = np.random.default_rng(6)
        first = hat.offset(rng.standard_normal(5), 2.0)
        assert hat.offset(rng.standard_normal(5), 2.0) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        fresh = perturb_prior(GaussianMapPrior(0.0, 1.0), 0.3, mode="fixed", direction_seed=4)
        assert np.array_equal(fresh.offset(np.zeros(5), 2.0), first)
        # another sigma scales the same direction; another shape gets its own
        assert np.allclose(hat.offset(np.zeros(5), 0.5), first / 4.0, rtol=1e-15, atol=0.0)
        assert hat.offset(np.zeros((5, 1)), 2.0).shape == (5, 1)
        assert np.array_equal(hat.offset(np.zeros(1), 2.0), hat.offset(np.ones(1), 2.0))

    def test_hashed_offset_follows_the_input(self):
        hat = perturb_prior(GaussianMapPrior(0.0, 1.0), 0.2, mode="hashed")
        rng = np.random.default_rng(7)
        x1, x2 = rng.standard_normal(6), rng.standard_normal(6)
        o1, o2 = hat.offset(x1, 1.0), hat.offset(x2, 1.0)
        assert np.linalg.norm(o1 - o2) > 1e-3
        assert np.array_equal(hat.offset(x1.copy(), 1.0), o1)
        assert o1.flags.writeable

    def test_rejects_negative_epsilon_and_bad_mode(self):
        base = GaussianMapPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            perturb_prior(base, -0.1)
        with pytest.raises(ValueError):
            MismatchedPrior(base, 0.1, mode="sideways")


class TestMismatchTable:
    def test_constructed_epsilon_recovered_at_every_sigma(self):
        base = GaussianMapPrior(0.0, 1.0)
        hat = perturb_prior(base, 0.1)
        rng = np.random.default_rng(7)
        points = [rng.standard_normal(8) for _ in range(5)]
        rows = estimate_mismatch_epsilon(base, hat, points, [1.0, 2.0, 5.0])
        for row in rows:
            assert abs(row.epsilon_hat - 0.1) <= 1e-10
            assert abs(row.mean_dist - row.max_dist) <= 1e-12  # saturated construction

    def test_identical_priors_zero_distance(self):
        base = GaussianMapPrior(0.0, 1.0)
        rows = estimate_mismatch_epsilon(base, base, [np.ones(3)], [1.0])
        assert rows[0].max_dist == 0.0

    def test_two_gaussian_denoisers_distance(self):
        # slopes 1/2 vs 2/3 at sigma=1: distance |z|/6
        d1 = GaussianMapPrior(0.0, 1.0)
        d2 = GaussianMapPrior(0.0, 2.0)
        z = np.array([3.0])
        rows = estimate_mismatch_epsilon(d1, d2, [z], [1.0])
        assert abs(rows[0].max_dist - 0.5) <= 1e-12

    def test_rejects_empty_inputs(self):
        base = GaussianMapPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            estimate_mismatch_epsilon(base, base, [], [1.0])
        with pytest.raises(ValueError):
            estimate_mismatch_epsilon(base, base, [np.ones(2)], [])
