"""Image-quality metrics and phantom generation."""

import math

import numpy as np

# Modified Shepp-Logan ellipses: (x0, y0, half_axis_a, half_axis_b, angle_deg, intensity)
_PHANTOM_ELLIPSES = [
    (0.0, 0.0, 0.69, 0.92, 0.0, 1.0),
    (0.0, -0.0184, 0.6624, 0.874, 0.0, -0.8),
    (0.22, 0.0, 0.11, 0.31, -18.0, -0.2),
    (-0.22, 0.0, 0.16, 0.41, 18.0, -0.2),
    (0.0, 0.35, 0.21, 0.25, 0.0, 0.1),
    (0.0, 0.1, 0.046, 0.046, 0.0, 0.1),
    (0.0, -0.1, 0.046, 0.046, 0.0, 0.1),
    (-0.08, -0.605, 0.046, 0.023, 0.0, 0.1),
    (0.0, -0.605, 0.023, 0.023, 0.0, 0.1),
    (0.06, -0.605, 0.023, 0.046, 0.0, 0.1),
]


def psnr(reference, estimate, peak=None):
    """Peak signal-to-noise ratio in dB; +inf for identical inputs.

    ``peak`` defaults to the maximum of the reference image.  An error too
    large to square in float64, as on a diverging iterate, gives -inf.
    """
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs estimate {estimate.shape}"
        )
    if peak is None:
        peak = float(reference.max())
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == 0.0:
        return math.inf
    ratio = peak**2 / mse
    if ratio == 0.0:  # the squared error overflowed, as on a diverging iterate
        return -math.inf
    return 10.0 * math.log10(ratio)


def ssim(reference, estimate, peak=None, window=8):
    """Mean local SSIM over uniform square windows.

    Stabilizers follow the usual convention C1 = (0.01*peak)^2 and
    C2 = (0.03*peak)^2; local statistics use population variances.
    """
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.ndim != 2 or reference.shape != estimate.shape:
        raise ValueError("ssim needs two 2-D images of identical shape")
    if min(reference.shape) < window:
        raise ValueError(f"image smaller than the {window}x{window} ssim window")
    if peak is None:
        peak = float(reference.max())
    if peak <= 0:
        raise ValueError("peak must be positive")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

    win_a = np.lib.stride_tricks.sliding_window_view(reference, (window, window))
    win_b = np.lib.stride_tricks.sliding_window_view(estimate, (window, window))
    mu_a = win_a.mean(axis=(-2, -1))
    mu_b = win_b.mean(axis=(-2, -1))
    var_a = (win_a**2).mean(axis=(-2, -1)) - mu_a**2
    var_b = (win_b**2).mean(axis=(-2, -1)) - mu_b**2
    cov = (win_a * win_b).mean(axis=(-2, -1)) - mu_a * mu_b
    local = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(local.mean())


def make_phantom(size):
    """Deterministic Shepp-Logan-style phantom, values in [0, 1]."""
    if size < 32:
        raise ValueError("phantom size must be at least 32")
    coords = np.linspace(-1.0, 1.0, size)
    x, y = np.meshgrid(coords, -coords)  # image row 0 at the top
    img = np.zeros((size, size))
    for x0, y0, a, b, angle_deg, intensity in _PHANTOM_ELLIPSES:
        phi = math.radians(angle_deg)
        xr = (x - x0) * math.cos(phi) + (y - y0) * math.sin(phi)
        yr = -(x - x0) * math.sin(phi) + (y - y0) * math.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += intensity
    return np.clip(img, 0.0, 1.0)
