"""Linear measurement operators with adjoints and spectral-norm estimation.

Images and measurements are plain numpy arrays (float64 or complex128,
row-major).  Every operator is immutable after construction and safe to
share across threads.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Input array shape does not match the operator's declared shape."""


def _check_shape(name, arr, expected):
    if tuple(arr.shape) != tuple(expected):
        raise ShapeMismatchError(
            f"{name}: expected shape {tuple(expected)}, got {tuple(arr.shape)}"
        )


class LinearOperator:
    """Forward/adjoint pair between fixed input and output shapes.

    Subclasses implement ``_forward`` and ``_adjoint``; the public methods
    add shape validation.  ``spectral_norm()`` returns a cached estimate of
    the largest singular value (exact where a subclass knows it).
    """

    def __init__(self, input_shape, output_shape):
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self._norm_cache = None

    def _forward(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError

    def forward(self, x):
        x = np.asarray(x)
        if x.shape != self.input_shape:
            _check_shape(type(self).__name__ + ".forward", x, self.input_shape)
        return self._forward(x)

    def adjoint(self, y):
        y = np.asarray(y)
        if y.shape != self.output_shape:
            _check_shape(type(self).__name__ + ".adjoint", y, self.output_shape)
        return self._adjoint(y)

    def spectral_norm(self):
        if self._norm_cache is None:
            self._norm_cache = estimate_spectral_norm(self)
        return self._norm_cache


class MatrixOperator(LinearOperator):
    """Dense matrix acting on 1-D vectors; adjoint is the conjugate transpose."""

    def __init__(self, mat):
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise ValueError("matrix operator needs a 2-D array")
        super().__init__((mat.shape[1],), (mat.shape[0],))
        self.mat = mat
        # Kept once: the conjugate of a real matrix would be a full copy per call.
        self._mat_h = mat.T if np.isrealobj(mat) else mat.conj().T

    def _forward(self, x):
        return self.mat @ x

    def _adjoint(self, y):
        return self._mat_h @ y

    def spectral_norm(self):
        if self._norm_cache is None:
            self._norm_cache = float(np.linalg.norm(self.mat, 2))
        return self._norm_cache


@dataclass(frozen=True)
class SamplingMask:
    """Boolean Fourier-domain sampling pattern (a diagonal projection P)."""

    mask: np.ndarray

    def __post_init__(self):
        if self.mask.dtype != bool:
            object.__setattr__(self, "mask", self.mask.astype(bool))
        self.mask.setflags(write=False)

    @property
    def shape(self):
        return self.mask.shape

    @property
    def sampling_ratio(self):
        return float(np.count_nonzero(self.mask)) / self.mask.size


def make_radial_mask(height, width, num_lines):
    """Union of ``num_lines`` straight lines through the grid center.

    Lines sit at equally spaced angles k*pi/num_lines and are rasterized by
    unit steps along each line with nearest-pixel (half-up) rounding.
    Deterministic for fixed inputs.
    """
    if height < 2 or width < 2:
        raise ValueError("mask dimensions must be at least 2x2")
    if num_lines < 1:
        raise ValueError("need at least one radial line")
    mask = np.zeros((height, width), dtype=bool)
    cy, cx = height // 2, width // 2
    reach = int(math.ceil(math.hypot(height, width)))
    for k in range(num_lines):
        theta = k * math.pi / num_lines
        c, s = math.cos(theta), math.sin(theta)
        for t in range(-reach, reach + 1):
            r = math.floor(cy + t * s + 0.5)
            col = math.floor(cx + t * c + 0.5)
            if 0 <= r < height and 0 <= col < width:
                mask[r, col] = True
    return SamplingMask(mask)


class MaskProjection(LinearOperator):
    """The diagonal projection P alone (self-adjoint, idempotent)."""

    def __init__(self, mask: SamplingMask):
        super().__init__(mask.shape, mask.shape)
        self.mask = mask
        self._norm_cache = 1.0 if mask.sampling_ratio > 0 else 0.0

    def _forward(self, x):
        return np.where(self.mask.mask, x, 0)

    def _adjoint(self, y):
        return np.where(self.mask.mask, y, 0)


class FourierSubsampling(LinearOperator):
    """A = P F with F the unitary 2-D DFT; output lives on the full grid."""

    def __init__(self, mask: SamplingMask):
        super().__init__(mask.shape, mask.shape)
        self.mask = mask
        if mask.sampling_ratio == 0.0:
            warnings.warn("empty sampling mask: operator is identically zero")
            self._norm_cache = 0.0
        else:
            self._norm_cache = 1.0

    def _forward(self, x):
        return np.where(self.mask.mask, np.fft.fft2(x, norm="ortho"), 0)

    def _adjoint(self, y):
        return np.fft.ifft2(np.where(self.mask.mask, y, 0), norm="ortho")


class CoilOperator(LinearOperator):
    """Stacked multi-coil operator x -> [P F (S_i * x)]_i.

    The adjoint sums conj(S_i) F^H P^H over coils.  Output shape is
    (num_coils, H, W).
    """

    def __init__(self, mask: SamplingMask, sensitivities):
        sens = np.asarray(sensitivities)
        if sens.ndim != 3 or sens.shape[0] < 1:
            raise ValueError("sensitivities must be a nonempty stack of 2-D maps")
        if sens.shape[1:] != mask.shape:
            raise ValueError(
                f"sensitivity maps {sens.shape[1:]} do not match mask {mask.shape}"
            )
        super().__init__(mask.shape, (sens.shape[0],) + mask.shape)
        self.mask = mask
        self.sensitivities = sens

    def _forward(self, x):
        coil_images = self.sensitivities * x[None, :, :]
        spectra = np.fft.fft2(coil_images, norm="ortho", axes=(-2, -1))
        return np.where(self.mask.mask[None, :, :], spectra, 0)

    def _adjoint(self, y):
        masked = np.where(self.mask.mask[None, :, :], y, 0)
        images = np.fft.ifft2(masked, norm="ortho", axes=(-2, -1))
        return (self.sensitivities.conj() * images).sum(axis=0)


def make_fourier_subsampling(mask: SamplingMask) -> FourierSubsampling:
    return FourierSubsampling(mask)


def make_coil_operator(mask: SamplingMask, sensitivities) -> CoilOperator:
    return CoilOperator(mask, sensitivities)


def gaussian_coil_maps(shape, num_coils, width_factor=0.5):
    """Synthetic coil sensitivities: Gaussian bumps at evenly spaced boundary
    points, normalized so that sum_i |S_i|^2 = 1 pointwise."""
    if num_coils < 1:
        raise ValueError("need at least one coil")
    h, w = shape
    rows, cols = np.mgrid[0:h, 0:w].astype(float)
    sigma = width_factor * max(h, w)
    maps = np.empty((num_coils, h, w))
    for i in range(num_coils):
        angle = 2.0 * math.pi * i / num_coils
        center_r = (h - 1) / 2.0 + 0.95 * (h / 2.0) * math.sin(angle)
        center_c = (w - 1) / 2.0 + 0.95 * (w / 2.0) * math.cos(angle)
        maps[i] = np.exp(-((rows - center_r) ** 2 + (cols - center_c) ** 2) / (2 * sigma**2))
    norm = np.sqrt((maps**2).sum(axis=0))
    return maps / norm


def estimate_spectral_norm(op, max_iters=500, tol=1e-10, seed=0, return_history=False):
    """Power iteration on A^H A from a fixed-seed random start.

    Returns sqrt of the Rayleigh quotient once successive estimates differ by
    less than ``tol`` (or after ``max_iters``).  The estimate approaches the
    true norm from below.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.input_shape)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    x = x / nx
    history = []
    prev = -np.inf
    est = 0.0
    for _ in range(max_iters):
        ax = op.forward(x)
        est = float(np.linalg.norm(ax))
        history.append(est)
        if abs(est - prev) < tol:
            break
        prev = est
        w = op.adjoint(ax)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            est = 0.0
            history.append(est)
            break
        x = w / nw
    if return_history:
        return est, history
    return est
