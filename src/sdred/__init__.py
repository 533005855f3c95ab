"""SD-RED under mismatched priors: operators, analytic priors, solver, and
theorem-bound verification at desk scale."""

from .objectives import AnisotropicTV, DataFidelity, L1Norm, moreau_envelope, moreau_gradient
from .operators import (
    CoilOperator,
    FourierSubsampling,
    IdentityOperator,
    LinearOperator,
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
from .priors import (
    ConvexityError,
    GaussianMapPrior,
    LinearPrior,
    LogConcaveDensity1D,
    MismatchedPrior,
    Prior,
    ProximalPrior,
    density_ratio_to_epsilon,
    estimate_mismatch_epsilon,
    estimate_prior_lipschitz,
    gaussian_map_denoise,
    map_denoiser_1d,
    perturb_prior,
    verify_theorem3_1d,
)
from .metrics import make_phantom, psnr, ssim
from .solver import (
    DivergenceError,
    IterateTrace,
    Problem,
    SolverConfig,
    check_step_size,
    red_step,
    reference_zero,
    residual,
    run_sd_red,
)
from .theory import (
    BoundReport,
    StepSizeError,
    empirical_R,
    optimal_sigma_theorem4,
    theorem1_bound,
    theorem1_constants,
    theorem2_bound,
    theorem2_constants,
    theorem4_bound,
    verify_theorem1_trace,
    verify_theorem2_trace,
    verify_theorem4_trace,
)

__version__ = "0.1.0"
