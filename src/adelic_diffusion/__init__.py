"""p-adic and adelic diffusion: exact kernels, samplers, and Feynman-Kac
Monte Carlo with reproducible counter-based streams."""

__version__ = "0.1.0"

from .adelic import (
    AdelicPathBundle,
    AdelicPoint,
    ExitCountDistribution,
    SigmaSequence,
    choose_truncation,
    exit_count_factorial_bound,
    exit_count_moment,
    exit_count_pmf,
    exit_count_samples,
    sample_adelic_path,
    tail_certificate,
)
from .errors import (
    AdelicDiffusionError,
    BridgeUnderflowError,
    ConfigError,
    PrecisionError,
    PrimeMismatchError,
    ResolutionError,
    SummabilityError,
    TruncationError,
    ValuationRangeError,
)
from .feynman_kac import (
    FKEstimate,
    FKRequest,
    FreePropagation,
    GeneratorReport,
    SemigroupReport,
    action_integral,
    fk_expectation,
    fk_expectation_pair,
    fk_kernel,
    free_propagate,
    generator_check,
    semigroup_check_mc,
)
from .heat_kernel import (
    KernelParams,
    RadialLaw,
    alpha,
    ball_kernel_mass,
    ball_mass,
    density,
    density_center,
    exit_prob,
    exit_rate,
    overshoot_law,
    radial_convolve,
    radial_law,
    sphere_mass,
)
from .padic import (
    Ball,
    PAdicScalar,
    ball_measure,
    character,
    sphere_measure,
    uniform_ball,
    uniform_sphere,
)
from .rng import RngStream
from .sampler import (
    BridgeSpec,
    BridgeWindow,
    EventPath,
    PathSkeleton,
    increment_law,
    sample_bridge,
    sample_bridges,
    sample_event_path,
    sample_increment,
    sample_skeleton,
    sup_norm_exceeds,
)
from .schwartz import (
    SBFunction,
    SimpleAdelicSB,
    SimplePotential,
    adelic_multiplier,
    adelic_vladimirov_apply,
    canonicalize,
    eval_sb,
    multiplier_constant,
    resolution_for,
    sb_pairing,
    unit_ball_abs_moment,
    vacuum_multiplier_norm_sq,
    vladimirov_apply,
)
