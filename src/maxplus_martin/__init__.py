"""Max-plus potential theory: finite kernels, Martin boundaries, and the
closed forms of a linear-quadratic control problem."""

__version__ = "0.1.0"

from .errors import (
    AssumptionViolated,
    AssumptionViolatedWarning,
    BothEndpointsZero,
    DimensionMismatch,
    EmptyContour,
    GradientSingularity,
    GridTooSmall,
    HMinusInfinityAtStart,
    MaxPlusError,
    NoCycle,
    NonpositiveHorizon,
    NonpositiveLambda,
    NonUnitDirection,
    NotAlmostGeodesic,
    NotEventuallyConstant,
    NotHarmonic,
    NotNormalized,
    PositiveCycle,
)
from .semiring import (
    NEG_INF,
    POS_INF,
    Value,
    coerce_value,
    format_value,
    is_finite,
    oplus,
    parse_value,
)
from .kernel import (
    KernelMatrix,
    StarMatrix,
    apply,
    is_harmonic,
    is_superharmonic,
    kleene_star,
    matrix_power,
    max_cycle_mean,
    normalize,
)
from .martin import (
    MartinObject,
    extremal_witness,
    is_extremal,
    martin_kernel,
    minimal_martin_space,
    mu,
    recurrence_classes,
    represent,
    spectral_measure,
)
from .paths import (
    DiscretePath,
    almost_geodesic_excess,
    almost_optimal_excess,
    downhill_path,
    geodesic_limit,
    is_almost_geodesic,
    is_almost_optimal,
    path_J,
    path_reward,
)
from .lq import (
    GridSpec,
    ProbeReport,
    almost_optimality_slack,
    feedback_trajectory,
    finite_horizon_kernel,
    gradient,
    horofunction,
    horofunction_field,
    optimal_horizon,
    stable_quadratic,
    star_kernel,
    star_kernel_origin,
    unstable_quadratic,
    verify_harmonic_lq,
)
from .contours import horosphere_contour, marching_squares

__all__ = [name for name in dir() if not name.startswith("_")]
