"""Anisotropic magnetic Sobolev/BV energies and their nonlocal approximations.

The package provides origin-symmetric convex bodies with closed-form gauges,
the polar moment-body norms they induce, complex fields with magnetic
potentials and the gauge-covariant kernel, the three singular nonlocal
functionals (fractional seminorm, threshold functional, mollified functional),
and limit studies that extrapolate them to the local anisotropic energies.
"""

from .bodies import (
    ConvexBody,
    Ellipsoid,
    EuclideanBall,
    LqBall,
    Polytope,
    SymmetricPolytope,
    box_region,
    cross_polytope,
    cube,
    regular_hexagon,
    regular_polygon,
    unit_square,
)
from .energy import (
    GridSpec,
    anisotropic_perimeter,
    local_energy,
    total_variation_smooth,
    variational_pairing,
)
from .fields import (
    ComplexField,
    MagneticPotential,
    VectorTestField,
    bump,
    bump_test_field,
    constant_potential,
    gaussian,
    indicator,
    linear_potential,
    magnetic_gradient,
    modulated_gaussian,
    mollify,
    psi,
    rotational_potential,
    zero_field,
    zero_potential,
)
from .functionals import (
    Bbm,
    FunctionalSpec,
    Gagliardo,
    IntegrationBudget,
    LudwigFamily,
    Nguyen,
    ShrinkingUniformFamily,
    bbm,
    gagliardo,
    nguyen,
)
from .limits import (
    ConvergenceReport,
    Extrapolation,
    Schedule,
    StudyPoint,
    compare,
    default_schedule,
    extrapolate,
    run_study,
)
from .norms import (
    BodyMonteCarlo,
    MomentNormEvaluator,
    SphereMomentKernel,
    dual_norm_z1,
    kpn_constant,
    mixed_modulus,
    moment_norm_batch,
    moment_norm_sphere,
)
from .seeding import derive_seed
from .spheres import SphereRule, sphere_rule

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
