"""lieorb: structure theory of matrix semisimple orbits and their symplectic models."""

from .liecore import (
    AlgebraSpec,
    CartanSplit,
    GroupElement,
    MatrixLieAlgebra,
    build_algebra,
    cartan_split,
    iwasawa_decompose,
    killing_compare_realified,
)
from .rootspace import (
    RestrictedRoot,
    RestrictedRootSystem,
    k_from_roots_check,
    maximal_abelian,
    positive_system,
    restricted_roots,
)
from .parabolic import HyperbolicData, chamber_sort, hyperbolic_data, nilpotency_index
from .kkform import (
    OrbitPoint,
    exactness_verdict,
    fiber_isotropy_check,
    k_orbit_lagrangian_check,
    kk_eval,
    closedness_check,
    nondegeneracy_check,
    orbit_point,
)
from .flows import FlowPolynomial, commute_residual, exp_H, flow_exact, flow_numeric, invert_exp_H
from .symplecto import (
    BaseCoset,
    CotangentPoint,
    phi_lambda,
    project_pi,
    pullback_residual,
    section_lagrangian_check,
)

__version__ = "0.1.0"
