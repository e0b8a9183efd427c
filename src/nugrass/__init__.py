"""Exact symbolic kernel for nu-Grassmannians.

Construction of the chart atlas by gluing nu-domains, the right GL(m|n)
action on Lambda_r-valued points, and the nu-commutant subalgebra of
gl(m|n), all over exact rational arithmetic.
"""

from .superalgebra import (
    EVEN,
    ODD,
    GeneratorContext,
    GrassmannNumber,
    RationalFunction,
    SuperFunction,
    lambda_sample,
)
from .supermatrix import (
    NU,
    NuSymbol,
    SuperMatrix,
    is_nu,
    smat_inv,
    smat_mul,
)
from .atlas import (
    Atlas,
    Chart,
    GrassPoint,
    IndexPair,
    TransitionMap,
    chart_dims,
    enumerate_charts,
    evaluate_transition,
    get_atlas,
    pair_defined,
    point_transition,
    sample_point,
    transition_symbolic,
    verify_cocycle,
)
from .action import (
    BasePoint,
    GLPoint,
    act,
    sample_gl,
    stabilizer_membership,
    transitivity_witness,
    verify_action_axioms,
    verify_action_gluing,
    verify_transitivity,
)
from .nulie import (
    ChartVectorField,
    GlElement,
    compute_h,
    field_bracket,
    fundamental_field,
    h_report,
    nu_defect,
    rho_field,
    superbracket,
    verify_rho_morphism,
)
from .reports import CheckResult, Report

__version__ = "0.1.0"
