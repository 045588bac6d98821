"""Exact divisor-class computations for strata of k-differentials on the
moduli space of stable pointed curves.

The package cross-validates closed-form divisor classes against
enumerative test-curve intersection numbers (reporting the places where
the published data disagrees with itself), classifies connected
components of strata of quadratic differentials, and handles the
level-graph combinatorics of degenerating k-differentials with
three-valued residue logic.
"""

from .classes import (
    AuditEntry,
    AuditReport,
    QdInput,
    QgSolution,
    audit,
    forget_pullback,
    logan_class,
    pullback_attach,
    qd_class,
    qg_class,
    solve_qg_coefficients,
    weierstrass_check,
    weierstrass_class,
    weierstrass_pullback,
)
from .errors import (
    BadInput,
    BadSignature,
    BudgetExceeded,
    DimensionMismatch,
    DirectedLoop,
    DomainError,
    InvalidIndex,
    InvalidSpec,
    MissingResidueState,
    MixedEdgeOrders,
    OutOfCatalog,
    SingularSystem,
    WrongGenus,
)
from .levelgraphs import (
    DualGraph,
    Edge,
    GrcResult,
    LevelGraph,
    ResidueState,
    TwistedOrderRelation,
    Vertex,
    enumerate_level_graphs,
    eval_pnk,
    grc_admissible,
    validate_twisted,
)
from .picard import (
    BoundaryIndex,
    CurveFunctional,
    DivisorClass,
    boundary_class,
    canonical_boundary_indices,
    canonicalize_index,
    delta0_class,
    format_rational,
    g2_normal_form,
    lambda_class,
    pair,
    parse_rational,
    psi_class,
)
from .strata import (
    ComponentCount,
    Signature,
    codim_p,
    dim_stratum,
    multidegree,
    quad_components,
)
from .testcurves import (
    TestCurveSpec,
    curve_functional,
    oracle,
    valid_specs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
