"""stratacheck: exact-integer verification of classical enumerative geometry.

The toolkit recomputes, in arbitrary-precision integer arithmetic, the
bookkeeping behind a stratified Euler-characteristic computation: invariant
rings of diagonal group actions, quotient-singularity classification,
Pluecker and Riemann-Hurwitz arithmetic, the 27-lines configuration, and the
stratification ledger itself, with paper-versus-derived discrepancy
reporting.
"""

__version__ = "0.1.0"

from .curves import (
    PolystableSpec,
    fibration_euler,
    flex_count,
    moduli_dimension_check,
    pgl_dim,
    pluecker_dual_degree,
    pluecker_solve_bf,
    riemann_hurwitz_branch,
    solve_polystable_degrees,
    solve_unknown_count,
    theta_characteristics,
)
from .errors import (
    ConfigError,
    InconsistentInputError,
    InvolutionError,
    LedgerError,
    NonSaturationError,
    QuasiReflectionError,
    ToolkitError,
)
from .invariants import (
    CoordinateInvolution,
    DiagonalAction,
    MonoidPresentation,
    fixed_locus_presentation,
    invariant_generators,
    invariant_monomials,
    is_invariant,
    match_generators,
    presentations_isomorphic,
    relation_profile,
    toric_relations,
)
from .ledger import (
    Discrepancy,
    Ledger,
    StratumEntry,
    cubic_paper_ledger,
    degree2_paper_ledger,
    derive_entry,
    derived_ledger,
    discrepancy_report,
    discriminant_degree_sum,
    fiber_point_checks,
    ledger_rows,
    tangency_adjoint_degree,
    total_chi,
)
from .lines27 import (
    LineConfiguration,
    build_configuration,
    dual_stratification_counts,
    tritangent_type_counts,
)
from .singularities import (
    CyclicDiagonalElement,
    FiniteDiagonalGroup,
    ResolutionVerdict,
    SingularityClass,
    age,
    classify_quotient,
    symplectic_resolution_verdict,
)
from .surfaces import (
    ClassBasis,
    DivisorClass,
    adjunction_genus,
    bidegree_class,
    divisor,
    intersect,
)
