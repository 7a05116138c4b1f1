"""Exact-arithmetic toolkit for Gaudin-type integrable systems: Lax matrices,
pole-gluing limits, bending flows, alternative Poisson structures, and the
Manin-matrix quantum Hamiltonians."""

from .algebra import (
    AlgebraSignature,
    Mode,
    ModeError,
    NCPoly,
    SignatureMismatchError,
    classical_limit,
    commutator,
    diagonal_generators,
    poisson_bracket,
)
from .gluing import (
    GluingPattern,
    LimitFamily,
    PatternError,
    hg_membership_check,
    iterate_pattern,
    left_comb_pattern,
    limit_gaudin_algebra,
    parse_pattern,
    rank_completeness_check,
)
from .lax import (
    InvariantFamily,
    LaxMatrix,
    bending_lax,
    bending_lax_rational,
    gaudin_lax,
    physical_hamiltonian,
    quadratic_hamiltonians,
    spectral_invariants,
)
from .manin import (
    DiffOpMatrix,
    TalalaevOutput,
    col_det,
    column_order_invariance,
    commutation_matrix,
    is_manin,
    manin_property_suite,
    newton_check,
    partial_minus,
    quantum_powers,
    talalaev_coefficients,
    talalaev_generators,
)
from .poisson import (
    PoissonOperator,
    bracket_eval,
    compatibility_check,
    family_commutes_under,
    fivesite_operator,
    jacobi_check,
    limit_rijk_operator,
    pencil,
    standard_operator,
)
from .ratfun import (
    DiffOpEntry,
    LaxEntry,
    PoleEvaluationError,
    Poly,
    RatFun,
)

__version__ = "0.1.0"
