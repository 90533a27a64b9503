"""Exact-arithmetic toolkit for graded A/B-model state spaces of
quasihomogeneous polynomials and mirror-candidate weight searches."""

from .amodel import AModel, SectorElement, adegree, amodel, group_weights_compare, restrict
from .errors import (
    DegenerateRestriction,
    EmptyPolynomialError,
    GroupNotAdmissible,
    GroupNotSymmetry,
    InfiniteGroup,
    InvalidArgument,
    LgmkError,
    NonPositiveWeight,
    NonUniqueWeights,
    NotAdmissibleError,
    NotFiniteDimensional,
    NotInvertible,
    NotQuasihomogeneous,
    ParseError,
    ResourceLimitExceeded,
    TailProductTooLarge,
    WeightBoundViolated,
    WeightConditionViolated,
    WeightError,
)
from .groebner import (
    MonomialOrder,
    Staircase,
    staircase,
    standard_monomials,
)
from .milnor import (
    BModel,
    GradedDims,
    bmodel,
    btop_formula,
    is_nondegenerate,
    jacobian_ideal,
    jacobian_staircase,
)
from .mirror import (
    PairReduction,
    SearchReport,
    discriminant_2var,
    discriminant_sign_boundary,
    enumerate_admissible_supports,
    mirror_check,
    nfamily_pair_solutions,
    nfamily_quadratic,
    nfamily_quadratic_roots,
    reduce_to_pair,
    search_weight_systems,
    solve_pair,
)
from .polycore import (
    Classification,
    ExponentMatrix,
    Monomial,
    Polynomial,
    PolynomialClass,
    WeightSystem,
    classify,
    exponent_matrix,
    parse_polynomial,
    solve_weights,
    transpose_polynomial,
)
from .symmetry import (
    GroupElement,
    SymmetryGroup,
    fixed_locus,
    gmax,
    gmax_bruteforce,
    gmax_fermat_plus_monomial,
    group_from_elements,
    is_admissible_group,
    quotient_invariant_factors,
    sl_subgroup,
    smith_normal_form,
    subgroup_generated,
    subgroups_containing,
    transpose_group,
)

__all__ = [name for name in dir() if not name.startswith("_")]
