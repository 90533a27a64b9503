"""Exact-arithmetic toolkit for graded A/B-model state spaces of
quasihomogeneous polynomials and mirror-candidate weight searches."""

from .amodel import (AModel, SectorElement, adegree, amodel, atable, group_weights_compare,
                     restrict)
from .errors import (
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
    Monomial,
    Staircase,
    staircase,
    standard_monomials,
)
from .milnor import (
    BModel,
    GradedDims,
    bmodel,
    btable,
    btop_formula,
    is_nondegenerate,
)
from .mirror import (
    SearchReport,
    discriminant_2var,
    discriminant_sign_boundary,
    enumerate_admissible_supports,
    mirror_check,
    nfamily_pair_solutions,
    nfamily_quadratic,
    nfamily_quadratic_roots,
    search_weight_systems,
)
from .polycore import (
    Classification,
    Polynomial,
    PolynomialClass,
    WeightSystem,
    classify,
    exponent_matrix,
    jacobian_ideal,
    jacobian_staircase,
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
