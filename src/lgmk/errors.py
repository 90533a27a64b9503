"""Exception hierarchy shared by every module of the toolkit."""


class LgmkError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(LgmkError, ValueError):
    """A numeric argument or setting lies outside its documented range."""


class ParseError(LgmkError):
    """Polynomial text does not conform to the input grammar."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EmptyPolynomialError(ParseError):
    """All terms cancelled; the collected polynomial is zero."""

    def __init__(self, message: str = "polynomial is empty after collecting terms"):
        super().__init__(message)


class WeightError(LgmkError):
    """Base class for failures of the weight-system solve."""


class NonUniqueWeights(WeightError):
    """rank(A) < n: the quasihomogeneous weights are not unique."""


class NotQuasihomogeneous(WeightError):
    """A.q = (1,...,1) has no solution."""


class NonPositiveWeight(WeightError):
    """Some solved weight is zero or negative."""


class WeightBoundViolated(WeightError):
    """Some weight exceeds 1/2 although no cross-term x_i*x_j is present."""


class NotAdmissibleError(LgmkError):
    """Polynomial is not admissible (degenerate, or weights not unique/positive)."""


class NotInvertible(LgmkError):
    """Operation requires an invertible polynomial (#monomials == #variables)."""


class GroupNotAdmissible(LgmkError):
    """The weights vector J is not an element of the given group."""


class GroupNotSymmetry(LgmkError):
    """The given group is not contained in the maximal symmetry group."""


class InfiniteGroup(LgmkError):
    """rank(A) < n, so the diagonal symmetry group is infinite."""


class NotFiniteDimensional(LgmkError):
    """Quotient by the ideal is not a finite-dimensional vector space."""


class DegenerateRestriction(LgmkError):
    """A sector's restricted polynomial has a non-finite Milnor ring."""


class ResourceLimitExceeded(LgmkError):
    """The Groebner engine exhausted its S-pair budget, a standard-monomial
    box exceeds its limit, a group is too large to list its elements, or a
    search grid is too large to hold."""


class WeightConditionViolated(LgmkError):
    """The added monomial x^r*y^s does not satisfy r/p + s/q = 1."""


class TailProductTooLarge(LgmkError):
    """The tail weights alone already exceed the target dimension product."""
