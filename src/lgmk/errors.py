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


class ResourceLimitExceeded(LgmkError):
    """A Groebner staircase run took more than STEP_LIMIT steps (S-pairs
    processed plus terms its reductions cancel), a standard-monomial box or
    a Milnor-Orlik series exceeds its limit, a group is too large to list
    its elements, a search grid or walk is too large, or a report holds an
    integer of more digits than Python converts to text.

    The box is the product of the least pure-power leading exponents of a
    staircase.  Past STANDARD_MONOMIAL_BOX_LIMIT tuples, `standard_monomials`
    lists nothing, so `BModel.basis` and `AModel.basis` refuse to be read.
    The box rule guards only listings: `bmodel` counts its table without
    one, and refuses only a series of more than STANDARD_MONOMIAL_BOX_LIMIT
    coefficients, before it allocates one."""


class WeightConditionViolated(LgmkError):
    """The added monomial x^r*y^s does not satisfy r/p + s/q = 1."""


class TailProductTooLarge(LgmkError):
    """The tail weights alone already exceed the target dimension product.

    No library code raises it: the search skips such tails.  The test
    oracle of the earlier search raises it, and the benchmark's tracer
    (`perfbench/tracer.py`) imports it."""
