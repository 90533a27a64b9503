"""The Groebner kernel over Q: the staircase of a polynomial ideal.

Polynomials enter as `polycore.Polynomial`, with `Fraction` coefficients.
Inside, a polynomial is a dict mapping packed monomials to integers.

The orders are graded: weighted-degree reverse-lexicographic (under which
Jacobian ideals of quasihomogeneous polynomials are homogeneous and standard
monomial bases are graded) or plain degrevlex.  The grade of x^e is the
integer sum(w_i * e_i): the total degree, or the weighted degree times the
lcm L of the weights' denominators.  With B bits per exponent, x^e is packed
as the integer (Monagan and Pearce 2007)

    K = grade * 2^(B*n) - sum(e_i * 2^(B*i)).

While every exponent stays below 2^(B-1), the top bit of each field (its
guard bit) is clear, and then: integer order on K is `MonomialOrder.key`
order, so the leading term of a dict is `max(d)`; K is additive, so
multiplying by x^t/x^l adds `t - l` to every key; and with
E = -K mod 2^(B*n), the exponent fields, x^l divides x^t iff
((E_t | GUARD) - E_l) & GUARD == GUARD.  Every exponent is at most the grade
over the least weight, and under a graded order no term met while reducing
an S-pair has a grade above the grade of that pair's lcm.  So the width is
checked once per input and once per S-pair; when a grade would not fit,
the run re-packs everything at a wider field.

Division is fraction-free: every generator the kernel keeps is primitive
(denominators cleared, content divided out, leading coefficient positive),
S-polynomials scale by the lcm of the two leading coefficients, and
`_normal_form_dict` pseudo-divides, scaling the polynomial it reduces
instead of dividing by a leading coefficient.

`staircase` is the only entry point and the only product: it runs the pair
loop and returns the minimal leading terms, which decide whether the
quotient is finite dimensional and which monomials span it.  No basis is
interreduced and no coefficient leaves the loop.  `standard_monomials`
refuses a box larger than STANDARD_MONOMIAL_BOX_LIMIT and walks the
staircase under the leading terms, one variable at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import NotFiniteDimensional, ResourceLimitExceeded
from .polycore import (
    PAIR_BUDGET_ENV,
    Exps,
    Monomial,
    Polynomial,
    WeightSystem,
    _monomial,
    _pair_budget,
)

# most exponent tuples standard_monomials may enumerate: the product of the
# least pure-power exponents, one per variable
STANDARD_MONOMIAL_BOX_LIMIT = 10**7
# bits per packed exponent when a run starts; the run widens them to fit
_FIELD_BITS = 8

# packed monomial -> integer coefficient; a generator inside the engine is
# primitive
TermDict = dict[int, int]


@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse-lexicographic order, graded by weights or total degree.

    key() returns a tuple that sorts ascending in the order; 1 is minimal
    because all weights are positive.  The first component of the key is an
    integer grade: the total degree, or for weights q_i the weighted degree
    sum(e_i * q_i) times L, the lcm of the weights' denominators.  L > 0, so
    this is the same order as the one graded by the rational weighted degree.
    """

    weights: tuple[Fraction, ...] | None = None
    # L * q_i, fixed when the order is built
    _integer_weights: tuple[int, ...] | None = field(init=False, repr=False,
                                                     compare=False)

    def __post_init__(self):
        integer_weights = None
        if self.weights is not None:
            scale = lcm(*(w.denominator for w in self.weights))
            integer_weights = tuple(int(w * scale) for w in self.weights)
        object.__setattr__(self, "_integer_weights", integer_weights)

    @staticmethod
    def degrevlex() -> "MonomialOrder":
        return MonomialOrder(None)

    @staticmethod
    def weighted_degrevlex(weights: WeightSystem) -> "MonomialOrder":
        return MonomialOrder(tuple(weights))

    def key(self, exps: Exps):
        if self.weights is None:
            grade = sum(exps)
        else:
            grade = sum(map(mul, exps, self._integer_weights))
        return (grade, tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class Staircase:
    """The minimal leading terms of a Groebner basis, ascending in its order:
    the corners of the staircase of standard monomials under them."""

    leads: tuple[Exps, ...]
    order: MonomialOrder
    variables: tuple[str, ...]

    @property
    def finite(self) -> bool:
        """True iff the quotient is finite dimensional: some leading term is
        1, or every variable has a pure-power leading term."""
        return (_unit(self.leads)
                or _pure_power_bounds(self.leads, len(self.variables)) is not None)


class _Packing:
    """Monomials packed into integers, `width` bits per exponent."""

    __slots__ = ("weights", "width", "shift", "places", "guard", "mask", "limit")

    def __init__(self, weights: tuple[int, ...], width: int):
        self.weights = weights
        self.width = width
        self.shift = width * len(weights)
        self.places = tuple(1 << (width * i) for i in range(len(weights)))
        self.guard = sum(place << (width - 1) for place in self.places)
        self.mask = (1 << self.shift) - 1
        # every exponent of a monomial whose grade is below this fits
        self.limit = min(weights, default=1) << (width - 1)

    def fit(self, grade: int) -> "_Packing":
        """This packing if it holds every monomial of grade `grade`, else a
        wider one that does."""
        if grade < self.limit:
            return self
        need = (grade // min(self.weights)).bit_length() + 1
        return _Packing(self.weights, max(2 * self.width, need))

    def pack(self, exps: Exps) -> int:
        return (sum(map(mul, exps, self.weights)) << self.shift) - \
            sum(map(mul, exps, self.places))

    def unpack(self, key: int) -> Exps:
        exps = -key & self.mask
        low = (1 << self.width) - 1
        return tuple(exps >> (self.width * i) & low for i in range(len(self.weights)))

    def divides(self, a: int, b: int) -> bool:
        return ((-b & self.mask | self.guard) - (-a & self.mask)) & self.guard == self.guard


def _grade_weights(order: MonomialOrder, n: int) -> tuple[int, ...]:
    return order._integer_weights if order.weights is not None else (1,) * n


def _cleared(term_map: dict[Exps, Fraction]) -> dict[Exps, int]:
    """Integer numerators of term_map over its common denominator."""
    den = lcm(*(c.denominator for c in term_map.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in term_map.items()}


def _packed(term_maps: list[dict[Exps, int]],
            weights: tuple[int, ...]) -> tuple[_Packing, list[TermDict]]:
    """term_maps packed at a width that holds their largest grade; each
    distinct exponent tuple is packed once."""
    tuples = set().union(*term_maps)
    top = max((sum(map(mul, e, weights)) for e in tuples), default=0)
    packing = _Packing(weights, _FIELD_BITS).fit(top)
    packed = {e: packing.pack(e) for e in tuples}
    return packing, [{packed[e]: c for e, c in d.items()} for d in term_maps]


def _primitive(poly: TermDict, lead: int) -> TermDict:
    """poly divided by its content, signed so the leading coefficient is positive."""
    content = gcd(*poly.values())
    if poly[lead] < 0:
        content = -content
    if content == 1:
        return poly
    return {e: c // content for e, c in poly.items()}


def _normal_form_dict(poly: TermDict, basis: list[tuple[TermDict, int]],
                      packing: _Packing) -> TermDict:
    """Pseudo-remainder r of poly on division by basis, a list of
    (generator, leading term) pairs: f * poly - r lies in the ideal of basis
    for some positive integer f, and no term of r is reducible.

    Every coefficient is an integer and every basis generator has a positive
    leading coefficient lc.  A term c*t is cancelled by scaling work and
    remainder by lc/g and subtracting c/g times the shifted generator, where
    g = gcd(c, lc).
    """
    guard, mask = packing.guard, packing.mask
    divisors = [(gen, lead, -lead & mask, gen[lead]) for gen, lead in basis]
    work = dict(poly)
    remainder: TermDict = {}
    while work:
        term = max(work)
        coeff = work[term]
        exps = -term & mask | guard
        for gen, lead, lead_exps, lc in divisors:
            if (exps - lead_exps) & guard == guard:  # lead divides term
                common = gcd(coeff, lc)
                scale = lc // common
                coeff //= common
                if scale != 1:
                    for e in work:
                        work[e] *= scale
                    for e in remainder:
                        remainder[e] *= scale
                shift = term - lead
                for key, c in gen.items():
                    target = key + shift
                    value = work.get(target, 0) - coeff * c
                    if value:
                        work[target] = value
                    else:
                        del work[target]
                break
        else:
            remainder[term] = coeff
            del work[term]
    return remainder


def _s_polynomial(f: TermDict, lt_f: int, g: TermDict, lt_g: int, top: int) -> TermDict:
    """(m/lc_f) * (t/lt_f) * f - (m/lc_g) * (t/lt_g) * g, with t = top, the
    lcm of lt_f and lt_g, and m = lcm(lc_f, lc_g)."""
    common = lcm(f[lt_f], g[lt_g])
    scale_f, scale_g = common // f[lt_f], common // g[lt_g]
    shift_f, shift_g = top - lt_f, top - lt_g
    result = {key + shift_f: scale_f * c for key, c in f.items()}
    for key, c in g.items():
        target = key + shift_g
        value = result.get(target, 0) - scale_g * c
        if value:
            result[target] = value
        else:
            del result[target]
    return result


def _minimal_leads(leads: list[int], packing: _Packing) -> list[int]:
    """The leading terms no other one divides, ascending; of equal ones,
    one is kept."""
    kept: list[int] = []
    for lead in sorted(set(leads)):
        if not any(packing.divides(other, lead) for other in kept):
            kept.append(lead)
    return kept


def staircase(gens: list[Polynomial], order: MonomialOrder,
              pair_budget: int | None = None) -> Staircase:
    """The minimal leading terms of a Groebner basis of the ideal of gens.

    Pair selection is the normal strategy (smallest lcm in the order); the
    coprime and chain criteria prune useless pairs.  Processing more than
    `pair_budget` S-pairs (default 10^6, overridable through the
    LGMK_PAIR_BUDGET environment variable) raises ResourceLimitExceeded; a
    negative budget raises InvalidArgument.  The leading terms decide
    zero-dimensionality (`Staircase.finite`) and the standard monomials, and
    no coefficient of a reduced basis is needed for either.
    """
    if not gens:
        raise ValueError("no generators given")
    variables = gens[0].variables
    if any(g.variables != variables for g in gens):
        raise ValueError("generators must share one ambient variable list")
    budget = _pair_budget(pair_budget)
    weights = _grade_weights(order, len(variables))
    packing, basis = _packed([_cleared(g.term_map()) for g in gens if not g.is_zero()],
                             weights)
    leads = [max(d) for d in basis]
    basis = [_primitive(d, lead) for d, lead in zip(basis, leads)]
    lead_exps = [packing.unpack(lead) for lead in leads]

    pending: set[tuple[int, int]] = set()
    heap: list = []
    counter = 0

    def push_pairs(new: int) -> None:
        # the pairs (k, new), keyed by their lcms, after widening the fields
        # to hold the largest of them
        nonlocal counter, packing
        tops = [tuple(map(max, lead_exps[k], lead_exps[new])) for k in range(new)]
        grades = [sum(map(mul, top, weights)) for top in tops]
        wider = packing.fit(max(grades, default=0))
        if wider is not packing:
            repack = wider.pack
            unpack = packing.unpack
            basis[:] = [{repack(unpack(e)): c for e, c in d.items()} for d in basis]
            leads[:] = [repack(unpack(lead)) for lead in leads]
            # the order is kept, so the heap stays a heap
            heap[:] = [(repack(unpack(top)), *rest) for top, *rest in heap]
            packing = wider
        shift, places = packing.shift, packing.places
        for k, (top, grade) in enumerate(zip(tops, grades)):
            pending.add((k, new))
            heapq.heappush(heap, ((grade << shift) - sum(map(mul, top, places)),
                                  counter, k, new))
            counter += 1

    for j in range(len(basis)):
        push_pairs(j)

    processed = 0
    while heap:
        top, _, i, j = heapq.heappop(heap)
        pending.remove((i, j))  # each pair is pushed once and popped once
        processed += 1
        if processed > budget:
            raise ResourceLimitExceeded(
                f"S-pair budget of {budget} exceeded; set {PAIR_BUDGET_ENV} to raise it")
        if top == leads[i] + leads[j]:
            continue  # coprime leading terms reduce to zero
        guard, mask = packing.guard, packing.mask
        top_exps = -top & mask | guard
        skip = False
        for k, lead in enumerate(leads):
            if k == i or k == j or (top_exps - (-lead & mask)) & guard != guard:
                continue  # only a third leading term dividing top can chain
            if (min(i, k), max(i, k)) not in pending and \
               (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s_poly = _s_polynomial(basis[i], leads[i], basis[j], leads[j], top)
        remainder = _normal_form_dict(s_poly, list(zip(basis, leads)), packing)
        if remainder:
            lead = max(remainder)
            basis.append(_primitive(remainder, lead))
            leads.append(lead)
            lead_exps.append(packing.unpack(lead))
            push_pairs(len(basis) - 1)
    return Staircase(tuple(packing.unpack(lead) for lead in _minimal_leads(leads, packing)),
                     order, variables)


def _unit(leads) -> bool:
    return any(not any(lt) for lt in leads)


def _pure_power_bounds(leads, n: int) -> list[int] | None:
    """The least pure-power exponent of each variable among leads, or None
    when some variable has no pure-power leading term."""
    bounds = []
    for i in range(n):
        pures = [lt[i] for lt in leads
                 if lt[i] > 0 and all(e == 0 for j, e in enumerate(lt) if j != i)]
        if not pures:
            return None
        bounds.append(min(pures))
    return bounds


def _box_bounds(basis: Staircase) -> list[int]:
    """The least pure-power exponent of each variable among the leading
    terms: the sides of the box that holds every standard monomial.

    Raises NotFiniteDimensional when some variable has no pure-power leading
    term, and ResourceLimitExceeded when the box holds more than
    STANDARD_MONOMIAL_BOX_LIMIT exponent tuples.
    """
    bounds = _pure_power_bounds(basis.leads, len(basis.variables))
    if bounds is None:
        raise NotFiniteDimensional("ideal is not zero dimensional")
    box = prod(bounds)
    if box > STANDARD_MONOMIAL_BOX_LIMIT:
        raise ResourceLimitExceeded(
            f"the standard monomials lie in a box of {box} exponent tuples, "
            f"more than the limit of {STANDARD_MONOMIAL_BOX_LIMIT}")
    return bounds


def standard_monomials(basis: Staircase) -> list[Monomial]:
    """Monomials divisible by no leading term: a basis of the quotient.

    Sorted ascending in the basis order.  Raises NotFiniteDimensional when
    some variable has no pure-power leading term, that is when the quotient
    is not a finite-dimensional vector space, and ResourceLimitExceeded when
    the box bounded by the pure powers holds more than
    STANDARD_MONOMIAL_BOX_LIMIT exponent tuples (`_box_bounds`).
    """
    leads = basis.leads
    if _unit(leads):
        return []
    n = len(basis.variables)
    bounds = _box_bounds(basis)
    found: list[Exps] = []

    def walk(prefix: Exps, active: list[Exps]) -> None:
        # active: the leading terms whose first len(prefix) exponents divide
        # prefix.  One that is zero past position i divides every extension
        # whose exponent i reaches its own, so exponent i stops below the least.
        i = len(prefix)
        stop = min(lt[i] for lt in active if not any(lt[i + 1:]))
        if i == n - 1:
            found.extend(prefix + (e,) for e in range(stop))
            return
        for e in range(stop):
            walk(prefix + (e,), [lt for lt in active if lt[i] <= e])

    if n:
        walk((), leads)
    else:
        found.append(())
    # every grade in the box is below its corner's
    weights = _grade_weights(basis.order, n)
    found.sort(key=_Packing(weights, _FIELD_BITS).fit(sum(map(mul, bounds, weights))).pack)
    return [_monomial(exps) for exps in found]
