"""The Groebner kernel over Q: the staircase of a polynomial ideal.

This is the bottom computing layer: it defines the `Monomial` type, the
one rule `_render_monomials` by which every report prints a monomial, and
`_require_int`, which every layer uses to refuse a count that is not an
int, and imports nothing from the rest of the package but its errors and `value`,
the base of its value classes.  Polynomials enter as integer term maps,
exponent tuple -> int, and inside, a polynomial is a dict mapping packed
monomials to integers.

The order is graded reverse-lexicographic, graded by positive integer
weights w_i, one per variable: x^e ranks by its grade, the integer
sum(w_i * e_i), and of two monomials of one grade, the one with the smaller
exponent at the last position where they differ is the larger.  polycore
grades a Jacobian by L*q_i, the weights q_i of a quasihomogeneous W times
the lcm L of their denominators, under which the Jacobian ideal is
homogeneous and standard monomial bases are graded, or by all ones (plain
degrevlex) when W has no weights.  With B bits per exponent, x^e is packed
as the integer (Monagan and Pearce 2007)

    K = grade * 2^(B*n) - sum(e_i * 2^(B*i)).

While every exponent stays below 2^(B-1), the top bit of each field (its
guard bit) is clear, and then: integer order on K is the monomial order,
so the leading term of a dict is `max(d)`; K is additive, so
multiplying by x^t/x^l adds `t - l` to every key; and with
E = -K mod 2^(B*n), the exponent fields, x^l divides x^t iff
((E_t | GUARD) - E_l) & GUARD == GUARD.  Every exponent is at most the grade
over the least weight, and under a graded order no term met while reducing
an S-pair has a grade above the grade of that pair's lcm.  So the width is
checked once per input and once per S-pair; when a grade would not fit,
the run re-packs everything at a wider field.

Division is fraction-free: every generator the kernel keeps is primitive
(integer coefficients, content divided out, leading coefficient positive),
and `_cancel` removes one term by scaling the polynomial it reduces instead
of dividing by a leading coefficient.  An S-polynomial is f_i shifted to the
pair's lcm with that term cancelled by f_j, so it scales by the lcm of the
two leading coefficients.  `_top_reduce` then cancels leading terms only,
until the polynomial is zero or no lead divides its lead.  That is all
Buchberger's criterion asks of an S-pair (Becker and Weispfenning, Groebner
Bases, 1993), and the kernel returns leads only, so the tails of new
generators stay unreduced.

`staircase` is the only entry point and the only product: it takes
integer term maps, as polycore's Jacobians are made, and one integer grade
weight per variable, runs the pair loop and returns the minimal leading
terms, which decide whether the quotient is finite dimensional and which
monomials span it.  No basis is interreduced and no coefficient leaves the
loop.  One counter bounds both loops: every S-pair processed and every term
a reduction cancels is one step, and a run of more than STEP_LIMIT steps
raises ResourceLimitExceeded.
`_standard_listing` refuses a box larger than STANDARD_MONOMIAL_BOX_LIMIT
and walks the staircase under the leading terms, one variable at a time.
It sorts the listing by packed keys alone: the key is linear in the
exponents, so each prefix of the first n - 1 exponents is keyed by one dot
product and its last exponents add a progression, and no monomial is
packed on its own.  Each key carries its monomial's walk position in its
low bits, so one sort of integers orders the listing, and each monomial's
grade and walk position are then read off its key: the listing holds the
walk and two integer columns, and no tuple per monomial.  It has two
readers: `standard_monomials` builds the `Monomial`s, and `milnor`'s
checked basis listing counts the grades and hands the CLI each monomial's
text, rendered once per prefix.
That box rule guards listings only: the graded tables of `bmodel` and
`amodel` are counted without a standard monomial.  One walk, `_walk`,
serves listings, the counts of the Hilbert driving and its certificate, and
`mirror`'s weight-one pool; a lead joins it at its first nonzero position.

Pairs are pruned where they are made, by Gebauer and Moeller's update (On
an installation of Buchberger's algorithm, JSC 6, 1988).  A new lead h makes
no pair with a lead whose support, a bitmask, misses its own: coprime leads
reduce to zero.  Of its other pairs, criteria M and F keep one only if no
kept one's lcm divides its own, and B_k drops each waiting pair (f, g) whose
lcm h divides unless it is lcm(f, h) or lcm(g, h).  Each is the chain
criterion, resting on the lcms of pairs coprime, processed or waiting, and
never on the result of a pair.

The loop is Hilbert driven (Traverso 1997, Hilbert functions and the
Buchberger algorithm, JSC 22) on a complete intersection candidate: n
nonzero generators f_i in n variables, each homogeneous, of grade e_i, under
the order's grading, with x_i of grade w_i.  A Jacobian of a quasihomogeneous
W under its weights is one.  If the f_i form a regular sequence, the
quotient's Hilbert series is the complete intersection series
prod (1 - u^(e_i)) / (1 - u^(w_i)) (Milnor and Orlik 1970 for a Jacobian),
a polynomial of degree socle = sum(e_i - w_i) with mu = prod e_i / prod w_i
monomials in all.  Every remainder is homogeneous of its pair's grade, so
pairs pop in ascending grade.  Once a grade's standard monomials under the
current leads number its series coefficient, the rest of that grade's pairs
are set aside, as is every pair above socle + max(w_i): for a regular
sequence they would all reduce to zero.  The series only decides which
pairs wait; the run's answer rests on this certificate.

    Every lead the loop finds is the lead of an element of J = (f_i), so the
    standard monomials of in(J) lie among those of the leads.  If the leads
    bound a finite staircase of exactly mu monomials, then dim Q[x]/J <= mu
    is finite; n homogeneous generators in n variables with a finite
    quotient form a regular sequence, so dim Q[x]/J = mu, and the two
    monomial ideals are equal.  Their minimal generators, the staircase, are
    then what the full loop would return.

A set-aside pair is only postponed: it waits in `aside`, where B_k can
still drop it, so the queue and `aside` hold every pair GM has neither
processed nor deleted.  A certified run drops `aside`.  A run whose leads
fail the certificate, as a degenerate W's always do, re-queues `aside` and
goes on undriven: from there it is GM Buchberger under another selection
order, which is correct for every order, so its minimal leads (those of
in(J)), `finite` and every listing are the undriven loop's.  A set-aside
pair takes a step only when that fallback processes it.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, compress, repeat
from math import gcd, inf, prod
from operator import getitem, itemgetter, mul, sub
from typing import Callable, Iterator

from .errors import InvalidArgument, NotFiniteDimensional, ResourceLimitExceeded
from .value import _Value

# most steps one staircase run takes: S-pairs processed plus terms its
# reductions cancel
STEP_LIMIT = 10**6
# most exponent tuples standard_monomials may enumerate: the product of the
# least pure-power exponents, one per variable; milnor.bmodel also reads it,
# at call time, as the most Milnor-Orlik coefficients it allocates
STANDARD_MONOMIAL_BOX_LIMIT = 10**7
# bits per packed exponent when a run starts; the run widens them to fit
_FIELD_BITS = 8

# packed monomial -> integer coefficient; a generator inside the engine is
# primitive
TermDict = dict[int, int]

Exps = tuple[int, ...]


class Monomial(_Value):
    """Exponent vector of one monomial; position i belongs to variable i."""

    _fields = ("exponents",)
    exponents: Exps

    def __init__(self, exponents: Exps):
        exps = tuple(_require_int("exponent", e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.__dict__["exponents"] = exps

    def __len__(self) -> int:
        return len(self.exponents)

    def is_constant(self) -> bool:
        return not any(self.exponents)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

    def render(self, variables: tuple[str, ...]) -> str:
        return _render_monomials(variables, [self.exponents])[0]


def _render_monomials(variables: tuple[str, ...], rows: list[Exps]) -> list[str]:
    """The text of each exponent tuple of rows over `variables`, by the one
    rule every report uses: a variable of exponent 0 is left out, of
    exponent 1 written as its name, of exponent e > 1 as `name^e`, the parts
    joined by `*`, and the constant monomial is `1`.  Each variable's power
    texts are made once, for the exponents rows give it."""
    tables = []
    for i, name in enumerate(variables):
        table = {e: f"{name}^{e}" for e in set(map(itemgetter(i), rows))}
        table[0], table[1] = "", name
        tables.append(table)
    parts = map(map, repeat(getitem), repeat(tables), rows)
    texts = map("*".join, map(filter, repeat(None), parts))
    return [text or "1" for text in texts]


def _monomial(exps: Exps) -> Monomial:
    # a tuple of non-negative ints skips re-validation
    mono = object.__new__(Monomial)
    mono.__dict__["exponents"] = exps
    return mono


def _require_int(name: str, value) -> int:
    """value, when it is an int and not a bool; anything else, where int()
    would truncate 2.7 to 2 unseen, raises InvalidArgument."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidArgument(f"{name} must be an integer, got {value!r}")


class Staircase(_Value):
    """The minimal leading terms of a Groebner basis, ascending in its order:
    the corners of the staircase of standard monomials under them.  The
    order is graded reverse-lexicographic, graded by the positive integer
    `weights`, one per variable."""

    _fields = ("leads", "weights")
    leads: tuple[Exps, ...]
    weights: tuple[int, ...]

    @property
    def finite(self) -> bool:
        """True iff the quotient is finite dimensional: some leading term is
        1, or every variable has a pure-power leading term."""
        return (_unit(self.leads)
                or _pure_power_bounds(self.leads, len(self.weights)) is not None)


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


def _packed(term_maps: list[dict[Exps, int]],
            weights: tuple[int, ...]) -> tuple[_Packing, list[TermDict]]:
    """term_maps packed at a width that holds their largest grade; each
    distinct exponent tuple is checked, len(weights) nonnegative ints, and
    packed once.  Raises InvalidArgument for any other tuple."""
    tuples = set().union(*term_maps)
    for e in tuples:
        if len(e) != len(weights):
            raise InvalidArgument(
                f"grade weights must be {len(e)} positive integers, one per variable")
        # a tuple of plain ints passes one type test; any other is read
        # entry by entry, so a bool or a float is refused by name
        if not set(map(type, e)) <= {int}:
            for x in e:
                _require_int("exponent", x)
        if min(e, default=0) < 0:
            raise InvalidArgument("exponents must be nonnegative integers")
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


def _step_limit_exceeded() -> ResourceLimitExceeded:
    return ResourceLimitExceeded(
        f"the Groebner kernel takes more than {STEP_LIMIT} steps "
        "(S-pairs and cancelled terms)")


def _cancel(work: TermDict, term: int, gen: TermDict, lead: int) -> None:
    """Cancel the term c*t of work at `term` by gen, whose leading term
    `lead` divides t and whose leading coefficient lc is positive: work is
    scaled by lc/g and loses c/g times gen shifted to t, g = gcd(c, lc)."""
    lc = gen[lead]
    common = gcd(work[term], lc)
    scale, coeff = lc // common, work[term] // common
    if scale != 1:
        for e in work:
            work[e] *= scale
    shift = term - lead
    for key, c in gen.items():
        target = key + shift
        value = work.get(target, 0) - coeff * c
        if value:
            work[target] = value
        else:
            del work[target]


def _top_reduce(work: TermDict, basis: list[tuple[TermDict, int]],
                packing: _Packing, spent: int) -> int:
    """Cancel the leading term of work by basis, a list of (generator,
    leading term) pairs, in place, until work is zero or no lead divides its
    leading term.  The work w left then satisfies f * w0 - w in the ideal of
    basis, for the work w0 passed in and some positive integer f.  Each
    cancelled term is one step: returns `spent` plus the steps taken, and
    raises ResourceLimitExceeded once that total passes STEP_LIMIT."""
    guard, mask = packing.guard, packing.mask
    divisors = [(gen, lead, -lead & mask) for gen, lead in basis]
    while work:
        term = max(work)
        exps = -term & mask | guard
        for gen, lead, lead_exps in divisors:
            if (exps - lead_exps) & guard == guard:  # lead divides term
                spent += 1
                if spent > STEP_LIMIT:
                    raise _step_limit_exceeded()
                _cancel(work, term, gen, lead)
                break
        else:
            break
    return spent


def _minimal_leads(leads: list[int], packing: _Packing) -> list[int]:
    """The leading terms no other one divides, ascending; of equal ones,
    one is kept."""
    kept: list[int] = []
    for lead in sorted(set(leads)):
        if not any(packing.divides(other, lead) for other in kept):
            kept.append(lead)
    return kept


def _complete_intersection_series(grades: list[int],
                                 weights: tuple[int, ...]) -> list[int]:
    """Coefficients of u^0 .. u^top of prod (1 - u^(e_i)) / (1 - u^(w_i)),
    for generator grades e_i and variable grades w_i, top = sum(e_i - w_i)
    >= 0: the Hilbert series of the quotient by a regular sequence of
    homogeneous f_i of grades e_i.  One slice operation per factor of the
    numerator and one running sum per residue class of each factor of the
    denominator."""
    top = sum(grades) - sum(weights)
    series = [1] + [0] * top
    size = top + 1
    for e, w in zip(grades, weights):
        # times 1 - u^e: subtract the series shifted up by e
        if e < size:
            series[e:] = map(sub, series[e:], series[:size - e])
        # over 1 - u^w: a running sum along each residue class mod w
        if w < size:
            for r in range(w):
                series[r::w] = accumulate(series[r::w])
    return series


def _walk(leads, weights: tuple[int, ...],
          grade: int | None = None) -> Iterator[tuple[Exps, range]]:
    """The monomials in n = len(weights) >= 1 variables that no lead
    divides, one variable at a time: each prefix of their first n - 1
    exponents, ascending, with the range of their last exponent.  Without a
    grade the staircase must be finite; with one, only the monomials of that
    grade under the integer weights are walked.  A lead joins the walk at its
    first nonzero position, stays while its exponents divide the prefix and
    at its last nonzero position i caps exponent i, so a node reads only the
    leads it has reached.  The walk is lazy: a node takes its children one at
    a time, so the work done is bounded by what the caller reads, however
    large the grade."""
    n = len(weights)
    entering: list[list[tuple[Exps, int]]] = [[] for _ in range(n)]
    for lt in leads:
        support = list(compress(range(n), lt))
        if not support:
            return  # the unit divides every monomial
        entering[support[0]].append((lt, support[-1]))
    last, w = n - 1, weights[-1]
    # the leads entering at the last position are its pure powers
    power = min((lt[last] for lt, _ in entering[last]), default=inf)

    def lasts(left: int, cap) -> range | None:
        # the last exponents below cap, of grade `left` when walking a grade
        if grade is None:
            return range(cap)
        q, r = divmod(left, w)
        return range(q, q + 1) if not r and q < cap else None

    if n == 1:
        found = lasts(grade or 0, power)
        if found is not None:
            yield (), found
        return

    def node(prefix: Exps, left: int, reached: list[tuple[Exps, int]]) -> list:
        # the frame of a node: its children's exponents at position i run
        # from the next one, 0 here, up to the cap its leads and grade set
        i = len(prefix)
        reached = reached + entering[i]
        stops = [lt[i] for lt, end in reached if end == i]
        if grade is not None:
            stops.append(left // weights[i] + 1)
        return [prefix, left, reached, 0, min(stops)]

    # depth first on an explicit stack: one level per variable would
    # overflow Python's recursion limit.  `left` is the grade left (unread
    # without a grade)
    stack = [node((), grade or 0, [])]
    while stack:
        frame = stack[-1]
        prefix, left, reached, e, stop = frame
        i = len(prefix)
        if i == n - 2:
            # the last level, looped here: a lead reached here joins the
            # child's caps once e reaches its exponent at i (one ending at i
            # has lt[i] >= stop, so it never does), and caps the last exponent
            stack.pop()
            joining = sorted((lt[i], lt[last]) for lt, _ in reached)
            k, cap, wi = 0, power, weights[i]
            for e in range(stop):
                while k < len(joining) and joining[k][0] <= e:
                    cap = min(cap, joining[k][1])
                    k += 1
                found = lasts(left - e * wi, cap)
                if found is not None:
                    yield prefix + (e,), found
        elif e == stop:
            stack.pop()
        else:
            # a lead ending at i has lt[i] >= stop > e, so no child keeps it
            frame[3] = e + 1
            stack.append(node(prefix + (e,), left - e * weights[i],
                              [lead for lead in reached if lead[0][i] <= e]))


def _standard_count(grade: int, weights: tuple[int, ...], leads: list[Exps]) -> int:
    """The number of monomials of grade `grade` that no lead divides."""
    return sum(len(lasts) for _, lasts in _walk(leads, weights, grade))


def _candidate_grades(basis: list[TermDict], leads: list[int], n: int,
                      packing: _Packing) -> list[int] | None:
    """The grades e_i of a complete intersection candidate: n generators in
    n variables, each homogeneous, with sum(e_i - w_i) >= 0 and an integer
    mu = prod e_i / prod w_i, as for every regular sequence.  None for any
    other input."""
    shift, mask, weights = packing.shift, packing.mask, packing.weights
    grades = [(lead + mask) >> shift for lead in leads]
    # a generator is homogeneous iff its least term has its lead's grade
    if len(basis) != n or sum(grades) < sum(weights) or prod(grades) % prod(weights) \
            or any((min(d) + mask) >> shift != grade for d, grade in zip(basis, grades)):
        return None
    return grades


def staircase(gens: list[dict[Exps, int]], weights: tuple[int, ...]) -> Staircase:
    """The minimal leading terms of a Groebner basis of the ideal of gens,
    integer term maps (exponent tuple -> int, empty for zero) in n variables,
    under the order graded by `weights`, n positive integers (else, or for
    a negative or non-int exponent, InvalidArgument): the normal strategy,
    Gebauer and Moeller's update and, on a complete intersection candidate,
    Hilbert driving (see the module docstring).  Raises ResourceLimitExceeded past STEP_LIMIT steps."""
    weights = tuple(_require_int("grade weight", w) for w in weights)
    n = len(weights)
    if min(weights, default=1) < 1:
        raise InvalidArgument(f"grade weights must be {n} positive integers, one per variable")
    packing, basis = _packed([d for d in gens if d], weights)
    leads = [max(d) for d in basis]
    basis = [_primitive(d, lead) for d, lead in zip(basis, leads)]
    lead_exps = [packing.unpack(lead) for lead in leads]
    masks: list[int] = []  # the support of each lead: bit i for x_i

    # Hilbert driving (see the module docstring) starts once the run's zero
    # remainders have cost more steps than the series has coefficients,
    # `start` = sum(e_i - w_i) on a candidate.  So the bookkeeping costs no
    # more than the waste it removes, a run without zero remainders pays
    # nothing, and no series is longer than STEP_LIMIT, however large the
    # lcm of the weights.  Then each grade is counted once, by a walk over
    # its monomials: about the work of one dense reduction at that grade.
    degrees = _candidate_grades(basis, leads, n, packing)
    start = STEP_LIMIT if degrees is None else sum(degrees) - sum(weights)
    series: list[int] | None = None
    # the pairs set aside once the series is built, each taken as reduced to
    # zero, which the certificate proves or the fallback checks
    aside: list[tuple[int, int, int]] = []
    # the grade being popped and its standard monomials under the leads;
    # None above the series' last grade plus the largest weight
    grade_now, count_now = -1, None

    # queue entries (lcm, j, i) of the pairs (i, j), i < j: of equal lcms, F
    # keeps one per new lead, so the pair made first pops first
    heap: list[tuple[int, int, int]] = []

    def update(new: int) -> None:
        # Gebauer-Moeller: the pairs (k, new) of leads that are not coprime,
        # keyed by their lcms after widening the fields to hold the largest;
        # then B_k, and M and F in ascending lcm order
        nonlocal packing
        masks.append(sum(1 << i for i, e in enumerate(lead_exps[new]) if e))
        near = [k for k in range(new) if masks[k] & masks[new]]
        tops = [tuple(map(max, lead_exps[k], lead_exps[new])) for k in near]
        grades = [sum(map(mul, top, weights)) for top in tops]
        wider = packing.fit(max(grades, default=0))
        if wider is not packing:
            repack, unpack = wider.pack, packing.unpack
            basis[:] = [{repack(unpack(e)): c for e, c in d.items()} for d in basis]
            leads[:] = [repack(unpack(lead)) for lead in leads]
            for queue in (heap, aside):  # the order is kept: a heap stays one
                queue[:] = [(repack(unpack(top)), *rest) for top, *rest in queue]
            packing = wider
        shift, places, guard, mask = packing.shift, packing.places, packing.guard, packing.mask
        lcms = {k: (grade << shift) - sum(map(mul, top, places))
                for k, top, grade in zip(near, tops, grades)}
        lead = leads[new]
        field = -lead & mask

        def covered(entry) -> bool:
            # a coprime pair's lcm is the sum of its packed leads; it is
            # read only when the new lead divides top, which then holds it
            top, j, i = entry
            return ((-top & mask | guard) - field) & guard == guard and \
                top != lcms.get(i, leads[i] + lead) and top != lcms.get(j, leads[j] + lead)

        heap[:] = [entry for entry in heap if not covered(entry)]
        heapq.heapify(heap)
        aside[:] = [entry for entry in aside if not covered(entry)]
        chosen: list[int] = []
        for top, k in sorted((top, k) for k, top in lcms.items()):
            fields = -top & mask | guard
            if all((fields - (-other & mask)) & guard != guard for other in chosen):
                chosen.append(top)
                heapq.heappush(heap, (top, new, k))

    for j in range(len(basis)):
        update(j)

    spent = wasted = 0
    while True:
        while heap:
            top, j, i = entry = heapq.heappop(heap)
            if series is not None:
                # pairs pop in ascending grade, since every remainder is
                # homogeneous of its pair's grade
                grade = (top + packing.mask) >> packing.shift
                if grade != grade_now:
                    grade_now = grade
                    count_now = (None if grade >= len(series) + max(weights) else
                                 _standard_count(grade, weights, lead_exps))
                if count_now is None or count_now == (
                        series[grade] if grade < len(series) else 0):
                    aside.append(entry)
                    continue
            spent += 1
            if spent > STEP_LIMIT:
                raise _step_limit_exceeded()
            # the S-polynomial: f_i shifted to the lcm, its lead cancelled by f_j
            work = {key + top - leads[i]: c for key, c in basis[i].items()}
            _cancel(work, top, basis[j], leads[j])
            before = spent
            spent = _top_reduce(work, list(zip(basis, leads)), packing, spent)
            if not work:
                wasted += spent - before + 1  # the pair and its cancelled terms
                if wasted > start:
                    series = _complete_intersection_series(degrees, weights)
                    start = STEP_LIMIT  # built once: wasted never passes it
                continue
            lead = max(work)
            basis.append(_primitive(work, lead))
            leads.append(lead)
            lead_exps.append(packing.unpack(lead))
            if count_now is not None:
                count_now -= 1  # the new lead was standard, of this grade
            update(len(basis) - 1)
        minimal = [packing.unpack(lead) for lead in _minimal_leads(leads, packing)]
        if not aside or _unit(minimal) or (
                _pure_power_bounds(minimal, n) is not None
                and _staircase_size(minimal, n) * prod(weights) == prod(degrees)):
            break
        # not certified: the set-aside pairs go back into the loop
        series = None
        heap[:] = aside
        heapq.heapify(heap)
        aside.clear()
    return Staircase(tuple(minimal), weights)


def _unit(leads) -> bool:
    return any(not any(lt) for lt in leads)


def _pure_power_bounds(leads, n: int) -> list[int] | None:
    """The least pure-power exponent of each variable among leads, or None
    when some variable has no pure-power leading term."""
    bounds = [0] * n
    for lt in leads:
        support = list(compress(range(n), lt))
        if len(support) == 1:
            i = support[0]
            bounds[i] = min(bounds[i] or lt[i], lt[i])
    return bounds if all(bounds) else None


def _staircase_size(leads, n: int) -> int:
    """The number of standard monomials under a finite staircase in n >= 1
    variables, counted without a listing."""
    return sum(len(lasts) for _, lasts in _walk(leads, (1,) * n))


class _Listing:
    """The standard monomials of a finite staircase in n >= 1 variables.
    `walk` holds the walk's prefixes (the first n - 1 exponents) in walk
    order, each with the range of its last exponents; a monomial's walk
    position counts the monomials before it in that order.  `order` holds
    each monomial's walk position and `grades` its grade, both in the basis
    order, ascending by packed key."""

    __slots__ = ("walk", "order", "grades")

    def __init__(self, walk: list[tuple[Exps, range]], order: list[int], grades: list[int]):
        self.walk, self.order, self.grades = walk, order, grades

    def monomials(self) -> list[Monomial]:
        rows: list[Exps] = []
        for prefix, lasts in self.walk:
            rows += map(prefix.__add__, zip(lasts))
        return list(map(_monomial, map(rows.__getitem__, self.order)))

    def texts(self, variables: tuple[str, ...]) -> list[str]:
        """Each monomial's text over `variables`, by the rule of
        `_render_monomials`: each prefix is rendered once, and the last
        variable's power is read from a table."""
        name = variables[-1]
        top = max((lasts[-1] for _, lasts in self.walk if lasts), default=1)
        powers = ["", name] + [f"{name}^{e}" for e in range(2, top + 1)]
        texts: list[str] = []
        heads = _render_monomials(variables[:-1], [prefix for prefix, _ in self.walk])
        for head, (_, lasts) in zip(heads, self.walk):
            # a nonzero power follows the prefix's text and '*', or stands
            # alone after the zero prefix, whose text is "1"; a zero power
            # leaves the prefix's text as it is
            at = len(texts)
            texts += map(("" if head == "1" else head + "*").__add__,
                         powers[lasts.start:lasts.stop:lasts.step])
            if lasts and not lasts.start:
                texts[at] = head
        return list(map(texts.__getitem__, self.order))


def _standard_listing(basis: Staircase,
                      last: Callable[[Exps, int], range] | None = None) -> _Listing:
    """The listing of `standard_monomials(basis, last)`, for a staircase in
    one or more variables, with its refusals.

    The staircase is walked by `_walk`.  x^e packs as K = sum(e_i * c_i),
    c_i = w_i * 2^(B*n) - 2^(B*i): each prefix is keyed by one dot product,
    and the last exponents of its range add a progression of step c_last.
    Each key, raised by mask, is tagged with its monomial's walk position p
    in the bits below it, T = (K + mask) * 2^b + p with p < 2^b, and the
    tags of one range still form a progression, so they are listed without
    a loop per monomial.  The keys are distinct, so the tags sort in the
    basis order, alone, and each monomial's walk position and grade are
    read off its tag: p = T mod 2^b, and the grade (K + mask) >> shift is
    T >> (shift + b)."""
    leads, weights = basis.leads, basis.weights
    if _unit(leads):
        return _Listing([], [], [])
    n = len(weights)
    bounds = _pure_power_bounds(leads, n)
    if bounds is None:
        raise NotFiniteDimensional("ideal is not zero dimensional")
    box = prod(bounds)
    if box > STANDARD_MONOMIAL_BOX_LIMIT:
        raise ResourceLimitExceeded(
            f"the standard monomials lie in a box of {box} exponent tuples, "
            f"more than the limit of {STANDARD_MONOMIAL_BOX_LIMIT}")
    packing = _Packing(weights, _FIELD_BITS).fit(sum(map(mul, bounds, weights)))
    shift, mask = packing.shift, packing.mask
    coeffs = [(w << shift) - place for w, place in zip(weights, packing.places)]
    step = coeffs.pop()
    bits = box.bit_length()  # the box holds every walk position
    walk: list[tuple[Exps, range]] = []
    tags: list[int] = []
    for prefix, lasts in _walk(leads, weights):
        if last is not None:
            lasts = last(prefix, lasts.stop)
        first = (sum(map(mul, prefix, coeffs)) + lasts.start * step + mask << bits) + len(tags)
        stride = (lasts.step * step << bits) + 1
        tags += range(first, first + len(lasts) * stride, stride)
        walk.append((prefix, lasts))
    tags.sort()
    order = list(map(((1 << bits) - 1).__and__, tags))
    return _Listing(walk, order, list(map((shift + bits).__rrshift__, tags)))


def standard_monomials(basis: Staircase,
                       last: Callable[[Exps, int], range] | None = None,
                       ) -> list[Monomial]:
    """Monomials divisible by no leading term: a basis of the quotient.

    Sorted ascending in the basis order, by their packed keys: each prefix
    of the first n - 1 exponents is keyed once, and its last exponents
    extend the key by a progression, so no monomial is packed on its own
    (see `_standard_listing`).  With `last`, only those whose last exponent
    lies in `last(prefix, stop)`, a range within range(stop), for the
    others' exponents `prefix`.  Raises NotFiniteDimensional when
    some variable has no pure-power leading term, that is when the quotient
    is not a finite-dimensional vector space, and ResourceLimitExceeded when
    the box bounded by the pure powers holds more than
    STANDARD_MONOMIAL_BOX_LIMIT exponent tuples.
    """
    if not basis.weights:  # no variable: the unit ideal or the constant alone
        return [] if basis.leads else [_monomial(())]
    return _standard_listing(basis, last).monomials()
