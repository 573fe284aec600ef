"""Frobenius annihilating relations from kernel automata.

A digit automaton over F_q whose states realize the q-kernel of a series
G_1 satisfies G_i(X) = sum_j A_{i,j}(X) G_j(X^q) with
A_{i,j} = sum_{r : delta(i,r)=j} X^r.  Iterating and restricting to the
first row gives, for k = 0..d,

    G_1(X)^(q^k) = (prod_{i=k}^{d} A(X^(q^i)))_1 . (G(X^(q^(d+1)))-vector)

so the d+1 first rows B_0..B_d of those products are linearly dependent
over F_q(X), and any left null vector of B annihilates G_1, G_1^q, ...,
G_1^(q^d).  With the row vectors u_0 = e_1 and u_(j+1) = u_j * A(X^(q^j)),
B_k = u_(d+1-k)(X^(q^k)), so the rows come from one row vector and no
matrix product is formed.  The rows have entries in F_q[X], and one
fraction-free elimination pass over them (null_left_vector) finds the first
row B_m that depends on B_0..B_{m-1}, with a combination in F_q[X]; no
rational function is formed.  Each of its updates a*w - b*p is one packed
sum of two products (conv.dot).  Relations are canonicalized: common
polynomial gcd removed, highest-index coefficient monic.
"""

from dataclasses import dataclass

from .algebra.conv import accumulate, dot
from .algebra.polys import UniPoly
from .automaton import DFAO, close
from .errors import (BaseMismatch, DegreeBlowup, InfiniteField,
                     InsufficientPrecision, NoRelation)

KERNEL_SIZE_CAP = 8  # elimination degrees grow like q^d
ZERO_STABLE_LIMIT = 4096  # pair states of _zero_stable, at most q * d


@dataclass(frozen=True)
class FrobeniusRelation:
    """sum_k coeffs[k] * phi^(q^k) = 0 with coeffs in F_q[X].

    Canonical form: not all coefficients zero, gcd of all coefficients is 1,
    the highest-index nonzero coefficient is monic.
    """

    coeffs: tuple
    q: int

    def __post_init__(self):
        if not self.coeffs or all(c.is_zero() for c in self.coeffs):
            raise NoRelation("a relation needs a nonzero coefficient")

    @property
    def field(self):
        return self.coeffs[0].field

    def max_coeff_degree(self):
        return max(c.degree for c in self.coeffs)

    def to_text(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            power = self.q ** k
            fpow = "f" if power == 1 else f"f^{power}"
            if c.degree == 0 and c.coeffs[0] == self.field.one:
                parts.append(fpow)
            else:
                text = c.to_text()
                if " " in text or "*" in text:
                    text = f"({text})"
                parts.append(f"{text}*{fpow}")
        return " + ".join(parts) + " = 0"

    def __repr__(self):
        return self.to_text()


def primitive_part(polys):
    """``polys`` divided by the monic gcd of all of them.

    The gcd chain runs from the lowest degree up and stops at the first
    constant gcd, which is the common case.
    """
    gcd = UniPoly.zero(polys[0].field)
    for p in sorted((p for p in polys if not p.is_zero()), key=lambda p: p.degree):
        gcd = gcd.gcd(p)
        if gcd.degree == 0:
            break
    if gcd.degree < 1:
        return list(polys)
    return [p // gcd for p in polys]


def canonical_relation(polys, q):
    """The relation sum_k polys[k] * phi^(q^k) = 0 in canonical form.

    ``polys`` are univariate polynomials over F_q, not all zero; they are
    made primitive and the highest-index nonzero one monic.
    """
    polys = primitive_part(polys)
    lead = next(p for p in reversed(polys) if not p.is_zero()).lead()
    if lead != polys[0].field.one:
        inv = polys[0].field.inv(lead)
        polys = [p.scale(inv) for p in polys]
    return FrobeniusRelation(tuple(polys), q)


def _zero_stable(automaton):
    """An automaton of the same series whose outputs do not change along
    0-transitions.

    The kernel rows read u_(qn) off the state delta(initial, 0) for n = 0
    too, so they need out(delta(s, 0)) = out(s).  A state here is a pair
    (s, v): s the state reached, v the output of the state before the
    current run of 0-digits.  Digit 0 moves s only, any other digit u sets
    both to (u, out(u)), and the pair outputs v.  The digits of an index
    end on a nonzero digit, so every index ends on a pair (s, out(s)) and
    keeps its value.  There are at most d * (number of outputs) pairs;
    ``close`` numbers them, and more than ZERO_STABLE_LIMIT of them raise
    StateBudgetExceeded.
    """
    delta, out = automaton.transitions, automaton.outputs

    def images(pair):
        row = delta[pair[0]]
        return [(row[0], pair[1])] + [(u, out[u]) for u in row[1:]]

    start = (automaton.initial, out[automaton.initial])
    pairs, transitions = close(start, images, ZERO_STABLE_LIMIT,
                               "zero-stable automaton")
    return DFAO(automaton.q, automaton.field, 0, transitions,
                [v for _, v in pairs])


def _kernel_rows(automaton):
    """Rows B_0..B_d, B_k the initial state's row of prod_{i=k}^{d} A(X^(q^i)).

    That row is u_(d+1-k)(X^(q^k)) for the row vectors u_0 = e_initial and
    u_(j+1) = u_j * A(X^(q^j)).  Entry t of u * A(X^e) is
    sum_{delta(s, r) = t} X^(r*e) * u[s], one accumulate of the cells of u
    that lead into t; so the rows take d+1 products of a row vector by a
    matrix, not of two matrices.
    """
    field, q, delta = automaton.field, automaton.q, automaton.transitions
    d = automaton.n_states
    one = field.one
    incoming = [[] for _ in range(d)]  # t -> [(r, s) with delta(s, r) = t]
    for s, row in enumerate(delta):
        for r, t in enumerate(row):
            incoming[t].append((r, s))
    u = [[one] if s == automaton.initial else [] for s in range(d)]
    vectors = []
    for j in range(d + 1):
        e = q ** j
        u = [_shifted_sum(field, [(r * e, one, u[s])
                                  for r, s in incoming[t] if u[s]])
             for t in range(d)]
        vectors.append(u)
    return [[UniPoly(field, cell).subst_power(q ** k) for cell in vectors[d - k]]
            for k in range(d + 1)]


def _shifted_sum(field, terms):
    """sum of x * X^i * row over (i, x, row), as a coefficient list."""
    size = max((i + len(row) for i, _, row in terms), default=0)
    return accumulate(field, [field.zero] * size, terms)


def null_left_vector(rows):
    """The first dependency among ``rows``, or None if they are independent.

    ``rows`` is an iterable of equal-length sequences of UniPoly over one
    field.  It is read one row at a time, and only up to the first row m
    that depends on the rows before it; the result is then polynomials
    c_0..c_m with c_m != 0 and sum_i c_i * rows[i] = 0.  As rows 0..m-1 are
    independent, that dependency is unique up to a factor in F_q(X).

    The elimination is fraction-free: each row is reduced once, against the
    earlier rows' leftmost pivots in turn.  When it meets the pivot row p at
    column c, with g = gcd(p[c], row[c]), it becomes (p[c]/g)*row -
    (row[c]/g)*p, and its combination vector takes the same step; each
    entry of the step is one UniPoly.dot of two products.  A row
    that stays nonzero becomes a pivot once it and its combination are
    divided by their common content, which keeps the degrees of all later
    steps down; no fraction is formed.
    """
    pivots = {}  # column -> (reduced row, its combination)
    for i, row in enumerate(rows):
        work = list(row)
        field = work[0].field
        zero = UniPoly.zero(field)
        combo = [zero] * i + [UniPoly.one(field)]
        col = _leading(work, 0)
        while col is not None and col in pivots:
            prow, pcombo = pivots[col]
            g = prow[col].gcd(work[col])
            a, b = prow[col] // g, -(work[col] // g)
            work = [zero] * (col + 1) + [
                UniPoly.dot(field, [(a, w), (b, p)])
                for w, p in zip(work[col + 1:], prow[col + 1:])]
            combo = [UniPoly.dot(field, [(a, c), (b, p)])
                     for c, p in zip(combo, pcombo)] + \
                [a * c for c in combo[len(pcombo):]]
            col = _leading(work, col + 1)
        if col is None:
            return combo
        reduced = primitive_part(work + combo)
        work, combo = reduced[:len(work)], reduced[len(work):]
        pivots[col] = (work, combo)
    return None


def _leading(work, start):
    """Index of the first nonzero entry of ``work`` from ``start`` on."""
    return next((j for j in range(start, len(work)) if not work[j].is_zero()),
                None)


def frobenius_relation(automaton, check_order=256):
    """Annihilating relation for the series generated by the automaton.

    Minimizes, makes the outputs constant along 0-transitions
    (_zero_stable, whose result depends only on the series, so pairing the
    minimized automaton keeps the pairs few), minimizes again, builds the
    stacked row matrix B of the result and returns the first dependency
    among its rows in canonical form, once it verifies to order ``check_order`` on the series
    of the automaton as given, so a wrong minimization fails the check too;
    always succeeds when the minimized automaton has d <= KERNEL_SIZE_CAP
    states.
    """
    field = automaton.field
    if not field.is_finite:
        raise InfiniteField("kernel matrices require a finite field")
    if automaton.arity != 1:
        raise BaseMismatch("kernel matrices need a one-dimensional automaton")
    if automaton.q != field.order:
        raise BaseMismatch(
            f"digit base {automaton.q} differs from field cardinality {field.order}")
    minimized = _zero_stable(automaton.minimize()).minimize()
    d = minimized.n_states
    if d > KERNEL_SIZE_CAP:
        raise DegreeBlowup(f"kernel has {d} states, cap is {KERNEL_SIZE_CAP}")
    q = automaton.q
    series = automaton.generate(check_order)
    if series.is_zero():
        return FrobeniusRelation((UniPoly.one(field),), q)
    combo = null_left_vector(_kernel_rows(minimized))
    if combo is None:
        raise NoRelation("no dependency among kernel rows; internal error")
    relation = canonical_relation(combo, q)
    needed = relation.max_coeff_degree() + check_order
    if needed > series.order:
        series = automaton.generate(needed)
    if not verify_relation(relation, series, check_order=check_order):
        raise NoRelation("no dependency among kernel rows; internal error")
    return relation


def verify_relation(relation, series, check_order=None):
    """True iff sum_k A_k(X) f(X)^(q^k) == 0 mod X^(N+1).

    N defaults to order(f) - max_k deg A_k so every retained coefficient of
    the combination is fully determined by the truncation.
    """
    field = series.field
    if not field.is_finite:
        raise InfiniteField("Frobenius verification requires a finite field")
    limit = series.order - relation.max_coeff_degree()
    if check_order is not None:
        limit = min(limit, check_order)
    if limit < 0:
        raise InsufficientPrecision(
            "series truncation shorter than relation coefficients")
    total = dot(field, [(coeff.coeffs, series.spread(relation.q ** k).coeffs)
                        for k, coeff in enumerate(relation.coeffs)
                        if not coeff.is_zero()], limit)
    return not any(total)
