"""Frobenius annihilating relations from kernel automata.

A digit automaton over F_q whose states realize the q-kernel of a series
G_1 satisfies G_i(X) = sum_j A_{i,j}(X) G_j(X^q) with
A_{i,j} = sum_{r : delta(i,r)=j} X^r, up to a constant term where its
output changes along its 0-transition; with the constant series 1 as one
more coordinate of G, the identity holds exactly (_kernel_rows), and d is
the number of coordinates.  Iterating and restricting to the first row
gives, for k = 0..d,

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
from .errors import (BaseMismatch, DegreeBlowup, InfiniteField,
                     InsufficientPrecision, NoRelation)

KERNEL_SIZE_CAP = 8  # elimination degrees grow like q^d


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


def _kernel_rows(automaton):
    """Rows B_0..B_d, B_k the initial state's row of prod_{i=k}^{d} A(X^(q^i)).

    G_s(X) = sum_r X^r * G_delta(s, r)(X^q) fails only at n = 0, by
    c_s = out(s) - out(delta(s, 0)), so G = A(X) * G(X^q) + c.  When some
    c_s != 0, the constant series 1 = 1(X^q) is one more coordinate: column
    c of A, and 1 on its own diagonal.  d is the number of coordinates.
    The row is u_(d+1-k)(X^(q^k)) for the row vectors u_0 = e_initial and
    u_(j+1) = u_j * A(X^(q^j)).  Entry t of u * A(X^e) is the sum of
    x * X^(r*e) * u[s] over its incoming entries (r, x, s): x = 1 for a
    transition delta(s, r) = t, x = c_s into the constant coordinate.  It is
    one accumulate of the cells of u that lead into t; so the rows take d+1
    products of a row vector by a matrix, not of two matrices.
    """
    field, q, delta = automaton.field, automaton.q, automaton.transitions
    out, one = automaton.outputs, field.one
    incoming = [[] for _ in delta]  # t -> [(r, x, s)]
    for s, row in enumerate(delta):
        for r, t in enumerate(row):
            incoming[t].append((r, one, s))
    c = [field.sub(out[s], out[row[0]]) for s, row in enumerate(delta)]
    if any(c):
        incoming.append([(0, x, s) for s, x in enumerate(c) if x] +
                        [(0, one, len(delta))])
    d = len(incoming)
    u = [[one] if s == automaton.initial else [] for s in range(d)]
    vectors = []
    for j in range(d + 1):
        e = q ** j
        u = [_shifted_sum(field, [(r * e, x, u[s]) for r, x, s in cell if u[s]])
             for cell in incoming]
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
    earlier rows' leftmost pivots in turn.  Row i carries its combination as
    trailing entries, so it starts as row + e_i.  When it meets the pivot
    row p at column c, with g = gcd(p[c], row[c]), it becomes
    (p[c]/g)*row - (row[c]/g)*p; each entry of the step is one UniPoly.dot
    of two products.  A row that stays nonzero becomes a pivot once it is
    divided by its content, which keeps the degrees of all later steps
    down; no fraction is formed.
    """
    pivots = {}  # column -> reduced row, with its combination
    for i, row in enumerate(rows):
        n, field = len(row), row[0].field
        zero = UniPoly.zero(field)
        work = list(row) + [zero] * i + [UniPoly.one(field)]
        col = _leading(work, 0, n)
        while col is not None and col in pivots:
            p = pivots[col]
            g = p[col].gcd(work[col])
            a, b = p[col] // g, -(work[col] // g)
            work = [zero] * (col + 1) + [
                UniPoly.dot(field, [(a, w), (b, v)])
                for w, v in zip(work[col + 1:], p[col + 1:])] + \
                [a * w for w in work[len(p):]]
            col = _leading(work, col + 1, n)
        if col is None:
            return work[n:]
        pivots[col] = primitive_part(work)
    return None


def _leading(work, start, end):
    """Index of the first nonzero entry of work[start:end], or None."""
    return next((j for j in range(start, end) if not work[j].is_zero()), None)


def frobenius_relation(automaton, check_order=256):
    """Annihilating relation for the series generated by the automaton.

    Minimizes, builds the stacked row matrix B of the result (with the
    constant coordinate of _kernel_rows when its outputs change along a
    0-transition) and returns the first dependency among its rows in
    canonical form, once it verifies to order ``check_order`` on the series
    of the automaton as given, so a wrong minimization fails the check too;
    always succeeds when the minimized automaton has d <= KERNEL_SIZE_CAP
    states.  The series is zero, with the relation f = 0, exactly when
    _generates_zero holds on the minimized automaton; no sampled prefix
    decides it.
    """
    field = automaton.field
    if not field.is_finite:
        raise InfiniteField("kernel matrices require a finite field")
    if automaton.arity != 1:
        raise BaseMismatch("kernel matrices need a one-dimensional automaton")
    if automaton.q != field.order:
        raise BaseMismatch(
            f"digit base {automaton.q} differs from field cardinality {field.order}")
    minimized = automaton.minimize()
    d = minimized.n_states
    if d > KERNEL_SIZE_CAP:
        raise DegreeBlowup(f"kernel has {d} states, cap is {KERNEL_SIZE_CAP}")
    q = automaton.q
    if _generates_zero(minimized):
        relation = FrobeniusRelation((UniPoly.one(field),), q)
    else:
        combo = null_left_vector(_kernel_rows(minimized))
        if combo is None:
            raise NoRelation("no dependency among kernel rows; internal error")
        relation = canonical_relation(combo, q)
    series = automaton.generate(relation.max_coeff_degree() + check_order)
    if not verify_relation(relation, series, check_order=check_order):
        raise NoRelation("no dependency among kernel rows; internal error")
    return relation


def _generates_zero(minimized):
    """True iff every coefficient of the minimized automaton's series is 0.

    Index 0 ends in the initial state.  An index with k + 1 digits ends in
    delta(s, r), r != 0 its leading digit and s the state its k lower
    digits reach, and every k-digit word, leading zeros included, is the
    lower digits of such an index.  All states of a minimized automaton are
    reachable, so the series is zero iff the initial state and every
    nonzero-digit successor output 0.  A state entered only by digit 0 ends
    no index, and its output does not count.
    """
    out = minimized.outputs
    return not (out[minimized.initial] or
                any(out[t] for row in minimized.transitions for t in row[1:]))


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
