"""Frobenius annihilating relations from kernel automata.

A digit automaton over F_q whose states realize the q-kernel of a series
G_1 satisfies G_i(X) = sum_j A_{i,j}(X) G_j(X^q) with
A_{i,j} = sum_{r : delta(i,r)=j} X^r.  Iterating and restricting to the
first row gives, for k = 0..d,

    G_1(X)^(q^k) = (prod_{i=k}^{d} A(X^(q^i)))_1 . (G(X^(q^(d+1)))-vector)

so the d+1 first rows B_0..B_d of those products are linearly dependent
over F_q(X), and any left null vector of B annihilates G_1, G_1^q, ...,
G_1^(q^d).  Relations are canonicalized: denominators cleared, common
polynomial gcd removed, highest-index coefficient monic.
"""

from dataclasses import dataclass

from .algebra.polys import RationalFn, UniPoly
from .algebra.series import TruncSeries1
from .errors import (BaseMismatch, DegreeBlowup, InfiniteField,
                     InsufficientPrecision, NoRelation)

KERNEL_SIZE_CAP = 8  # elimination degrees grow like q^d


@dataclass(frozen=True)
class FrobeniusRelation:
    """sum_k coeffs[k] * phi^(q^(k+shift)) = 0 with coeffs in F_q[X].

    Canonical form: not all coefficients zero, gcd of all coefficients is 1,
    the highest-index nonzero coefficient is monic.  Relations synthesized
    by this toolkit always have shift = 0.
    """

    coeffs: tuple
    q: int
    shift: int = 0

    def __post_init__(self):
        if not self.coeffs or all(c.is_zero() for c in self.coeffs):
            raise NoRelation("a relation needs a nonzero coefficient")

    @property
    def field(self):
        return self.coeffs[0].field

    @property
    def length(self):
        return len(self.coeffs) - 1

    def max_coeff_degree(self):
        return max(c.degree for c in self.coeffs)

    def to_text(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            power = self.q ** (k + self.shift)
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


def relation_from_rationals(fractions, q, shift=0):
    """Clear denominators and canonicalize a coefficient vector.

    ``fractions`` is a sequence of univariate RationalFn over F_q.
    """
    field = fractions[0].field
    lcm = UniPoly.one(field)
    for frac in fractions:
        if frac.is_zero():
            continue
        g = lcm.gcd(frac.den)
        lcm = lcm * (frac.den // g)
    polys = [frac.num * (lcm // frac.den) for frac in fractions]
    gcd = UniPoly.zero(field)
    for p in polys:
        gcd = gcd.gcd(p)
        if gcd.degree == 0 and not gcd.is_zero():
            break
    if gcd.degree > 0:
        polys = [p // gcd for p in polys]
    top = next(p for p in reversed(polys) if not p.is_zero())
    lead = top.lead()
    if lead != field.one:
        inv = field.inv(lead)
        polys = [p.scale(inv) for p in polys]
    return FrobeniusRelation(tuple(polys), q, shift)


@dataclass(frozen=True)
class KernelMatrix:
    """A(X) with A_{i,j} = sum of X^r over digits r with delta(i, r) = j."""

    entries: tuple  # d x d tuple of UniPoly
    q: int

    @property
    def size(self):
        return len(self.entries)


def kernel_matrix(automaton):
    """Kernel matrix of a digit automaton whose base matches its field."""
    field = automaton.field
    if not field.is_finite:
        raise InfiniteField("kernel matrices require a finite field")
    if automaton.arity != 1:
        raise BaseMismatch("kernel matrices need a one-dimensional automaton")
    if automaton.q != field.order:
        raise BaseMismatch(
            f"digit base {automaton.q} differs from field cardinality {field.order}")
    d = automaton.n_states
    rows = []
    for i in range(d):
        row = [dict() for _ in range(d)]
        for r in range(automaton.q):
            row[automaton.transitions[i][r]][r] = field.one
        rows.append(tuple(
            UniPoly(field, [cell.get(k, field.zero)
                            for k in range(max(cell, default=-1) + 1)])
            for cell in row))
    return KernelMatrix(tuple(rows), automaton.q)


def _matmul(A, B, field):
    n, mid, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = UniPoly.zero(field)
            for k in range(mid):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _subst_matrix(M, e):
    return tuple(tuple(p.subst_power(e) for p in row) for row in M)


def null_left_vector(rows):
    """A nonzero c with sum_i c_i * rows[i] = 0, or None if independent.

    ``rows`` is a list of equal-length lists of univariate RationalFn.
    Elimination processes rows in order with leftmost pivots, so the result
    is deterministic; with more rows than columns a null vector always
    exists.
    """
    if not rows:
        return None
    field = rows[0][0].field
    ncols = len(rows[0])
    one = RationalFn.one(field)
    zero = RationalFn.zero(field)
    pivots = {}  # column -> (reduced row, combination)
    for i, row in enumerate(rows):
        work = list(row)
        combo = [zero] * len(rows)
        combo[i] = one
        for col in range(ncols):
            if work[col].is_zero():
                continue
            hit = pivots.get(col)
            if hit is None:
                inv = work[col].inverse()
                work = [w * inv for w in work]
                combo = [c * inv for c in combo]
                pivots[col] = (work, combo)
                work = None
                break
            prow, pcombo = hit
            factor = work[col]
            work = [w - factor * pw for w, pw in zip(work, prow)]
            combo = [c - factor * pc for c, pc in zip(combo, pcombo)]
        if work is not None and all(w.is_zero() for w in work):
            return combo[:len(rows)]
    return None


def frobenius_relation(automaton, size_cap=KERNEL_SIZE_CAP, check_order=256):
    """Annihilating relation for the series generated by the automaton.

    Minimizes the automaton, builds the stacked row matrix B of the
    minimized one and returns the shortest prefix dependency that verifies
    against the automaton's series truncation; always succeeds when the
    minimized automaton has d <= size_cap states.
    """
    automaton = automaton.minimize()
    matrix = kernel_matrix(automaton)
    d = matrix.size
    if d > size_cap:
        raise DegreeBlowup(f"kernel has {d} states, cap is {size_cap}")
    field = automaton.field
    q = automaton.q
    series = automaton.generate(check_order)
    if series.is_zero():
        return FrobeniusRelation((UniPoly.one(field),), q)
    # rows[k] = first row of prod_{i=k}^{d} A(X^(q^i))
    prod = _subst_matrix(matrix.entries, q ** d)
    rows = [prod[0]]
    for k in range(d - 1, -1, -1):
        prod = _matmul(_subst_matrix(matrix.entries, q ** k), prod, field)
        rows.append(prod[0])
    rows.reverse()
    rational_rows = [[RationalFn.from_poly(p) for p in row] for row in rows]
    best = None
    for top in range(1, d + 1):
        combo = null_left_vector(rational_rows[:top + 1])
        if combo is None:
            continue
        relation = relation_from_rationals(combo[:top + 1], q)
        needed = relation.max_coeff_degree() + check_order
        if needed > series.order:
            series = automaton.generate(needed)
        if verify_relation(relation, series, check_order=check_order):
            best = relation
            break
    if best is None:
        raise NoRelation("no dependency among kernel rows; internal error")
    return best


def verify_relation(relation, series, check_order=None):
    """True iff sum_k A_k(X) f(X)^(q^(k+shift)) == 0 mod X^(N+1).

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
    total = TruncSeries1.zeros(field, series.order)
    for k, coeff in enumerate(relation.coeffs):
        if coeff.is_zero():
            continue
        power = series.spread(relation.q ** (k + relation.shift))
        total = total + power.mul_poly(coeff)
    return not any(total.coeffs[:limit + 1])
