"""Field-generic coefficient extraction for algebraic series.

For P with P(0,0) = 0 and P'_Y(0,0) = 0, the fixed point f = P(X, f) with
f(0) = 0 is unique, and

    f_n = sum_{m >= 1} [X^n Y^(m-1)] (1 - P'_Y(X, Y)) P(X, Y)^m.

Summed over m first, with W = 1 - P'_Y, this is [X^n Y^(-1)] of
W / (1 - P/Y), and X -> XY turns that into the cell (n, n) of

    num/den = Y W(XY, Y) / (1 - P(XY, Y)/Y),

Furstenberg's representation furstenberg_rep(P - Y) (J. Algebra 7, 1967),
polynomials as 2a + b >= 2 for every term X^a Y^b of P (the hypothesis
pair).  So fs_coefficients is diagonal_coeffs on that pair, the route of
the diagonal subcommand: over F_q the diagonal's kernel automaton when its
closure fits its budget, else, and over Q, the anti-diagonal sweep.
fixed_point_coefficients is the independent oracle (Newton lifting of
Y - P(X, Y), certified by one exact substitution).  fs_partial_sum sums
the formula up to a given m on the powers of P cut to the box of cells
that can still reach f_n.
"""

from math import lcm

from .algebra.polys import BiPoly, derivative_y
from .algebra.series import TruncSeries1, eval_bipoly_at_series
from .diagrat import diagonal_coeffs, furstenberg_rep
from .errors import AlgSeriesError, HypothesisViolated
from .roots import hensel_root

# Largest order fs_coefficients accepts.  Over Q, and over F_q when the
# diagonal's closure is over its budget, its time grows like N^2 times the
# terms of P.  At N = 1024 it took 0.05 s on X + 2*Y^2 + X*Y^3 + X^2*Y over
# F31 (a fallback), and over Q 0.45 s on X + Y^2 + X*Y^3 and 2.1 s on
# 1/3*X - 2/5*X*Y + 3/7*Y^2 (in process, shared 2-core machine, Python 3.11).
EXTRACT_ORDER_LIMIT = 1024


class FixedPointProblem:
    """P together with its field, validated for the extraction hypotheses."""

    __slots__ = ("poly", "field")

    def __init__(self, poly):
        bad = []
        if poly.terms.get((0, 0)):
            bad.append("P(0,0) != 0")
        if poly.terms.get((0, 1)):
            bad.append("P'_Y(0,0) != 0")
        if bad:
            raise HypothesisViolated(" and ".join(bad))
        self.poly = poly
        self.field = poly.field

    def __repr__(self):
        return f"FixedPointProblem({self.poly!r} over {self.field!r})"


def fs_coefficients(problem, order):
    """f_0..f_order of the fixed point, by the formula summed over m first:
    the diagonal of furstenberg_rep(P - Y) (module docstring).  An order
    above EXTRACT_ORDER_LIMIT raises AlgSeriesError before any work.
    """
    if order > EXTRACT_ORDER_LIMIT:
        raise AlgSeriesError(f"order {order} is above EXTRACT_ORDER_LIMIT = "
                             f"{EXTRACT_ORDER_LIMIT}")
    poly = problem.poly
    return diagonal_coeffs(furstenberg_rep(poly - BiPoly.y(poly.field)), order)


def fixed_point_coefficients(problem, order):
    """Independent oracle: the root of Y - P(X, Y) lifted from 0 by Newton.

    (Y - P)'_Y(0, 0) = 1, so the residue root 0 is simple and hensel_root
    doubles the X-adic precision per step.  A last exact substitution must
    give the lift back, P(X, f) = f mod X^(order+1), which certifies it as
    the unique fixed point.  Both run on P without its terms X^a Y^b with
    a + b > order: as f(0) = 0, X^a f^b = 0 mod X^(order+1).  Over Q, with
    D the lcm of the denominators of those terms, both run on the ints of
    P_D = sum c D^(2a+b-1) X^a Y^b (2a + b - 1 >= 1 by the hypotheses),
    whose fixed point is g(X) = f(D^2 X)/D, so f_n = g_n / D^(2n-1).
    """
    field = problem.field
    terms = {(a, b): c for (a, b), c in problem.poly.terms.items()
             if a + b <= order}
    rational = field.kind == "rationals"
    D = lcm(*(c.denominator for c in terms.values())) if rational else 1
    if D > 1:
        terms = {(a, b): int(c * D ** (2 * a + b - 1))
                 for (a, b), c in terms.items()}
    poly = BiPoly(field, terms)
    negated = {key: field.neg(c) for key, c in terms.items()}
    negated[(0, 1)] = field.one  # P'_Y(0, 0) = 0: no Y term to add it to
    f = hensel_root(BiPoly(field, negated), field.zero, order)
    if eval_bipoly_at_series(poly, f) != f:
        raise AlgSeriesError(
            f"Newton lift is not a fixed point at order {order}")
    if D == 1:
        return f
    return TruncSeries1(field, [field.div(g, D ** (2 * n - 1)) if n else g
                                for n, g in enumerate(f.coeffs)])


def fs_partial_sum(problem, n, m_max):
    """sum_{m=1}^{m_max} [X^n Y^(m-1)] (1 - P'_Y) P^m as a raw value.

    Stabilizes at m_max >= 2n - 1, where it equals f_n: the terms past
    m = 2n - 1 vanish.  With top = min(m_max, 2n - 1), P^m is kept on the
    box i <= n, j < top, 2i + j < 2n + m: each factor of P has 2a + b >= 2,
    so a cell past it reaches no cell that W = 1 - P'_Y reads at m <= top.
    """
    if m_max < 1:
        raise HypothesisViolated("m_max must be >= 1")
    field, poly = problem.field, problem.poly
    w = BiPoly.one(field) - derivative_y(poly)
    top = min(m_max, 2 * n - 1)
    power, total = BiPoly.one(field), field.zero
    for m in range(1, top + 1):
        power = BiPoly(field, {
            (i, j): c for (i, j), c in (power * poly).terms.items()
            if i <= n and j < top and 2 * i + j < 2 * n + m})
        for (a, b), c in w.terms.items():
            if v := power.terms.get((n - a, m - 1 - b)):
                total = field.add(total, field.mul(c, v))
    return total
