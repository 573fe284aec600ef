"""Realize algebraic series as diagonals of explicit rational functions.

For Q with Q(0,0) = 0 and Q_Y(0,0) != 0 there is a unique power series root
phi with phi(0) = 0, and phi is the diagonal of

    Y^2 * Q_Y(XY, Y) / Q(XY, Y).

Both substituted polynomials are divisible by Y^v (v = Y-adic valuation of
Q(XY, Y), in fact v = 1 under the hypotheses); cancelling Y^v leaves a
denominator with nonzero constant term so the series expansion exists.  The
representation is normalized so den(0,0) = 1, which for fixed-point inputs
Q = P - Y reproduces the reduced form num = Y(1 - P'_Y(XY,Y)),
den = 1 - P(XY,Y)/Y.

diagonal_coeffs has two routes.  Over F_q the diagonal is automatic
(Christol 1979): the diagonal of Lambda_{r,r}(F) is Lambda_r of the
diagonal of F, and Lambda_{r,s}(R/Q) = Lambda_{r,s}(R Q^(q-1))/Q, so
closing num under the q diagonal sections of den gives a finite automaton
(cartier.rational_kernel with diagonal=True, which forms only the terms of
those sections) that generates c_0..c_N in O(N).  The closure is tried
under a work budget, a share of what the sweep would cost, and the sweep
runs when the closure exceeds it.  Over Q, and on that fallback,
series.anti_diagonals sweeps the box i, j <= N and reads the cells (n, n).
Both routes are exact, so they give the same coefficients.
"""

from dataclasses import dataclass

from .algebra.polys import BiPoly, derivative_y, substitute_xy
from .algebra.series import TruncSeries1, anti_diagonals, cell_value
from .cartier import rational_kernel
from .errors import AlgSeriesError, HypothesisViolated, StateBudgetExceeded

# Largest order diagonal_coeffs accepts.  Over Q, and on the fallback over
# F_q, its memory grows like N and its time like N^2 times the terms of den:
# through the CLI, N = 2048 took 0.6 s and 26 MiB on 1/(1-X-Y) over Q
# (shared 2-core machine, Python 3.11).  A closure that fits its budget
# costs no more than a share of that, plus O(N) to generate.
DIAGONAL_ORDER_LIMIT = 2048

# Over F_q = F_{p^k} the closure may spend this share of the sweep's cost,
# measured as k * sweep_cells(den, N): the sweep packs k t-digits per cell.
# A term product the closure charges (numerator_images) takes 0.1-0.2 us,
# a cell update of the sweep 5-25 ns (in process, Python 3.11), so a closure
# that gives up costs a few percent of the sweep that follows it.
CLOSURE_SHARE = 1 / 512


@dataclass(frozen=True)
class DiagonalRep:
    """num/den whose diagonal is the tracked series; den(0,0) != 0."""

    num: BiPoly
    den: BiPoly

    def __post_init__(self):
        if not self.den.terms.get((0, 0)):
            raise HypothesisViolated("denominator vanishes at the origin")


def furstenberg_rep(Q):
    """DiagonalRep of the power-series root phi of Q with phi(0) = 0."""
    bad = []
    if Q.terms.get((0, 0)):
        bad.append("Q(0,0) != 0")
    if not Q.terms.get((0, 1)):
        bad.append("Q_Y(0,0) == 0")
    if bad:
        raise HypothesisViolated(" and ".join(bad))
    field = Q.field
    den_full = substitute_xy(Q)
    num_full = substitute_xy(derivative_y(Q)).mul_monomial(0, 2)
    v = min(j for _, j in den_full.terms)
    num = BiPoly(field, {(i, j - v): c for (i, j), c in num_full.terms.items()})
    den = BiPoly(field, {(i, j - v): c for (i, j), c in den_full.terms.items()})
    scale = field.inv(den.terms[(0, 0)])
    if scale != field.one:
        num, den = num.scale(scale), den.scale(scale)
    return DiagonalRep(num, den)


def sweep_cells(den, order):
    """Cell updates of the sweep to ``order``: a term X^a Y^b of den past
    the constant updates the cells i >= a, j >= b of the box i, j <= N."""
    n = order + 1
    return sum(max(n - a, 0) * max(n - b, 0) for a, b in den.terms if a or b)


def diagonal_coeffs(rep, order):
    """c_0..c_order of the diagonal of rep.num/rep.den.

    An order above DIAGONAL_ORDER_LIMIT raises AlgSeriesError before any
    work.  Over F_q the coefficients are generated by the diagonal kernel
    automaton, rational_kernel(num, den, diagonal=True), if its closure
    takes at most CLOSURE_SHARE of the sweep's cost in term products;
    otherwise, and over Q, the sweep computes them.
    """
    if order > DIAGONAL_ORDER_LIMIT:
        raise AlgSeriesError(f"order {order} is above DIAGONAL_ORDER_LIMIT = "
                             f"{DIAGONAL_ORDER_LIMIT}")
    field = rep.num.field
    if field.is_finite:
        work = CLOSURE_SHARE * field.degree * sweep_cells(rep.den, order)
        try:
            return rational_kernel(rep.num, rep.den, diagonal=True,
                                   work=work).generate(order)
        except StateBudgetExceeded:
            pass
    sweep = anti_diagonals(rep.num, rep.den, order)
    # cell (n, n) is the middle cell of anti-diagonal 2n
    coeffs = [cell_value(cells[len(cells) // 2], unit)
              for t, (unit, cells) in enumerate(sweep) if t % 2 == 0]
    return TruncSeries1(rep.num.field, coeffs, order)
