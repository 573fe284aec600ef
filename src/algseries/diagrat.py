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
"""

from dataclasses import dataclass

from .algebra.polys import BiPoly, derivative_y, substitute_xy
from .algebra.series import TruncSeries1, anti_diagonals, cell_value
from .errors import AlgSeriesError, HypothesisViolated

# Largest order diagonal_coeffs accepts.  Its memory grows like N, its time
# like N^2 times the terms of den: through the CLI, N = 2048 took 0.2 s and
# 17 MiB on 1/(1+X+Y) over F2, 1.8-2.0 s and 25 MiB on 1/(1-X-Y) over Q
# (shared 2-core machine, Python 3.11).
DIAGONAL_ORDER_LIMIT = 2048


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


def diagonal_coeffs(rep, order):
    """c_0..c_order of the diagonal of rep.num/rep.den.

    An order above DIAGONAL_ORDER_LIMIT raises AlgSeriesError before any
    work.
    """
    if order > DIAGONAL_ORDER_LIMIT:
        raise AlgSeriesError(f"order {order} is above DIAGONAL_ORDER_LIMIT = "
                             f"{DIAGONAL_ORDER_LIMIT}")
    sweep = anti_diagonals(rep.num, rep.den, order)
    # cell (n, n) is the middle cell of anti-diagonal 2n
    coeffs = [cell_value(cells[len(cells) // 2], unit)
              for t, (unit, cells) in enumerate(sweep) if t % 2 == 0]
    return TruncSeries1(rep.num.field, coeffs, order)
