"""Field-generic coefficient extraction for algebraic series.

For P with P(0,0) = 0 and P'_Y(0,0) = 0, the fixed point f = P(X, f) with
f(0) = 0 is unique, and

    f_n = sum_{m >= 1} [X^n Y^(m-1)] (1 - P'_Y(X, Y)) P(X, Y)^m.

The sum is finite in disguise: every monomial X^a Y^b of P has 2a + b >= 2
(that is exactly the hypothesis pair), so every monomial of P^m has
2i + j >= 2m, and [X^n Y^(m-1)] P^m forces 2n + m - 1 >= 2m, i.e.
m <= 2n - 1.  fs_coefficients evaluates the sum exactly with that cutoff;
fixed_point_coefficients is the independent oracle (plain substitution
iteration), and fs_partial_sum exposes the per-m partial sums.
"""

from .algebra.conv import conv
from .algebra.fields import FieldElement
from .algebra.polys import BiPoly, derivative_y
from .algebra.series import TruncSeries1
from .errors import AlgSeriesError, HypothesisViolated


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


def _correction_rows(problem):
    """Y-slices of W = 1 - P'_Y as {b: [(a, coeff), ...]}."""
    field = problem.field
    w = BiPoly.one(field) - derivative_y(problem.poly)
    rows = {}
    for (a, b), c in w.items():
        rows.setdefault(b, []).append((a, c))
    return rows


def _power_rows(problem, N):
    """Y-slices {j: {i: coeff}} of P^m for m = 1, 2, ..., 2N - 1, as (m, rows).

    P^m is built incrementally (P^{m+1} = P^m * P); monomials that can no
    longer land on an extracted cell [X^n Y^(m'-1)] with n <= N are
    dropped: keep (i, j) only while i <= N, j <= 2N - 2 and
    (2i + j <= 2N - 1 + m  or  i + j <= N - 1 + m).  Stops early once
    nothing is left.
    """
    field = problem.field
    add, mul = field.add, field.mul
    pterms = list(problem.poly.terms.items())
    ymax = 2 * N - 2
    rows = {}
    for (a, b), c in pterms:
        if a <= N and b <= ymax:
            rows.setdefault(b, {})[a] = c
    m_top = 2 * N - 1
    for m in range(1, m_top + 1):
        if not rows:
            return
        yield m, rows
        if m == m_top:
            return
        hi2, hi1 = 2 * N + m, N + m  # prune bounds for step m+1
        nxt = {}
        for j, row in rows.items():
            for (a, b), c in pterms:
                jj = j + b
                if jj > ymax:
                    continue
                dst = nxt.get(jj)
                if dst is None:
                    dst = nxt[jj] = {}
                for i, v in row.items():
                    ii = i + a
                    if ii > N or (2 * ii + jj > hi2 and ii + jj > hi1):
                        continue
                    prev = dst.get(ii)
                    product = mul(c, v)
                    dst[ii] = product if prev is None else add(prev, product)
        rows = {j: {i: v for i, v in row.items() if v}
                for j, row in nxt.items()}
        rows = {j: row for j, row in rows.items() if row}


def fs_coefficients(problem, order):
    """f_1..f_order of the fixed point, one coefficient list per the formula."""
    field = problem.field
    N = order
    add, mul = field.add, field.mul
    wrows = _correction_rows(problem)
    f = [field.zero] * (N + 1)
    for m, rows in _power_rows(problem, N):
        for bw, wterms in wrows.items():
            row = rows.get(m - 1 - bw)
            if not row:
                continue
            for aw, cw in wterms:
                for i, v in row.items():
                    n = i + aw
                    if n <= N:
                        f[n] = add(f[n], mul(cw, v))
    f[0] = field.zero  # forced by P(0,0) = 0
    return TruncSeries1(field, f, N)


def _substitute(field, slices, degy, f, n):
    """P(X, f) mod X^(n+1) by Horner in Y on dense lists."""
    acc = [field.zero] * (n + 1)
    for j in range(degy, -1, -1):
        acc = conv(field, acc, f, n)
        for i, c in slices.get(j, {}).items():
            if i <= n:
                acc[i] = field.add(acc[i], c)
    return acc


def fixed_point_coefficients(problem, order):
    """Independent oracle: iterate f <- P(X, f) from 0, one digit per step.

    P'_Y(0,0) = 0 and f(0) = 0, so coefficient k of P(X, f) depends only on
    f mod X^k: step k runs at order k and fixes f_k.  A last step at the
    full order must give f back, which certifies it as the unique fixed
    point mod X^(order+1).
    """
    field = problem.field
    N = order
    slices = {}
    for (a, b), c in problem.poly.terms.items():
        if a <= N:
            slices.setdefault(b, {})[a] = c
    degy = max(slices, default=0)
    f = [field.zero] * (N + 1)
    for k in range(1, N + 1):
        f[:k + 1] = _substitute(field, slices, degy, f, k)
    if _substitute(field, slices, degy, f, N) != f:
        raise AlgSeriesError(f"fixed-point iteration is not stable at order {N}")
    return TruncSeries1(field, f, N)


def fs_partial_sum(problem, n, m_max):
    """sum_{m=1}^{m_max} [X^n Y^(m-1)] (1 - P'_Y) P^m as a FieldElement.

    Stabilizes at m_max >= 2n - 1, where it equals f_n: the terms past
    m = 2n - 1 vanish, and _power_rows stops there.
    """
    if m_max < 1:
        raise HypothesisViolated("m_max must be >= 1")
    field = problem.field
    add, mul = field.add, field.mul
    wrows = _correction_rows(problem)
    total = field.zero
    for m, rows in _power_rows(problem, n):
        for bw, wterms in wrows.items():
            row = rows.get(m - 1 - bw)
            if not row:
                continue
            for aw, cw in wterms:
                v = row.get(n - aw)
                if v:
                    total = add(total, mul(cw, v))
        if m == m_max:
            break
    return FieldElement(field, total)
