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
from .errors import HypothesisViolated


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


def fs_coefficients(problem, order):
    """f_1..f_order of the fixed point, one coefficient list per the formula.

    P^m is built incrementally (P^{m+1} = P^m * P); monomials that can no
    longer land on an extracted cell [X^n Y^(m'-1)] with n <= order are
    dropped: keep (i, j) only while i <= order, j <= 2*order - 2 and
    (2i + j <= 2*order - 1 + m  or  i + j <= order - 1 + m).
    """
    field = problem.field
    N = order
    if problem.poly.is_zero() or N == 0:
        return TruncSeries1.zeros(field, N)
    add, mul = field.add, field.mul
    wrows = _correction_rows(problem)
    pterms = list(problem.poly.terms.items())
    ymax = 2 * N - 2
    f = [field.zero] * (N + 1)
    # rows: j -> {i: coeff}, the Y-slices of the current power P^m
    rows = {}
    for (a, b), c in pterms:
        if a <= N and b <= max(ymax, 0):
            rows.setdefault(b, {})[a] = c
    m_top = 2 * N - 1
    for m in range(1, m_top + 1):
        for bw, wterms in wrows.items():
            row = rows.get(m - 1 - bw)
            if not row:
                continue
            for aw, cw in wterms:
                for i, v in row.items():
                    n = i + aw
                    if n <= N:
                        f[n] = add(f[n], mul(cw, v))
        if m == m_top:
            break
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
        if not rows:
            break
    f[0] = field.zero  # forced by P(0,0) = 0
    return TruncSeries1(field, f, N)


def fixed_point_coefficients(problem, order):
    """Independent oracle: iterate f <- P(X, f) mod X^(order+1) from 0.

    Each iteration gains at least one X-adic digit, so at most order + 1
    iterations are needed; stops as soon as the iterate is stable.
    """
    field = problem.field
    N = order
    add = field.add
    slices = {}
    for (a, b), c in problem.poly.terms.items():
        if a <= N:
            slices.setdefault(b, {})[a] = c
    degy = max(slices, default=0)
    f = [field.zero] * (N + 1)
    for _ in range(N + 1):
        # P(X, f) by Horner in Y on dense lists
        acc = [field.zero] * (N + 1)
        for j in range(degy, -1, -1):
            acc = conv(field, acc, f, N)
            row = slices.get(j)
            if row:
                for i, c in row.items():
                    acc[i] = add(acc[i], c)
        if acc == f:
            break
        f = acc
    return TruncSeries1(field, f, N)


def fs_partial_sum(problem, n, m_max):
    """sum_{m=1}^{m_max} [X^n Y^(m-1)] (1 - P'_Y) P^m as a FieldElement.

    Stabilizes at m_max >= 2n - 1, where it equals f_n.
    """
    if m_max < 1:
        raise HypothesisViolated("m_max must be >= 1")
    field = problem.field
    add, mul = field.add, field.mul
    wrows = _correction_rows(problem)
    pterms = list(problem.poly.terms.items())
    jmax = m_max - 1
    total = field.zero
    rows = {}
    for (a, b), c in pterms:
        if a <= n and b <= jmax:
            rows.setdefault(b, {})[a] = c
    for m in range(1, m_max + 1):
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
        nxt = {}
        for j, row in rows.items():
            for (a, b), c in pterms:
                jj = j + b
                if jj > jmax:
                    continue
                dst = nxt.setdefault(jj, {})
                for i, v in row.items():
                    ii = i + a
                    if ii > n:
                        continue
                    dst[ii] = add(dst.get(ii, field.zero), mul(c, v))
        rows = {j: {i: v for i, v in row.items() if v} for j, row in nxt.items()}
    return FieldElement(field, total)
