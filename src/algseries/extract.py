"""Field-generic coefficient extraction for algebraic series.

For P with P(0,0) = 0 and P'_Y(0,0) = 0, the fixed point f = P(X, f) with
f(0) = 0 is unique, and

    f_n = sum_{m >= 1} [X^n Y^(m-1)] (1 - P'_Y(X, Y)) P(X, Y)^m.

Summed over m first, with W = 1 - P'_Y, this is [X^n Y^(-1)] of
W / (1 - P/Y), and X -> XY turns that into the cell (n, n) of

    num/den = Y W(XY, Y) / (1 - P(XY, Y)/Y),

Furstenberg's representation furstenberg_rep(P - Y) (J. Algebra 7, 1967),
polynomials as 2a + b >= 2 for every term X^a Y^b of P (the hypothesis
pair).  So fs_coefficients is diagonal_coeffs on that pair, the sweep of
the diagonal subcommand.  fixed_point_coefficients is the independent
oracle (Newton lifting of Y - P(X, Y), certified by one exact
substitution).  fs_partial_sum exposes the per-m partial sums of the
formula on the cells of P^m (_power_cells), keyed by i and s = m - 1 - j;
a byte mask keeps only the keys from which some product of P's monomials
still reaches a cell that f_n reads (_reach_limits, _cell_grid).
"""

from .algebra.polys import BiPoly, derivative_y
from .algebra.series import eval_bipoly_at_series
from .diagrat import diagonal_coeffs, furstenberg_rep
from .errors import AlgSeriesError, HypothesisViolated
from .roots import hensel_root

# Largest order fs_coefficients accepts.  Its time grows like N^2 times the
# terms of P.  At N = 1024 it took 0.05 s on X + 2*Y^2 + X*Y^3 + X^2*Y over
# F31, and over Q 0.45 s on X + Y^2 + X*Y^3 and 2.1 s on
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


def _live_poly(poly, N):
    """P without the terms X^a Y^b with 2a + b > 2N: they raise the weight
    phi = 2i - s of a key (i, s) from phi >= 1 past 2N, where no f_n reads,
    and their terms in W are read at phi <= 0, where no key is."""
    return BiPoly(poly.field, {(a, b): c for (a, b), c in poly.terms.items()
                               if 2 * a + b <= 2 * N})


def _correction_rows(poly):
    """Y-slices of W = 1 - P'_Y as {b: [(a, coeff), ...]}."""
    w = BiPoly.one(poly.field) - derivative_y(poly)
    rows = {}
    for (a, b), c in w.items():
        rows.setdefault(b, []).append((a, c))
    return rows


def _reach_limits(poly, N, wrows):
    """{s: largest i kept on the keys of row s}.

    A cell (i, j) of P^m reaches the extracted cells [X^n Y^(m'-1)] W P^m'
    (W = 1 - P'_Y, m' >= m, n <= N) through some multiset of P's monomials
    X^a Y^b with sum (b - 1) = m - 1 - j - b_w, for a term X^a_w Y^b_w of
    W, and then lands at n = i + a_w + sum a.  With cost(t) the least sum a
    over multisets with sum (b - 1) = t (cost(0) = 0), the cell is kept iff
    i <= N - min over W's terms of (a_w + cost(s - b_w)), s = m - 1 - j;
    the s without an entry keep nothing.  cost is a shortest path over t
    with steps b - 1 of weight a, found with one queue per cost value, as
    only the values 0..N matter.  The search stays in the window
    [-N, 2N - 2] of the wanted t (s <= 2N - 2, and b_w >= 0), which loses
    no multiset of cost <= N: its only steps down are the monomials with
    b = 0, each of size 1 and cost a >= 1, so at most N of them; taken
    first, they keep every partial sum within [-N, max(0, t)].
    """
    steps = {}
    for a, b in poly.terms:
        if b != 1:
            steps[b - 1] = min(a, steps.get(b - 1, a))
    hi = 2 * N - 2
    cost = {0: 0}
    queue = [[0]] + [[] for _ in range(N)]  # queue[c]: t reached at cost c
    for c, ts in enumerate(queue):
        for t in ts:  # sees the t that zero-weight steps append
            if cost[t] < c:
                continue
            for step, a in steps.items():
                u, cu = t + step, c + a
                if -N <= u <= hi and cu < cost.get(u, N + 1):
                    cost[u] = cu
                    queue[cu].append(u)
    limits = {}
    for bw, terms in wrows.items():
        aw = min(a for a, _ in terms)
        for t, c in cost.items():
            s, top = t + bw, N - aw - c
            if s <= hi and top > limits.get(s, -1):
                limits[s] = top
    return limits


def _cell_grid(poly, N, wrows):
    """(S, base, mask, steps) of the keys of the cells of P^m.

    poly is P after _live_poly, so its terms have a <= N and b <= 2N.  A
    cell (i, j) of P^m has s = m - 1 - j and the key (s + base) * S + i,
    so a term c X^a Y^b of P moves it to (s + 1 - b, i + a): steps lists
    (offset, c) with the key offset (1 - b) * S + a.  The row width
    S = N + 1 + max a keeps i + a inside its row.  mask[key] is 1 iff
    i <= limits[s] (_reach_limits), so it is the keep rule of every power
    at once.  Its rows run from max b + 1 below the least s with a limit to
    2 above the largest, which holds every destination of a kept key and of
    the start cell (0, 0) of P^0 (s = -1; limits[0] = N exists, since W has
    the term 1), so no key needs a range test.
    """
    limits = _reach_limits(poly, N, wrows)
    S = N + 1 + max((a for a, _ in poly.terms), default=0)
    base = max((b for _, b in poly.terms), default=0) + 1 - min(limits, default=0)
    mask = bytearray((max(limits, default=0) + base + 2) * S)
    for s, top in limits.items():
        start = (s + base) * S
        mask[start:start + top + 1] = b"\1" * (top + 1)
    steps = [((1 - b) * S + a, c) for (a, b), c in poly.terms.items()]
    return S, base, mask, steps


def _power_cells(field, grid, N):
    """Cells {key: coeff} of P^m for m = 1, 2, ..., 2N - 1, as (m, cells).

    P^m is built incrementally (P^{m+1} = P^m * P) on the keys of grid
    (_cell_grid), and keeps the cells that the mask allows.  A dropped cell
    feeds only dropped cells, so every kept value is the full coefficient
    of P^m.  Stops early once nothing is left.
    """
    S, base, mask, steps = grid
    add, mul, zero = field.add, field.mul, field.zero
    cells = {(base - 1) * S: field.one}  # P^0: the cell (0, 0), s = -1
    for m in range(1, 2 * N):
        nxt = {}
        for off, c in steps:
            for k, v in cells.items():
                k += off
                if mask[k]:
                    nxt[k] = add(nxt.get(k, zero), mul(c, v))
        cells = {k: v for k, v in nxt.items() if v}
        if not cells:
            return
        yield m, cells


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
    a + b > order: as f(0) = 0, X^a f^b = 0 mod X^(order+1).
    """
    field = problem.field
    poly = BiPoly(field, {(a, b): c for (a, b), c in problem.poly.terms.items()
                          if a + b <= order})
    terms = {key: field.neg(c) for key, c in poly.terms.items()}
    terms[(0, 1)] = field.one  # P'_Y(0, 0) = 0: no Y term to add it to
    f = hensel_root(BiPoly(field, terms), field.zero, order)
    if eval_bipoly_at_series(poly, f) != f:
        raise AlgSeriesError(
            f"Newton lift is not a fixed point at order {order}")
    return f


def fs_partial_sum(problem, n, m_max):
    """sum_{m=1}^{m_max} [X^n Y^(m-1)] (1 - P'_Y) P^m as a raw value.

    Stabilizes at m_max >= 2n - 1, where it equals f_n: the terms past
    m = 2n - 1 vanish, and _power_cells stops there.
    """
    if m_max < 1:
        raise HypothesisViolated("m_max must be >= 1")
    field = problem.field
    poly = _live_poly(problem.poly, n)
    wrows = _correction_rows(poly)
    grid = _cell_grid(poly, n, wrows)
    S, base = grid[0], grid[1]
    reads = [((bw + base) * S + n - aw, cw) for bw, wterms in wrows.items()
             for aw, cw in wterms if aw <= n]
    total = field.zero
    for m, cells in _power_cells(field, grid, n):
        for key, cw in reads:
            if v := cells.get(key):
                total = field.add(total, field.mul(cw, v))
        if m == m_max:
            break
    return total
