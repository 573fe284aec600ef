"""Field-generic coefficient extraction for algebraic series.

For P with P(0,0) = 0 and P'_Y(0,0) = 0, the fixed point f = P(X, f) with
f(0) = 0 is unique, and

    f_n = sum_{m >= 1} [X^n Y^(m-1)] (1 - P'_Y(X, Y)) P(X, Y)^m.

Key a cell (i, j) of P^m by i and s = m - 1 - j.  A monomial X^a Y^b of P
then moves every cell of every power by the same key offset, so by
linearity H = sum_{m >= 1} P^m on those keys solves H = P (1 + H), and

    f_n = sum_w c_w H[s = b_w, i = n - a_w]

over the terms c_w X^(a_w) Y^(b_w) of W = 1 - P'_Y.  The monomial raises
the weight phi = 2i - s of a key by 2a + b - 1 >= 1 (that is exactly the
hypothesis pair), so fs_coefficients finds H in one pass over the keys in
increasing phi: a key is complete before anything reads it, with no
iteration and no truncation.  A byte mask keeps only the keys from which
some product of P's monomials still reaches a key that f reads
(_reach_limits, _cell_grid).  Over Q the same sweep runs on integers, after
a weight scaling clears the denominators of P (fs_coefficients).
fixed_point_coefficients is the independent oracle (Newton lifting of
Y - P(X, Y), certified by one exact substitution), and fs_partial_sum
exposes the per-m partial sums of the formula on the cells of P^m
(_power_cells).
"""

from fractions import Fraction
from math import lcm

from .algebra.polys import BiPoly, derivative_y
from .algebra.series import TruncSeries1, eval_bipoly_at_series
from .errors import AlgSeriesError, HypothesisViolated
from .roots import hensel_root

# Largest order fs_coefficients accepts.  At N = 1024 the mask takes about
# 3N^2 bytes, and the sweep over Q took 0.8 s on X + Y^2 + X*Y^3 and up to
# 3.0 s on 1/3*X - 2/5*X*Y + 3/7*Y^2 (shared 2-core machine, Python 3.11).
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
    """P without the terms X^a Y^b with 2a + b > 2N: from phi >= 1 they
    land past phi = 2N, the largest phi that f_0..f_N read (_sweep), and
    their terms in W are read at phi <= 0, where nothing is."""
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
    """(S, base, mask, steps) of the keys of the cells of P^m and of H.

    poly is P after _live_poly, so its terms have a <= N and b <= 2N.  A
    cell (i, j) of P^m has s = m - 1 - j and the key (s + base) * S + i,
    so a term c X^a Y^b of P moves it to (s + 1 - b, i + a): steps lists
    (offset, rise, c) with the key offset (1 - b) * S + a and the rise
    2a + b - 1 of phi, in increasing rise.  The row width S = N + 1 +
    max a keeps i + a inside its row.  mask[key] is 1 iff i <= limits[s]
    (_reach_limits), so it is the keep rule of every power and of H at
    once.  Its rows run from max b + 1 below the least s with a limit to 2
    above the largest, which holds every destination of a kept key and of
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
    steps = [((1 - b) * S + a, 2 * a + b - 1, c)
             for (a, b), c in poly.terms.items()]
    return S, base, mask, sorted(steps, key=lambda step: step[1])


def _sweep(poly, N):
    """f_0..f_N of the fixed point of poly (after _live_poly), as raw values.

    One pass over the keys of _cell_grid in increasing phi = 2i - s, with
    one dict of keys per phi still to come, from the cell (0, 0) of P^0 at
    phi = 1.  A key is complete when its bucket comes up, as its sources
    have smaller phi: its value v goes into each f_n that reads it, and
    c v into its destination under each term c X^a Y^b of P.  Over F_p
    these sums are plain ints, reduced once per key; over F_{p^k} a term's
    scalar is its row of the multiplication table; over Q the coefficients
    must be ints.
    """
    field = poly.field
    wrows = _correction_rows(poly)
    S, base, mask, steps = _cell_grid(poly, N, wrows)
    reads = {}  # phi: [(key of (s = b_w, i = n - a_w), n, c_w), ...]
    for bw, wterms in wrows.items():
        for aw, cw in wterms:
            for i in range(N + 1 - aw):
                reads.setdefault(2 * i - bw, []).append(
                    ((bw + base) * S + i, i + aw, cw))
    extension = field.kind == "extension"
    if extension:
        q, add, mul = field.order, field._add, field._mul
        steps = [(off, rise, mul[c * q:(c + 1) * q]) for off, rise, c in steps]
    p = field.char if field.kind == "prime" else 0
    f = [field.zero] * (N + 1)
    buckets = {1: {(base - 1) * S: field.one}}
    for phi in range(1, 2 * N + 1):
        cells = buckets.pop(phi, None)
        if not cells:
            continue
        cells = {k: r for k, v in cells.items() if (r := v % p if p else v)}
        for key, n, cw in reads.get(phi, ()):
            if v := cells.get(key):
                f[n] = field.add(f[n], field.mul(cw, v))
        items = cells.items()
        for off, rise, c in steps:
            if phi + rise > 2 * N:
                break  # past every read key
            nxt = buckets.setdefault(phi + rise, {})
            get = nxt.get
            if extension:
                for k, v in items:
                    k += off
                    if mask[k]:
                        nxt[k] = add[get(k, 0) * q + c[v]]
            else:
                for k, v in items:
                    k += off
                    if mask[k]:
                        nxt[k] = get(k, 0) + c * v
    return f


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
        for off, _, c in steps:
            for k, v in cells.items():
                k += off
                if mask[k]:
                    nxt[k] = add(nxt.get(k, zero), mul(c, v))
        cells = {k: v for k, v in nxt.items() if v}
        if not cells:
            return
        yield m, cells


def fs_coefficients(problem, order):
    """f_0..f_order of the fixed point, by the formula summed over m first.

    An order above EXTRACT_ORDER_LIMIT raises AlgSeriesError before any
    work.  Over finite fields this is _sweep on P.  Over Q, with D the lcm
    of the denominators of P, g(X) = f(D^2 X) / D is the fixed point of

        P_D = sum c D^(2a+b-1) X^a Y^b    over the terms c X^a Y^b of P,

    whose coefficients are ints, as 2a + b - 1 >= 1 (and <= 2N - 1 after
    _live_poly).  So _sweep runs on P_D with plain ints, and
    f_n = g_n / D^(2n-1), an int when integral as in QQ.
    """
    field = problem.field
    N = order
    if N > EXTRACT_ORDER_LIMIT:
        raise AlgSeriesError(f"order {N} is above EXTRACT_ORDER_LIMIT = "
                             f"{EXTRACT_ORDER_LIMIT}")
    poly = _live_poly(problem.poly, N)
    if field.kind != "rationals":
        return TruncSeries1(field, _sweep(poly, N), N)
    D = lcm(*(c.denominator for c in poly.terms.values()))
    g = _sweep(BiPoly(field, {(a, b): int(c * D ** (2 * a + b - 1))
                              for (a, b), c in poly.terms.items()}), N)
    quotients = (Fraction(g[n], D ** (2 * n - 1)) for n in range(1, N + 1))
    f = [0] + [q.numerator if q.denominator == 1 else q for q in quotients]
    return TruncSeries1(field, f, N)


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
