"""Field-generic coefficient extraction for algebraic series.

For P with P(0,0) = 0 and P'_Y(0,0) = 0, the fixed point f = P(X, f) with
f(0) = 0 is unique, and

    f_n = sum_{m >= 1} [X^n Y^(m-1)] (1 - P'_Y(X, Y)) P(X, Y)^m.

The sum is finite in disguise: every monomial X^a Y^b of P has 2a + b >= 2
(that is exactly the hypothesis pair), so every monomial of P^m has
2i + j >= 2m, and [X^n Y^(m-1)] P^m forces 2n + m - 1 >= 2m, i.e.
m <= 2n - 1.  fs_coefficients evaluates the sum exactly with that cutoff,
building only the cells of P^m from which some product of P's monomials
still reaches an extracted cell (_reach_limits).  Over finite fields a cell
(i, j) of P^m is one entry of a flat dict, keyed by i and s = m - 1 - j:
the keep rule depends on s alone, so one byte mask over the keys serves
every power, and a monomial of P is one fixed key offset (_cell_grid,
_power_cells).  Over Q the same cells of (D*P)^m, D the lcm of P's
denominators, are packed into one Python int per Y-slice with signed slots
of a proven width (_packed_rows, fs_coefficients).
fixed_point_coefficients is the independent oracle (Newton lifting of
Y - P(X, Y), certified by one exact substitution), and fs_partial_sum
exposes the per-m partial sums on the flat cells.
"""

from fractions import Fraction
from math import lcm

from .algebra.polys import BiPoly, derivative_y
from .algebra.series import TruncSeries1, eval_bipoly_at_series
from .errors import AlgSeriesError, HypothesisViolated
from .roots import hensel_root

# Largest order fs_coefficients accepts.  The mask of the F_q sweep takes
# about 3N^2 bytes, and the time over Q grows about like N^4 (over five
# minutes at N = 1024 on a 2-core machine).
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


def _correction_rows(problem):
    """Y-slices of W = 1 - P'_Y as {b: [(a, coeff), ...]}."""
    field = problem.field
    w = BiPoly.one(field) - derivative_y(problem.poly)
    rows = {}
    for (a, b), c in w.items():
        rows.setdefault(b, []).append((a, c))
    return rows


def _reach_limits(problem, N, wrows):
    """{s: largest i kept on the rows j of P^m with m - 1 - j = s}.

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
    for a, b in problem.poly.terms:
        if b != 1 and a <= N:
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


def _cell_grid(problem, N, wrows):
    """(S, base, mask, steps) of the flat sweep over the cells of P^m.

    A cell (i, j) of P^m has s = m - 1 - j and the key (s + base) * S + i,
    so a term X^a Y^b of P moves it to (s + 1 - b, i + a), a fixed key
    offset of (1 - b) * S + a; steps lists those offsets with the terms'
    coefficients.  Only the terms with a <= N enter: the others never reach
    a kept cell.  The row width S = N + 1 + max a keeps i + a inside its
    row.  mask[key] is 1 iff i <= limits[s] (_reach_limits), so it is the
    keep rule of every power at once.  Its rows run from max b + 1 below
    the least s with a limit to 2 above the largest, which holds every
    destination of a kept cell and of the start cell (0, 0) of P^0
    (s = -1; limits[0] = N exists, since W has the term 1), so no key needs
    a range test.
    """
    terms = [(a, b, c) for (a, b), c in problem.poly.terms.items() if a <= N]
    limits = _reach_limits(problem, N, wrows)
    S = N + 1 + max((a for a, _, _ in terms), default=0)
    base = max((b for _, b, _ in terms), default=0) + 1 - min(limits, default=0)
    mask = bytearray((max(limits, default=0) + base + 2) * S)
    for s, top in limits.items():
        start = (s + base) * S
        mask[start:start + top + 1] = b"\1" * (top + 1)
    return S, base, mask, [((1 - b) * S + a, c) for a, b, c in terms]


def _power_cells(field, grid, N):
    """Cells {key: coeff} of P^m for m = 1, 2, ..., 2N - 1, as (m, cells).

    P^m is built incrementally (P^{m+1} = P^m * P) on the keys of grid
    (_cell_grid) and keeps exactly the cells that can still land on an
    extracted cell [X^n Y^(m'-1)] W P^m' with n <= N, W = 1 - P'_Y: those
    the mask allows.  A dropped cell feeds only dropped cells, so every
    kept value is the full coefficient of P^m.  A step is one pass over the
    cells per term of P, and then drops the zero cells.  Over F_p the
    products are plain ints, summed and reduced mod p once per cell (over
    Q they are exact ints and Fractions); over F_{p^k} a term's scalar is
    its row of the multiplication table.  Stops early once nothing is left.
    """
    S, base, mask, steps = grid
    cells = {(base - 1) * S: field.one}  # P^0: the cell (0, 0), s = -1
    extension = field.kind == "extension"
    if extension:
        q, add, mul = field.order, field._add, field._mul
        steps = [(off, mul[c * q:(c + 1) * q]) for off, c in steps]
    p = field.char
    for m in range(1, 2 * N):
        nxt = {}
        get = nxt.get
        items = cells.items()
        if extension:
            for off, row in steps:
                for k, v in items:
                    k += off
                    if mask[k]:
                        nxt[k] = add[get(k, 0) * q + row[v]]
            cells = {k: v for k, v in nxt.items() if v}
        else:
            for off, c in steps:
                for k, v in items:
                    k += off
                    if mask[k]:
                        nxt[k] = get(k, 0) + c * v
            if p:
                cells = {k: r for k, v in nxt.items() if (r := v % p)}
            else:
                cells = {k: v for k, v in nxt.items() if v}
        if not cells:
            return
        yield m, cells


def _integer_form(problem, N, wrows):
    """(D, P_Z, W_Z, w) of the packed sweep over Q (see fs_coefficients).

    Only the terms with a <= N enter: the others never reach a kept cell
    or an extracted coefficient.  P_Z and W_Z are lists of (a, b, c).
    """
    terms = [(a, b, c) for (a, b), c in problem.poly.terms.items() if a <= N]
    D = lcm(*(c.denominator for _, _, c in terms))
    pz = [(a, b, int(c * D)) for a, b, c in terms]
    wz = [(a, b, int(c * D)) for b, row in wrows.items()
          for a, c in row if a <= N]
    bound = (2 * N * sum(abs(c) for _, _, c in wz)
             * max(sum(abs(c) for _, _, c in pz), D) ** (2 * N - 1))
    return D, pz, wz, bound.bit_length() + 2


def _packed_rows(pz, limits, N, w):
    """Y-slices {j: (lo, x)} of P_Z^m for m = 1, ..., 2N - 1, as (m, rows).

    The cells of _power_cells, times D^m, with slot k of x holding the cell
    (lo + k, j) (see fs_coefficients).  Stops early once nothing is left.
    """
    rows = {0: (0, 1)}  # P_Z^0
    for m in range(2 * N - 1):
        nxt = {}  # jj: [least lo so far, sum of the sources shifted to it]
        for j, (lo, x) in rows.items():
            for a, b, c in pz:
                jj = j + b
                s = lo + a
                if s > limits.get(m - jj, -1):
                    continue
                y = x if c == 1 else c * x
                entry = nxt.get(jj)
                if entry is None:
                    nxt[jj] = [s, y]
                elif s >= entry[0]:
                    entry[1] += y << w * (s - entry[0])
                else:
                    entry[1] = (entry[1] << w * (entry[0] - s)) + y
                    entry[0] = s
        rows = {}
        for jj, (base, acc) in nxt.items():
            bits = w * (limits[m - jj] - base + 1)
            if acc.bit_length() >= bits:  # a slot above the limit is nonzero
                acc &= (1 << bits) - 1
                if acc >> (bits - 1):
                    acc -= 1 << bits
            if acc:
                rows[jj] = (base, acc)
        if not rows:
            return
        yield m + 1, rows


def _unpack(x, count, w):
    """The first count signed w-bit slots of x, lowest first."""
    out = []
    full, half = 1 << w, 1 << (w - 1)
    mask = full - 1
    for _ in range(count):
        v = x & mask
        if v >= half:
            v -= full
        out.append(v)
        x = (x - v) >> w
    return out


def _rational_coefficients(problem, N, wrows):
    """f_0..f_N over Q by the packed sweep (see fs_coefficients)."""
    D, pz, wz, w = _integer_form(problem, N, wrows)
    A = last = 0
    for m, rows in _packed_rows(pz, _reach_limits(problem, N, wrows), N, w):
        T = 0
        for aw, bw, cw in wz:
            row = rows.get(m - 1 - bw)
            if row:
                lo, x = row
                T += (x if cw == 1 else cw * x) << w * (lo + aw)
        A = A + T if D == 1 else A * D + T
        last = m
    values = _unpack(A, N + 1, w)
    values[0] = 0  # forced by P(0,0) = 0
    if D == 1:
        return values
    den = D ** (last + 1)
    quotients = (Fraction(v, den) for v in values)
    return [q.numerator if q.denominator == 1 else q for q in quotients]


def fs_coefficients(problem, order):
    """f_0..f_order of the fixed point, by the formula.

    An order above EXTRACT_ORDER_LIMIT raises AlgSeriesError before any
    work.

    Over finite fields the sweep runs on the flat cells of _power_cells:
    the cell (i, j) of P^m has the key (s + base) * S + i with
    s = m - 1 - j, a term X^a Y^b of P adds the fixed offset
    (1 - b) * S + a to a key, and one byte mask over the keys keeps the
    cells with i <= limits[s] for every m.  Products of F_p elements are
    summed as plain ints and reduced once per cell and step, and a cell
    (i, b_w) feeds f_{i + a_w} through a map from keys to the terms
    c_w X^(a_w) Y^(b_w) of W = 1 - P'_Y.  A Y-slice of P^m over a small
    field holds only a few nonzero cells (Lucas zeros), which is why
    byte-packed rows lose there.

    Over Q the sweep keeps the same cells as integers packed into Python
    ints, so one big-int operation replaces a field call per cell.  With D
    the lcm of the denominators of P, P_Z = D*P and W_Z = D*W,

        f_n = sum_m T_m[n] / D^(m+1),   T_m = [Y^(m-1)] W_Z P_Z^m,

    so the accumulator A <- A*D + T_m over m = 1..M (M the last m with
    rows left) gives f_n = A[n] / D^(M+1), an int when integral as in QQ.
    Y-slice j of P_Z^m is a pair (lo, x), x = sum_k v_k 2^(w k), where the
    signed slot v_k is the cell (lo + k, j).  Row jj of P_Z^(m+1) sums its
    sources c*x shifted to the least lo + a among them, keeps the slots
    i <= limits[m - jj] by the symmetric residue mod 2^(w (limit - lo + 1))
    and is dropped when zero; A collects c_w*x shifted to lo + a_w, and is
    decoded once, slot by slot with borrows.  The slot width

        w = bit_length(2N |W_Z|_1 B^(2N-1)) + 2,   B = max(|P_Z|_1, D),

    with |.|_1 the sum of absolute coefficients, keeps every slot strictly
    inside (-2^(w-2), 2^(w-2)), which makes the packing exact.  For
    m <= 2N - 1:
      * a cell of P_Z^m is at most |P_Z^m|_1 <= |P_Z|_1^m <= B^(2N-1);
      * a slot of a row of P_Z^(m+1) before truncation sums c*v over at
        most one kept cell v of P_Z^m per term c of P_Z, and kept cells
        are full coefficients, so it is at most |P_Z|_1^(m+1);
      * a slot of T_m sums c_w*v over at most one kept cell per term c_w
        of W_Z, so it is at most |W_Z|_1 |P_Z|_1^m, and a slot of
        A = sum_m T_m D^(M-m), or of any partial sum of it, is at most
        M |W_Z|_1 B^M < 2N |W_Z|_1 B^(2N-1).
    """
    field = problem.field
    N = order
    if N > EXTRACT_ORDER_LIMIT:
        raise AlgSeriesError(f"order {N} is above EXTRACT_ORDER_LIMIT = "
                             f"{EXTRACT_ORDER_LIMIT}")
    wrows = _correction_rows(problem)
    if field.kind == "rationals":
        return TruncSeries1(field, _rational_coefficients(problem, N, wrows), N)
    add, mul = field.add, field.mul
    grid = _cell_grid(problem, N, wrows)
    S, base = grid[0], grid[1]
    reads = {}  # key of the cell (i, s = b_w): [(i + a_w, c_w), ...]
    for bw, wterms in wrows.items():
        for aw, cw in wterms:
            for i in range(N + 1 - aw):
                reads.setdefault((bw + base) * S + i, []).append((i + aw, cw))
    f = [field.zero] * (N + 1)
    for _, cells in _power_cells(field, grid, N):
        for k in cells.keys() & reads.keys():
            v = cells[k]
            for n, cw in reads[k]:
                f[n] = add(f[n], mul(cw, v))
    f[0] = field.zero  # forced by P(0,0) = 0
    return TruncSeries1(field, f, N)


def fixed_point_coefficients(problem, order):
    """Independent oracle: the root of Y - P(X, Y) lifted from 0 by Newton.

    (Y - P)'_Y(0, 0) = 1, so the residue root 0 is simple and hensel_root
    doubles the X-adic precision per step.  A last exact substitution must
    give the lift back, P(X, f) = f mod X^(order+1), which certifies it as
    the unique fixed point.
    """
    field = problem.field
    terms = {(a, b): field.neg(c) for (a, b), c in problem.poly.terms.items()
             if a <= order}
    terms[(0, 1)] = field.one  # P'_Y(0, 0) = 0: no Y term to add it to
    f = hensel_root(BiPoly(field, terms), field.zero, order)
    if eval_bipoly_at_series(problem.poly, f) != f:
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
    add, mul = field.add, field.mul
    wrows = _correction_rows(problem)
    grid = _cell_grid(problem, n, wrows)
    S, base = grid[0], grid[1]
    reads = [((bw + base) * S + n - aw, cw) for bw, wterms in wrows.items()
             for aw, cw in wterms if aw <= n]
    total = field.zero
    for m, cells in _power_cells(field, grid, n):
        for key, cw in reads:
            v = cells.get(key)
            if v:
                total = add(total, mul(cw, v))
        if m == m_max:
            break
    return total
