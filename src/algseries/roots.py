"""Power-series roots of P in F_q[X][Y] as finite automata.

Pipeline: enumerate residue roots a0 of P(0, Y); Newton-lift each simple one
to a series root; derive a minimal Frobenius relation
sum A_k(X) f^(q^k) = 0 by finding the first linear dependency among
Y^(q^k) mod P over F_q(X); close the formal element f under the Cartier
operators in Ore's polynomial coordinates; attach per-branch outputs by
evaluating each closure state once on the lifted series, and check every
transition against those values.

Ore's normalization (from the proof of Christol's theorem): as A_0 != 0,
g = f/A_0 satisfies g = sum_{i>=1} C_i g^(q^i) with
C_i = -A_i*A_0^(q^i-2) in F_q[X].  A state is h = sum_{i<d} E_i g^(q^i)
with every E_i in F_q[X], the start state f is (A_0, 0, ..., 0), and
Lambda_r(a^q b) = a Lambda_r(b) turns each step into polynomial products and
slices.  With A_0 = X^v*U and U(0) != 0, a state's value on a branch is
sum_i E_i * X^(-v*q^i) * (f/U)(X^(q^i)): one series inverse per branch.
Labels show the reduced rational coordinates E_i/A_0^(q^i) on f^(q^i).

Minimality of the relation makes the coordinate vectors of closure states a
sound equality key: were two distinct coordinate vectors to evaluate to the
same series, their difference would be a shorter dependency.
"""

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .algebra.conv import conv
from .algebra.fields import FieldElement
from .algebra.polys import RationalFn, UniPoly, derivative_y
from .algebra.series import TruncSeries1, eval_bipoly_at_series, poly_to_series
from .annihilator import (FrobeniusRelation, canonical_relation,
                          null_left_vector, primitive_part, verify_relation)
from .automaton import DFAO
from .cartier import cartier_uni, close
from .errors import (AlgSeriesError, DegenerateReduction, HypothesisViolated,
                     InfiniteField, InsufficientPrecision, NonSimpleRoot,
                     NotSquarefree, ZeroA0)

CLOSURE_BUDGET = 4096
_OUTPUT_GUARD = 8  # extra X-adic digits when evaluating states on a branch


def residue_roots(P):
    """All a in F_q with P(0, a) = 0, each flagged simple/multiple."""
    field = P.field
    if not field.is_finite:
        raise InfiniteField("residue roots require a finite field")
    p0 = P.eval_x(field.zero)
    if p0.is_zero():
        raise DegenerateReduction("P(0, Y) vanishes identically")
    py0 = derivative_y(P).eval_x(field.zero)
    out = []
    for a in field.elements():
        if not p0.evaluate(a):
            out.append((FieldElement(field, a), bool(py0.evaluate(a))))
    return out


def hensel_root(P, a0, order):
    """The unique series f with f(0) = a0 and P(X, f) = 0 mod X^(order+1).

    Newton update f <- f - g*P(X,f) with X-adic precision doubling, where
    g = 1/P_Y(X, f) is carried between steps instead of inverted afresh;
    needs the residue root to be simple.  Before the step from precision k
    to 2k, one Newton step g <- g + g*(1 - g*P_Y(X, f)) takes g from
    precision k/2 to k, which is all the update needs, as P(X, f) = 0
    mod X^k.  P and P_Y are evaluated by Horner's rule through the conv
    product kernel, so the lift costs a constant times one series product
    at the final order.
    """
    field = P.field
    raw = a0.raw if isinstance(a0, FieldElement) else a0
    if P.eval_x(field.zero).evaluate(raw):
        raise HypothesisViolated("a0 is not a residue root of P")
    PY = derivative_y(P)
    slope0 = PY.eval_x(field.zero).evaluate(raw)
    if not slope0:
        raise NonSimpleRoot("P_Y(0, a0) = 0; Newton lifting does not apply")
    f = [raw]  # the root mod X^k
    g = [field.inv(slope0)]  # 1/P_Y(X, f) mod X^len(g)
    k = 1
    while k <= order:
        h = len(g)
        if h < k:
            # g*P_Y(X, f) = 1 + X^h * r mod X^k
            slope = eval_bipoly_at_series(PY, TruncSeries1(field, f))
            r = conv(field, slope.coeffs, g, k - 1)[h:]
            g += [field.neg(c) for c in conv(field, g, r, k - 1 - h)]
        prec = min(2 * k, order + 1)
        value = eval_bipoly_at_series(P, TruncSeries1(field, f, prec - 1))
        # P(X, f) = X^k * v mod X^prec, and f has degree < k
        f += [field.neg(c) for c in conv(field, value.coeffs[k:], g, prec - 1 - k)]
        k = prec
    return TruncSeries1(field, f, order)


# -- polynomials in Y over F_q[X], as lists of UniPoly, constant term first --

def _ytrim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _prem(a, b):
    """(r, e) with lc(b)^e * a = r mod b and deg_Y r < deg_Y b."""
    r, e = list(a), 0
    lead, n = b[-1], len(b) - 1
    while len(r) > n:
        top = r.pop()
        if not top.is_zero():
            shift = len(r) - n
            r = [c * lead for c in r[:shift]] + \
                [c * lead - top * p for c, p in zip(r[shift:], b)]
            e += 1
    return _ytrim(r), e


def frobenius_from_poly(P):
    """Minimal Frobenius relation satisfied by every series root of P.

    With L = lc_Y(P) and D = deg_Y P, rows N_k over F_q[X] with
    L^(a_k) * Y^(q^k) = sum_j N_k[j] Y^j mod P come from one D x D matrix:
    row j of M is L^(E-e_j) * (L^(e_j) * Y^(j*q) mod P), pseudo-remainders
    with E = max e_j.  As (sum_j c_j Y^j)^q = sum_j c_j(X^q) Y^(j*q) over
    F_q, N_(k+1) = N_k(X^q) * M and a_(k+1) = q*a_k + E.  The first
    dependency sum_k c_k N_k = 0 that one elimination pass finds gives the
    relation A_k = c_k * L^(a_k).  P must be squarefree in Y: the check is
    a primitive pseudo-remainder gcd of P and P_Y.

    That dependency has A_0 != 0, as Ore's normalization in cartier_closure
    needs.  Once gcd(P, P_Y) = 1, A = F_q(X)[Y]/(P) is etale over
    K = F_q(X), so the map K (x)_{K^q} A^q -> A is an isomorphism and q-th
    powers of K-linearly independent elements stay K-linearly independent.
    A first dependency sum_{k>=1} A_k y^(q^k) = 0 without the k = 0 term
    would make y^q, ..., y^(q^m) dependent, hence y, ..., y^(q^(m-1)), an
    earlier dependency.  The ZeroA0 raise below guards that argument.
    """
    field = P.field
    if not field.is_finite:
        raise InfiniteField("Frobenius relations require a finite field")
    q = field.order
    D = P.deg_y
    if D < 1:
        raise HypothesisViolated("P must involve Y")
    zero, one = UniPoly.zero(field), UniPoly.one(field)
    slices = P.y_slices()
    pcoeffs = [slices.get(j, zero) for j in range(D + 1)]
    g = pcoeffs
    h = _ytrim([c.scale(field.from_int(j)) for j, c in enumerate(pcoeffs)][1:])
    while h:
        r = _prem(g, h)[0]
        g, h = h, (primitive_part(r) if r else r)
    if len(g) > 1:
        raise NotSquarefree("gcd(P, P_Y) has positive degree in Y")

    def padded(r):
        return r + [zero] * (D - len(r))

    L = pcoeffs[D]
    powers = [_prem([zero] * (j * q) + [one], pcoeffs) for j in range(D)]
    E = max(e for _, e in powers)
    M = [padded([c * L ** (E - e) for c in r]) for r, e in powers]
    first, a0 = _prem([zero, one], pcoeffs)
    exponents = []

    def rows():
        row, a = padded(first), a0
        for _ in range(D + 1):
            exponents.append(a)
            yield row
            spread = [c.subst_power(q) for c in row]
            row = [sum((c * m[i] for c, m in zip(spread, M)), zero)
                   for i in range(D)]
            a = q * a + E

    combo = null_left_vector(rows())
    if combo is None:
        raise AlgSeriesError("no dependency up to q^deg_Y; internal error")
    if combo[0].is_zero():
        raise ZeroA0("first dependency lacks the k=0 term for a "
                     "squarefree P; internal error")
    return canonical_relation([c * L ** e for c, e in zip(combo, exponents)], q)


@dataclass(frozen=True)
class ModuleElement:
    """sum_i coords[i](X) * g^(q^i) for g = f/A_0: Ore coordinates in F_q[X]."""

    coords: tuple

    def key(self):
        return tuple(c.coeffs for c in self.coords)

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)


def _coeff_times(coeff, j):
    fpow = "f" if j == 0 else f"f^(q^{j})"
    if coeff.is_one():
        return fpow
    text = coeff.to_text()
    if " " in text or "*" in text or "/" in text:
        text = f"({text})"
    return f"{text}*{fpow}"


@dataclass
class ClosureSkeleton:
    """Cartier closure of the formal root: states, transitions, no outputs."""

    field: object
    q: int
    relation: FrobeniusRelation
    states: list
    transitions: list

    @property
    def n_states(self):
        return len(self.states)

    @cached_property
    def coordinates(self):
        """Each state's coordinates on f, f^q, ...: E_i / A_0^(q^i), reduced."""
        A0 = self.relation.coeffs[0]
        dens = [A0 ** (self.q ** i) for i in range(len(self.states[0].coords))]
        return [tuple(RationalFn(e, den) for e, den in zip(state.coords, dens))
                for state in self.states]

    @cached_property
    def labels(self):
        """Each state's label text: its nonzero rational coordinates."""
        return [" + ".join(_coeff_times(c, j) for j, c in enumerate(coords)
                           if not c.is_zero()) or "0"
                for coords in self.coordinates]


def cartier_closure(relation, state_budget=CLOSURE_BUDGET):
    """Close {f} under Lambda_0..Lambda_{q-1} in Ore coordinates.

    Digit r sends (E_0, ..., E_{d-1}) to (Lambda_r(E_{i+1} + E_0*C_{i+1}))_i
    with E_d = 0 and C_i = -A_i*A_0^(q^i-2): g = f/A_0 solved from the
    relation.  The products E_0*C_i are shared by all q digits.
    """
    field = relation.field
    q = relation.q
    A0 = relation.coeffs[0]
    if A0.is_zero():
        raise ZeroA0("closure needs a relation with A_0 != 0")
    n = relation.length
    C = [-(A * A0 ** (q ** i - 2)) for i, A in enumerate(relation.coeffs[1:], 1)]
    zero = UniPoly.zero(field)

    def images(elem):
        terms = list(elem.coords[1:]) + [zero]
        E0 = elem.coords[0]
        if not E0.is_zero():
            terms = [t + E0 * c for t, c in zip(terms, C)]
        return [ModuleElement(tuple(cartier_uni(t, r) for t in terms))
                for r in range(q)]

    # a relation "A_0 f = 0" (n = 0) pins f = 0: one absorbing state
    start = ModuleElement((A0 if n else zero,) + (zero,) * (n - 1))
    states, transitions = close(start, images, state_budget, "Cartier closure")
    return ClosureSkeleton(field, q, relation, states, transitions)


@dataclass
class BranchRoot:
    """One series root: residue a0, lifted series, per-state output map."""

    a0: FieldElement
    series: TruncSeries1
    outputs: dict = dc_field(default_factory=dict)


def closure_output_order(skeleton):
    """Series order that evaluates every state past its coordinates' degrees.

    State values reach v = val(A_0) below the series order; past that they
    need the largest numerator plus denominator degree of a state's
    rational coordinates, plus guard digits.
    """
    need = max((c.num.degree + c.den.degree
                for coords in skeleton.coordinates for c in coords
                if not c.is_zero()), default=0)
    return skeleton.relation.coeffs[0].valuation() + need + _OUTPUT_GUARD


def _state_values(skeleton, series):
    """Every closure state evaluated on one branch, to order series.order - v.

    With A_0 = X^v*U and U(0) != 0, g^(q^i) = X^(-v*q^i) * w(X^(q^i)) for
    w = f/U, so coefficients v*q^i .. v*q^i + order of E_i * w(X^(q^i)) are
    state coefficients 0 .. order; they read w only up to X^(series.order).
    """
    field, q = skeleton.field, skeleton.q
    A0 = skeleton.relation.coeffs[0]
    v = A0.valuation()
    order = series.order - v
    unit = poly_to_series(UniPoly(field, A0.coeffs[v:]), field, series.order)
    w = (unit.inverse() * series).coeffs
    spreads = []
    for i in range(len(skeleton.states[0].coords)):
        e = q ** i
        spread = [field.zero] * (v * e + order + 1)
        spread[::e] = w[:v + order // e + 1]
        spreads.append((v * e, spread))
    add = field.add
    values = []
    for state in skeleton.states:
        total = [field.zero] * (order + 1)
        for E, (shift, spread) in zip(state.coords, spreads):
            if not E.is_zero():
                lo = max(0, shift - E.degree)
                part = conv(field, E.coeffs, spread[lo:], shift - lo + order)
                total = [add(a, b) for a, b in zip(total, part[shift - lo:])]
        values.append(TruncSeries1(field, total, order))
    return values


def attach_outputs(skeleton, branch):
    """Fill the branch's output map and return the complete DFAO.

    Every closure state is evaluated once on the branch series;
    spot_check_closure then checks every transition against those values,
    and the output of a state is the constant term of its value.
    """
    field = skeleton.field
    need = closure_output_order(skeleton)
    if branch.series.order < need:
        raise InsufficientPrecision(
            f"branch series order {branch.series.order} below required {need}")
    values = _state_values(skeleton, branch.series)
    spot_check_closure(skeleton, values)
    outputs = [value.coeffs[0] for value in values]
    for idx, out in enumerate(outputs):
        branch.outputs[idx] = FieldElement(field, out)
    return DFAO(skeleton.q, skeleton.field, 0, skeleton.transitions, outputs,
                skeleton.labels)


def spot_check_closure(skeleton, values):
    """Check every transition: Lambda_r(values[s]) == values[delta(s, r)].

    ``values[s]`` is closure state s evaluated on one branch.  Each (state,
    digit) pair is compared on every coefficient both truncations determine,
    so the formal closure is checked against truncated series arithmetic;
    a mismatch raises AlgSeriesError naming the state and the digit.
    """
    q = skeleton.q
    for s, row in enumerate(skeleton.transitions):
        coeffs = values[s].coeffs
        for r, t in enumerate(row):
            if any(x != y for x, y in zip(coeffs[r::q], values[t].coeffs)):
                raise AlgSeriesError(
                    f"closure check failed at state {s}, digit {r}")


@dataclass
class RootsOutcome:
    """Everything cmd-level callers need: relation, branches, diagnostics."""

    relation: FrobeniusRelation
    branches: list  # (BranchRoot, DFAO minimized) pairs
    skipped: list   # non-simple residue roots, reported not solved
    failures: list  # a0 values whose verification failed (expected empty)


def roots_automata(P, order, state_budget=CLOSURE_BUDGET):
    """One minimized DFAO per simple residue root of P.

    Each branch satisfies generate(DFAO, order) == hensel series and
    P(X, generated) == 0 mod X^(order+1); non-simple residue roots are
    recorded in ``skipped``.
    """
    field = P.field
    if not field.is_finite:
        raise InfiniteField("roots_automata requires a finite field")
    roots = residue_roots(P)
    simple = [a for a, ok in roots if ok]
    skipped = [a for a, ok in roots if not ok]
    if not simple:
        raise HypothesisViolated("P has no simple residue root")
    relation = frobenius_from_poly(P)
    skeleton = cartier_closure(relation, state_budget)
    check_order = 128  # state values long enough for digit sections of order 128
    v = relation.coeffs[0].valuation()  # state values reach v below the lift
    need = max(order + v, closure_output_order(skeleton),
               skeleton.q * check_order + skeleton.q - 1 + v)
    branches = []
    failures = []
    for a0 in simple:
        series = hensel_root(P, a0, need)
        if not eval_bipoly_at_series(P, series).is_zero():
            raise AlgSeriesError("Hensel lift failed to annihilate P; internal error")
        branch = BranchRoot(a0=a0, series=series)
        dfao = attach_outputs(skeleton, branch)
        minimized = dfao.minimize()
        generated = minimized.generate(order)
        ok = (generated.coeffs == series.coeffs[:order + 1]
              and eval_bipoly_at_series(P, generated).is_zero())
        if not ok:
            failures.append(a0)
        branches.append((branch, minimized))
    if not verify_relation(relation, branches[0][0].series):
        failures.append("relation")
    return RootsOutcome(relation, branches, skipped, failures)
