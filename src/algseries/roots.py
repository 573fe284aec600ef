"""Power-series roots of P in F_q[X][Y] as finite automata.

Pipeline: enumerate residue roots a0 of P(0, Y); Newton-lift each simple one
to a series root; derive a minimal Frobenius relation
sum A_k(X) f^(q^k) = 0 by finding the first linear dependency among
Y^(q^k) mod P over F_q(X); close the formal element f under the Cartier
operators using Lambda_r(g^q h) = g Lambda_r(h), substituting
f = sum_k (-A_k/A_0) f^(q^k) for the j = 0 coordinate first; attach per
branch outputs by evaluating each closure state once on the lifted series
(coefficients may have X-power poles, so evaluation runs with Laurent
headroom and asserts that no negative exponent survives) and check every
transition against those values.

Minimality of the relation makes the coordinate vectors of closure states a
sound equality key: were two distinct coordinate vectors to evaluate to the
same series, their difference would be a shorter dependency.
"""

from dataclasses import dataclass, field as dc_field

from .algebra.fields import FieldElement
from .algebra.polys import RationalFn, UniPoly, derivative_y
from .algebra.series import TruncSeries1, eval_bipoly_at_series, poly_to_series
from .annihilator import (FrobeniusRelation, null_left_vector,
                          relation_from_rationals, verify_relation)
from .automaton import DFAO
from .cartier import cartier_uni, close
from .errors import (AlgSeriesError, DegenerateReduction, HypothesisViolated,
                     InfiniteField, InsufficientPrecision, NegativeValuation,
                     NonSimpleRoot, NotSquarefree, ZeroA0)

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

    Newton update f <- f - P(X,f)/P_Y(X,f) with X-adic precision doubling;
    needs the residue root to be simple.  Each step evaluates P and P_Y by
    Horner's rule and divides with the Newton series inverse, all through
    the conv product kernel, so the lift costs a constant times one series
    product at the final order.
    """
    field = P.field
    raw = a0.raw if isinstance(a0, FieldElement) else a0
    if P.eval_x(field.zero).evaluate(raw):
        raise HypothesisViolated("a0 is not a residue root of P")
    PY = derivative_y(P)
    if not PY.eval_x(field.zero).evaluate(raw):
        raise NonSimpleRoot("P_Y(0, a0) = 0; Newton lifting does not apply")
    f = TruncSeries1(field, [raw], 0)
    prec = 1
    while prec <= order:
        prec = min(2 * prec, order + 1)
        f = TruncSeries1(field, f.coeffs, prec - 1)
        value = eval_bipoly_at_series(P, f)
        slope = eval_bipoly_at_series(PY, f)
        f = f - value * slope.inverse()
    return f


# -- polynomials in Y over F_q(X), represented as coefficient lists ---------

def _ytrim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _ymul(a, b, field):
    if not a or not b:
        return []
    out = [RationalFn.zero(field) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
    return _ytrim(out)


def _ymod(a, m, field):
    a = list(a)
    dm = len(m) - 1
    inv = m[-1].inverse()
    while len(a) > dm:
        top = a[-1]
        if not top.is_zero():
            f = top * inv
            for i in range(dm):
                a[len(a) - 1 - dm + i] = a[len(a) - 1 - dm + i] - f * m[i]
        a.pop()
    return _ytrim(a)


def _ygcd(a, b, field):
    a, b = _ytrim(list(a)), _ytrim(list(b))
    while b:
        a, b = b, _ymod(a, b, field)
    return a


def frobenius_from_poly(P):
    """Minimal Frobenius relation satisfied by every series root of P.

    Computes Y^(q^k) mod P for k = 0, 1, ... by repeated squaring in
    F_q(X)[Y]/(P) and returns the first linear dependency (it includes the
    k = 0 column, else ZeroA0).  P must be squarefree in Y.
    """
    field = P.field
    if not field.is_finite:
        raise InfiniteField("Frobenius relations require a finite field")
    q = field.order
    D = P.deg_y
    if D < 1:
        raise HypothesisViolated("P must involve Y")
    slices = P.y_slices()
    pcoeffs = [RationalFn.from_poly(slices.get(j, UniPoly.zero(field)))
               for j in range(D + 1)]
    pderiv = _ytrim([pcoeffs[j + 1] * RationalFn.from_poly(
        UniPoly.constant(field, field.from_int(j + 1)))
        for j in range(D)])
    g = _ygcd(pcoeffs, pderiv, field)
    if len(g) - 1 >= 1:
        raise NotSquarefree("gcd(P, P_Y) has positive degree in Y")
    inv_lead = pcoeffs[D].inverse()
    monic = [c * inv_lead for c in pcoeffs]

    def ring_mul(a, b):
        return _ymod(_ymul(a, b, field), monic, field)

    def ring_pow_q(a):
        result, base, n = None, a, q
        while n:
            if n & 1:
                result = base if result is None else ring_mul(result, base)
            n >>= 1
            if n:
                base = ring_mul(base, base)
        return result

    def as_vector(a):
        vec = list(a) + [RationalFn.zero(field)] * (D - len(a))
        return vec[:D]

    y = _ymod([RationalFn.zero(field), RationalFn.one(field)], monic, field)
    vectors = [y]
    while True:
        k = len(vectors) - 1
        combo = null_left_vector([as_vector(v) for v in vectors])
        if combo is not None:
            if combo[0].is_zero():
                raise ZeroA0(
                    "dependency exists only without the k=0 term; the shift "
                    "l > 0 case is not synthesized")
            return relation_from_rationals(combo, q)
        if k >= D:
            raise AlgSeriesError("no dependency up to q^deg_Y; internal error")
        vectors.append(ring_pow_q(vectors[-1]))


@dataclass(frozen=True)
class ModuleElement:
    """r_const(X) + sum_j coords[j](X) * f^(q^j), coefficients canonical."""

    const: RationalFn
    coords: tuple

    def key(self):
        return (self.const.key(), tuple(c.key() for c in self.coords))

    def is_zero(self):
        return self.const.is_zero() and all(c.is_zero() for c in self.coords)

    def to_text(self):
        parts = []
        if not self.const.is_zero():
            parts.append(self.const.to_text())
        for j, c in enumerate(self.coords):
            if not c.is_zero():
                parts.append(_coeff_times(c, j))
        return " + ".join(parts) if parts else "0"


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


def cartier_closure(relation, state_budget=CLOSURE_BUDGET):
    """Close {f} under Lambda_0..Lambda_{q-1} using the relation for j = 0.

    Transition on digit r sends r_const + sum_j r_j f^(q^j) to
    Lambda_r(r_const) + sum_j Lambda_r(r_{j+1} + r_0 * B_{j+1}) f^(q^j)
    with B_k = -A_k/A_0 (the relation solved for f).
    """
    field = relation.field
    q = relation.q
    if relation.coeffs[0].is_zero():
        raise ZeroA0("closure needs a relation with A_0 != 0")
    n = relation.length
    A0 = relation.coeffs[0]
    B = [RationalFn(-relation.coeffs[k], A0) for k in range(1, n + 1)]
    zero_rf = RationalFn.zero(field)

    def images(elem):
        terms = list(elem.coords[1:]) + [zero_rf]
        if not elem.coords[0].is_zero():
            terms = [t + elem.coords[0] * b for t, b in zip(terms, B)]
        return [ModuleElement(cartier_uni(elem.const, r),
                              tuple(cartier_uni(t, r) for t in terms))
                for r in range(q)]

    # a relation "A_0 f = 0" (n = 0) pins f = 0: one absorbing state
    start = ModuleElement(zero_rf, (RationalFn.one(field) if n else zero_rf,)
                          + (zero_rf,) * (n - 1))
    states, transitions = close(start, images, state_budget, "Cartier closure")
    return ClosureSkeleton(field, q, relation, states, transitions)


@dataclass
class BranchRoot:
    """One series root: residue a0, lifted series, per-state output map."""

    a0: FieldElement
    series: TruncSeries1
    outputs: dict = dc_field(default_factory=dict)


def _den_split(ratfn):
    """den = X^v * unit; return (v, unit)."""
    v = ratfn.den.valuation()
    unit = UniPoly(ratfn.field, ratfn.den.coeffs[v:], ratfn.den.var)
    return v, unit


def closure_output_order(skeleton):
    """Series precision needed to evaluate every state, plus guard digits."""
    need = 0
    for elem in skeleton.states:
        for part in (elem.const, *elem.coords):
            if part.is_zero():
                continue
            need = max(need, part.den.degree + max(part.num.degree, 0))
    return need + _OUTPUT_GUARD


def _evaluate_element(elem, powers, const_one, order):
    """Evaluate a ModuleElement on a branch as a TruncSeries1.

    ``powers[j]`` must hold f^(q^j) at precision >= order; the result order
    is order - vmax where vmax is the worst denominator pole.  Raises
    NegativeValuation if the value is not a power series.
    """
    field = powers[0].field if powers else const_one.field
    parts = []
    if not elem.const.is_zero():
        parts.append((elem.const, const_one))
    for j, coeff in enumerate(elem.coords):
        if not coeff.is_zero():
            parts.append((coeff, powers[j]))
    if not parts:
        return TruncSeries1.zeros(field, order)
    vmax = max(_den_split(coeff)[0] for coeff, _ in parts)
    if vmax > order:
        raise InsufficientPrecision("branch series shorter than pole depth")
    total = [field.zero] * (order + 1)
    add = field.add
    for coeff, series in parts:
        v, unit = _den_split(coeff)
        value = poly_to_series(unit, field, order).inverse() * series
        value = value.mul_poly(coeff.num)
        pad = vmax - v
        for e, c in enumerate(value.coeffs[:order + 1 - pad]):
            if c:
                total[e + pad] = add(total[e + pad], c)
    if any(total[:vmax]):
        raise NegativeValuation(
            "state evaluates to a Laurent series with a pole")
    return TruncSeries1(field, total[vmax:], order - vmax)


def attach_outputs(skeleton, branch):
    """Fill the branch's output map and return the complete DFAO.

    Every closure state is evaluated once on the branch series, at its full
    order; spot_check_closure then checks every transition against those
    values, and the output of a state is the constant term of its value.
    """
    field = skeleton.field
    need = closure_output_order(skeleton)
    if branch.series.order < need:
        raise InsufficientPrecision(
            f"branch series order {branch.series.order} below required {need}")
    order = branch.series.order
    n = len(skeleton.states[0].coords)
    powers = [branch.series.spread(skeleton.q ** j) for j in range(n)]
    const_one = TruncSeries1(field, [field.one], order)
    values = [_evaluate_element(elem, powers, const_one, order)
              for elem in skeleton.states]
    spot_check_closure(skeleton, values)
    outputs = [value.coeffs[0] for value in values]
    for idx, out in enumerate(outputs):
        branch.outputs[idx] = FieldElement(field, out)
    labels = [elem.to_text() for elem in skeleton.states]
    return DFAO(skeleton.q, skeleton.field, 0, skeleton.transitions, outputs,
                labels)


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
    check_order = 128  # lift far enough for digit sections of order 128
    need = max(order, closure_output_order(skeleton),
               skeleton.q * check_order + skeleton.q - 1)
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
