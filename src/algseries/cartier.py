"""Cartier (digit-section) operators and closures over a fixed denominator.

Over F_q, Lambda_{r,s} maps sum a_{m,n} X^m Y^n to sum a_{mq+r, nq+s} X^m Y^n
and satisfies Lambda_{r,s}(A^q B) = A * Lambda_{r,s}(B).  For a rational
series P/Q with Q(0,0) != 0 that identity pins the denominator:

    Lambda_{r,s}(R/Q) = Lambda_{r,s}(R Q^(q-1) / Q^q) = Lambda_{r,s}(R Q^(q-1)) / Q

so the q-kernel closure only ever tracks numerators, and the numerator
degree contracts to below deg P + deg Q after one step.  The closure is a
2-D automaton over digit pairs; restricting to equal pairs (r, r) yields the
digit automaton of the diagonal sequence [X^n Y^n](P/Q).

Both Cartier closures of the package run on automaton.close (imported
here, so ``from algseries.cartier import close`` works too), with the
numerators as states: this kernel closure, and roots.cartier_closure,
which closes a root y of P as numerators A of A(X, y)/P_Y(X, y) by the
same kind of identity, Lambda_r(A/P_Y) = Lambda_{r,q-1}(A P^(q-1))/P_Y.
"""

from dataclasses import dataclass

from .algebra.polys import BiPoly
from .automaton import DFAO, close
from .errors import DigitOutOfRange, InfiniteField, ZeroConstantTerm

STATE_BUDGET = 100000  # guard only; theory bounds every closure


def _digit_base(field):
    if not field.is_finite:
        raise InfiniteField("Cartier operators require a finite field")
    return field.order


def _check_digit(r, q):
    if not 0 <= r < q:
        raise DigitOutOfRange(f"digit {r} outside 0..{q - 1}")


def cartier_bi(A, r, s):
    """Bivariate digit section: [X^m Y^n]result = [X^(mq+r) Y^(nq+s)]A."""
    q = _digit_base(A.field)
    _check_digit(r, q)
    _check_digit(s, q)
    out = {}
    for (i, j), c in A.terms.items():
        if i % q == r and j % q == s:
            out[(i // q, j // q)] = c
    return BiPoly(A.field, out)


@dataclass
class KernelAutomaton2D:
    """Closure of P/Q under all q^2 digit sections, started at state 0.

    State R stands for R/Q: ``states`` holds the numerators R, and
    ``transitions[state][r + q*s]`` follows Lambda_{r,s}; every state but
    the first has total degree < ``degree_bound`` = deg P + deg Q.
    """

    q: int
    den: BiPoly
    states: list
    transitions: list
    degree_bound: int

    @property
    def n_states(self):
        return len(self.states)

    def output(self, index):
        return kernel_output(self.states[index], self.den)

    def to_dfao(self):
        """DFAO over digit pairs; state R has label R.to_text()."""
        outputs = [self.output(i) for i in range(self.n_states)]
        labels = [R.to_text() for R in self.states]
        return DFAO(self.q, self.den.field, 0, self.transitions, outputs,
                    labels, arity=2)


def rational_kernel(P, Q):
    """Kernel closure of P/Q over F_q; requires Q(0,0) != 0.

    More than STATE_BUDGET states raise StateBudgetExceeded.
    """
    q = _digit_base(Q.field)
    if not Q.terms.get((0, 0)):
        raise ZeroConstantTerm("Q(0,0) must be nonzero")
    bound = max(P.total_degree, 0) + Q.total_degree
    Qq1 = Q ** (q - 1)

    def images(R):
        RQ = R * Qq1
        return [cartier_bi(RQ, sym % q, sym // q) for sym in range(q * q)]

    states, transitions = close(P, images, STATE_BUDGET, "kernel closure")
    return KernelAutomaton2D(q=q, den=Q, states=states, transitions=transitions,
                             degree_bound=bound)


def kernel_output(R, Q):
    """Constant coefficient u_{0,0} of R/Q, R(0,0)/Q(0,0), as a raw value."""
    f = Q.field
    q00 = Q.terms.get((0, 0))
    if not q00:
        raise ZeroConstantTerm("Q(0,0) must be nonzero")
    return f.div(R.terms.get((0, 0), f.zero), q00)


def diagonal_automaton(aut):
    """Digit automaton of the diagonal sequence [X^n Y^n](P/Q)."""
    pairs = aut.to_dfao()
    q = pairs.q
    transitions = [[row[r + q * r] for r in range(q)] for row in pairs.transitions]
    return DFAO(q, pairs.field, pairs.initial, transitions, pairs.outputs,
                pairs.labels, arity=1)
