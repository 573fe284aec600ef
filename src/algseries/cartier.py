"""Cartier (digit-section) operators and closures on numerators.

Over F_q, Lambda_{r,s} maps sum a_{m,n} X^m Y^n to sum a_{mq+r, nq+s} X^m Y^n
and satisfies Lambda_{r,s}(A^q B) = A * Lambda_{r,s}(B).  For a rational
series P/Q with Q(0,0) != 0 that identity pins the denominator:

    Lambda_{r,s}(R/Q) = Lambda_{r,s}(R Q^(q-1) / Q^q) = Lambda_{r,s}(R Q^(q-1)) / Q

so the q-kernel closure only ever tracks numerators, and the numerator
degree contracts to below deg P + deg Q after one step.  The closure is a
2-D automaton over digit pairs; restricting to equal pairs (r, r) yields the
digit automaton of the diagonal sequence [X^n Y^n](P/Q).

roots.cartier_closure closes a root y of P by the same step on numerators
A of A(X, y)/P_Y(X, y), Lambda_r(A/P_Y) = Lambda_{r,q-1}(A P^(q-1))/P_Y.
Both take it through numerator_images and run on automaton.close
(imported here, so ``from algseries.cartier import close`` works too).
"""

from dataclasses import dataclass

from .algebra.polys import BiPoly
from .automaton import DFAO, close
from .errors import InfiniteField, ZeroConstantTerm

STATE_BUDGET = 100000  # guard only; theory bounds every closure


def digit_base(field):
    if not field.is_finite:
        raise InfiniteField("Cartier operators require a finite field")
    return field.order


def sections(A, symbols):
    """Lambda_{r,s}(A) for each symbol r + q*s in ``symbols``, in one pass:
    term (i, j) goes to symbol i % q + q*(j % q) at (i // q, j // q)."""
    q = digit_base(A.field)
    slots = [None] * (q * q)
    for sym in symbols:
        slots[sym] = {}
    for (i, j), c in A.terms.items():
        out = slots[i % q + q * (j % q)]
        if out is not None:
            out[i // q, j // q] = c
    return [BiPoly(A.field, slots[sym]) for sym in symbols]


def numerator_images(D, symbols):
    """``images`` for automaton.close: A -> sections(A * D^(q-1), symbols).
    The dict product keeps a sparse A sparse: X^1000000*Y^1000000 over
    1+X+Y closes in 55 states; a dense box of the product has 10^12 cells."""
    Dq1 = D ** (digit_base(D.field) - 1)
    return lambda A: sections(A * Dq1, symbols)


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
    q = digit_base(Q.field)
    if not Q.terms.get((0, 0)):
        raise ZeroConstantTerm("Q(0,0) must be nonzero")
    bound = max(P.total_degree, 0) + Q.total_degree
    states, transitions = close(P, numerator_images(Q, range(q * q)),
                                STATE_BUDGET, "kernel closure")
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
