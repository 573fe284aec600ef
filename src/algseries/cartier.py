"""Cartier (digit-section) operators and closures on numerators.

Over F_q, Lambda_{r,s} maps sum a_{m,n} X^m Y^n to sum a_{mq+r, nq+s} X^m Y^n
and satisfies Lambda_{r,s}(A^q B) = A * Lambda_{r,s}(B).  For a rational
series P/Q with Q(0,0) != 0 that identity pins the denominator:

    Lambda_{r,s}(R/Q) = Lambda_{r,s}(R Q^(q-1) / Q^q) = Lambda_{r,s}(R Q^(q-1)) / Q

so the q-kernel closure only ever tracks numerators, and the numerator
degree contracts to below deg P + deg Q after one step.  rational_kernel
closes P/Q under all q^2 sections into an automaton over digit pairs, or,
for the diagonal sequence [X^n Y^n](P/Q), under the q sections
Lambda_{r,r} alone: the diagonal of Lambda_{r,r}(F) is Lambda_r of the
diagonal of F (Christol 1979), so those states are all the diagonal's
kernel needs.

roots.cartier_closure closes a root y of P by the same step on numerators
A of A(X, y)/P_Y(X, y), Lambda_r(A/P_Y) = Lambda_{r,q-1}(A P^(q-1))/P_Y.
Both take it through numerator_images and run on automaton.close
(imported here, so ``from algseries.cartier import close`` works too).
diagrat.diagonal_coeffs runs the diagonal closure under a budget of term
products (the ``work`` of numerator_images) and falls back to the sweep
past it.
"""

from operator import mul

from .algebra.polys import BiPoly, power
from .automaton import DFAO, close
from .errors import InfiniteField, StateBudgetExceeded, ZeroConstantTerm

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


def numerator_images(D, symbols, work=None):
    """``images`` for automaton.close: A -> sections(A * D^(q-1), symbols).
    The dict product keeps a sparse A sparse: X^1000000*Y^1000000 over
    1+X+Y closes in 55 states over digit pairs and in 22 on the diagonal;
    a dense box of the product has 10^12 cells.

    With ``work``, each product a * b, those that build D^(q-1) included,
    first charges terms(a) * terms(b) term products, so a closed state A
    costs terms(A) * terms(D^(q-1)); a charge past ``work`` in all raises
    StateBudgetExceeded before its product runs."""
    product = mul
    if work is not None:
        spent = 0

        def product(a, b):
            nonlocal spent
            spent += len(a.terms) * len(b.terms)
            if spent > work:
                raise StateBudgetExceeded(
                    f"closure exceeds {work:g} term products")
            return a * b
    Dq1 = power(BiPoly.one(D.field), D, digit_base(D.field) - 1, product)
    return lambda A: sections(product(A, Dq1), symbols)


def degree_bound(P, Q):
    """deg P + deg Q: every kernel state of P/Q but the first has a lower
    total degree."""
    return max(P.total_degree, 0) + Q.total_degree


def rational_kernel(P, Q, diagonal=False, work=None):
    """Kernel automaton of P/Q over F_q; requires Q(0,0) != 0.

    State R stands for R/Q, with output kernel_output(R, Q) and label
    R.to_text().  It reads digit pairs r + q*s, following Lambda_{r,s}
    (arity 2); with ``diagonal`` it reads the digit r of the diagonal
    sequence, following Lambda_{r,r} (arity 1).  More than STATE_BUDGET
    states, or more than ``work`` term products (numerator_images), raise
    StateBudgetExceeded.
    """
    q = digit_base(Q.field)
    if not Q.terms.get((0, 0)):
        raise ZeroConstantTerm("Q(0,0) must be nonzero")
    symbols = range(0, q * q, q + 1) if diagonal else range(q * q)
    states, transitions = close(P, numerator_images(Q, symbols, work),
                                STATE_BUDGET, "kernel closure")
    return DFAO(q, Q.field, 0, transitions,
                [kernel_output(R, Q) for R in states],
                [R.to_text() for R in states], arity=1 if diagonal else 2)


def kernel_output(R, Q):
    """Constant coefficient u_{0,0} of R/Q, R(0,0)/Q(0,0), as a raw value."""
    f = Q.field
    q00 = Q.terms.get((0, 0))
    if not q00:
        raise ZeroConstantTerm("Q(0,0) must be nonzero")
    return f.div(R.terms.get((0, 0), f.zero), q00)
