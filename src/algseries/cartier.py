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
Both take it through numerator_images, which forms only the kept sections,
and run on automaton.close (also importable from here).  The diagonal
closure of diagrat.diagonal_coeffs runs under a budget of term products
(the ``work`` of numerator_images) and falls back to the sweep past it.
"""

from .algebra.polys import BiPoly, power
from .automaton import DFAO, close
from .errors import InfiniteField, StateBudgetExceeded, ZeroConstantTerm

STATE_BUDGET = 100000  # guard only; theory bounds every closure


def digit_base(field):
    if not field.is_finite:
        raise InfiniteField("Cartier operators require a finite field")
    return field.order


def numerator_images(D, symbols, work=None):
    """``images`` for automaton.close: A -> [Lambda_{r,s}(A * D^(q-1)) for
    r + q*s in symbols], forming no other term of the product.  The terms
    (i, j) of D^(q-1) are grouped once by class i % q + q*(j % q); in
    section (r, s) a term (a, b) of A meets only the class ((r - a) mod q,
    (s - b) mod q), and adds at ((a + i) // q, (b + j) // q).  A sparse A
    stays sparse: X^1000000*Y^1000000 over 1+X+Y closes in 55 states over
    digit pairs and in 22 on the diagonal; a dense box has 10^12 cells.

    With ``work``, each product a * b that builds D^(q-1) first charges
    terms(a) * terms(b) term products, and each image terms(A) *
    terms(D^(q-1)); a charge past ``work`` in all raises
    StateBudgetExceeded before its products run."""
    f, spent = D.field, 0
    q, add, mul = digit_base(f), f.add, f.mul

    def charge(a, b):
        nonlocal spent
        spent += len(a.terms) * len(b.terms)
        if work is not None and spent > work:
            raise StateBudgetExceeded(f"closure exceeds {work:g} term products")
    Dq1 = power(BiPoly.one(f), D, q - 1, lambda a, b: charge(a, b) or a * b)
    classes = [[] for _ in range(q * q)]
    for (i, j), w in Dq1.terms.items():
        classes[i % q + q * (j % q)].append((i, j, w))

    def images(A):
        charge(A, Dq1)
        out = []
        for r, s in [(sym % q, sym // q) for sym in symbols]:
            section = {}
            for (a, b), v in A.terms.items():
                for i, j, w in classes[(r - a) % q + q * ((s - b) % q)]:
                    key, p = ((a + i) // q, (b + j) // q), mul(v, w)
                    prev = section.get(key)
                    section[key] = p if prev is None else add(prev, p)
            out.append(BiPoly(f, section))
        return out
    return images


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
