"""Shared fixtures: fields under test and seeded random generators.

Random objects use fixed seeds so every run exercises identical inputs;
"oracle" helpers are deliberately independent of the implementation paths
they check (direct recurrences, digit counting, brute-force convolution).
"""

import random

import pytest
from hypothesis import settings

from algseries import GF, QQ, BiPoly, FixedPointProblem

# Property tests replay the same examples on every run and have no time
# limit per example, so a slow or loaded machine cannot make them flake.
settings.register_profile("algseries", deadline=None, derandomize=True)
settings.load_profile("algseries")

F2 = GF(2)
F3 = GF(3)
F4 = GF(4)
F5 = GF(5)
F8 = GF(8)
F9 = GF(9)

FINITE_FIELDS = [F2, F3, F4, F5, F8, F9]
ALL_FIELDS = FINITE_FIELDS + [QQ]


def random_raw(field, rng, nonzero=False):
    if field.is_finite:
        return rng.randrange(1 if nonzero else 0, field.order)
    value = rng.randint(-9, 9)
    while nonzero and not value:
        value = rng.randint(-9, 9)
    return value


def random_bipoly(field, rng, max_deg=3, max_terms=4, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_deg)
        j = rng.randint(0, max_deg - i)
        terms[(i, j)] = random_raw(field, rng, nonzero=True)
    poly = BiPoly(field, terms)
    if nonzero and poly.is_zero():
        return BiPoly.constant(field, field.one)
    return poly


def reference_sections(A, symbols):
    """Per-term reference for the digit sections Lambda_{r,s}(A), one per
    symbol r + q*s: every term (i, j) of A with i = r mod q and j = s mod q
    moves to (i // q, j // q)."""
    q = A.field.order
    out = []
    for sym in symbols:
        r, s = sym % q, sym // q
        out.append(BiPoly(A.field, {
            ((i - r) // q, (j - s) // q): c
            for (i, j), c in A.terms.items()
            if (i - r) % q == 0 and (j - s) % q == 0}))
    return out


def random_problem(field, rng, max_deg=4, max_terms=5):
    """Random P with P(0,0) = 0 and P'_Y(0,0) = 0 (every monomial 2a+b >= 2)."""
    terms = {}
    for _ in range(rng.randint(2, max_terms)):
        while True:
            a = rng.randint(0, max_deg)
            b = rng.randint(0, max_deg - a)
            if 2 * a + b >= 2:
                break
        terms[(a, b)] = random_raw(field, rng, nonzero=True)
    poly = BiPoly(field, terms)
    if poly.is_zero():
        poly = BiPoly(field, {(1, 0): field.one})
    return FixedPointProblem(poly)


def shift_y(P, a0):
    """P(X, a0 + Y), term by term."""
    field = P.field
    a0_plus_y = BiPoly.constant(field, a0) + BiPoly.y(field)
    out = BiPoly.zero(field)
    for (i, j), c in P.terms.items():
        out = out + BiPoly(field, {(i, 0): c}) * a0_plus_y ** j
    return out


def catalan_numbers(count):
    """C_0..C_{count-1} by the convolution recurrence."""
    cat = [1]
    for n in range(1, count):
        cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
    return cat


def thue_morse(n):
    """Parity of the binary digit sum of n."""
    return bin(n).count("1") % 2


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@pytest.fixture
def rng():
    return random.Random(20260811)
