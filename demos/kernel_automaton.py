"""Digit automata for the coefficients of a rational power series.

Over F_q, every coefficient sequence of a rational function P/Q with
Q(0,0) != 0 has a finite q-kernel: closing {P/Q} under the digit sections
Lambda_{r,s} only ever produces numerators of bounded degree over the fixed
denominator Q.  The closure is a finite automaton reading digit pairs; the
closure under the equal pairs (r, r) alone reads single digits and generates
the diagonal [X^n Y^n](P/Q).

Here: 1/(1+X+Y) over F_2, whose diagonal is the central binomial parity
C(2n, n) mod 2 (one at n = 0, zero afterwards).
"""

from algseries import (BiPoly, GF, degree_bound, export_dot, parse_poly,
                       rational_kernel, series_expand_ratio, to_json)

F2 = GF(2)
num = BiPoly.one(F2)
den = parse_poly("1+X+Y", F2)

kernel = rational_kernel(num, den)
print(f"closure has {kernel.n_states} states "
      f"(degree bound {degree_bound(num, den)}):")
for i, numerator in enumerate(kernel.labels):
    print(f"  state {i}: numerator {numerator}")

# the 2-D automaton indexes arbitrary coefficients
S = series_expand_ratio(num, den, 9)
assert all(kernel.run_raw((m, n)) == S.get(m, n)
           for m in range(10) for n in range(10))
print("coefficient automaton matches the series expansion on a 10x10 grid")

diag = rational_kernel(num, den, diagonal=True)
print("\ndiagonal sequence (C(2n,n) mod 2):",
      [diag.run_raw(n) for n in range(12)])
print("\nDOT rendering of the diagonal automaton:")
print(export_dot(diag))
print("JSON document:")
print(to_json(diag))
