"""Roots of Y^2 + (1+X) Y + X^2 over F_2 as a five-state automaton.

The Cartier closure of the formal root under Lambda_0, Lambda_1 produces
states i, a, b, c and a zero sink; both series roots share the skeleton and
differ only in the attached outputs.  Every state is A(X, y)/P_Y(X, y) for
a numerator A with deg_X A <= 2 and deg_Y A < 2, and digit r maps A to
Lambda_{r,1}(A * P): the denominator P_Y = 1 + X stays fixed.  Each state is
printed as its numerator over P_Y; on the branch with residue a0 its output
is A(0, a0)/P_Y(0, a0), the constant term of its series.
"""

from algseries import (GF, cartier_closure, derivative_y,
                       eval_bipoly_at_series, export_dot, frobenius_from_poly,
                       parse_poly, roots_automata)
from algseries.roots import residue_outputs

F2 = GF(2)
Q = parse_poly("Y^2+(1+X)*Y+X^2", F2)

relation = frobenius_from_poly(Q)
print("annihilating relation:", relation.to_text())

skeleton = cartier_closure(Q)
print(f"\nclosure skeleton ({skeleton.n_states} states), "
      f"P_Y = {derivative_y(Q).to_text()}:")
for i, label in enumerate(skeleton.labels):
    targets = skeleton.transitions[i]
    print(f"  state {i}: ({label})/P_Y   (0 -> {targets[0]}, 1 -> {targets[1]})")

outcome = roots_automata(Q, 64)
for branch, automaton in outcome.branches:
    print(f"\nbranch a0 = {branch.a0}:")
    print("  first coefficients:", branch.series.coeffs[:12])
    print("  outputs per state: ",
          residue_outputs(skeleton, branch.a0))
    residue = eval_bipoly_at_series(Q, automaton.generate(64))
    print("  Q(X, generated) == 0:", residue.is_zero())

print("\nminimized branch-0 automaton:")
print(export_dot(outcome.branches[0][1]))
