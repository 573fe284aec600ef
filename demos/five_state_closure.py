"""Roots of Y^2 + (1+X) Y + X^2 over F_2 as a five-state automaton.

The Cartier closure of the formal root under Lambda_0, Lambda_1 produces
states i, a, b, c and a zero sink; both series roots share the skeleton and
differ only in the attached outputs.  The closure works in Ore's
polynomial coordinates: with A_0 the coefficient of f in the relation, a
state is E_0(X) g + E_1(X) g^2 for g = f/A_0.  Each state is printed as its
reduced coordinates on f and f^2; these may have X-power poles, yet every
state is a power series, and its constant term is its output on a branch.
"""

from algseries import (GF, cartier_closure, eval_bipoly_at_series, export_dot,
                       frobenius_from_poly, parse_poly, roots_automata)

F2 = GF(2)
Q = parse_poly("Y^2+(1+X)*Y+X^2", F2)

relation = frobenius_from_poly(Q)
print("annihilating relation:", relation.to_text())

skeleton = cartier_closure(relation)
print(f"\nclosure skeleton ({skeleton.n_states} states):")
for i, label in enumerate(skeleton.labels):
    targets = skeleton.transitions[i]
    print(f"  state {i}: {label}   (0 -> {targets[0]}, 1 -> {targets[1]})")

outcome = roots_automata(Q, 64)
for branch, automaton in outcome.branches:
    print(f"\nbranch a0 = {branch.a0!r}:")
    print("  first coefficients:", branch.series.coeffs[:12])
    print("  outputs per state: ",
          [branch.outputs[i].raw for i in range(skeleton.n_states)])
    residue = eval_bipoly_at_series(Q, automaton.generate(64))
    print("  Q(X, generated) == 0:", residue.is_zero())

print("\nminimized branch-0 automaton:")
print(export_dot(outcome.branches[0][1]))
