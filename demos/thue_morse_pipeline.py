"""Every route to the Thue-Morse sequence, cross-validated.

P = (1+X)^3 Y^2 + (1+X)^2 Y + X over F_2 has two power-series roots: the
Thue-Morse sequence and its bitwise negation.  This script computes the
a0 = 0 root four independent ways and checks they agree:

  1. Newton/Hensel lifting of the residue root,
  2. the diagonal of the rational function built from P,
  3. the digit automaton synthesized from the Frobenius relation of P,
  4. the digit automaton from the Cartier kernel of the rational function.

It also recovers the annihilating relation X f + (1+X) f^2 + (1+X)^4 f^4
from the automaton alone.
"""

from algseries import (GF, degree_bound, diagonal_coeffs, export_dot,
                       frobenius_relation, furstenberg_rep, hensel_root,
                       parse_poly, rational_kernel, roots_automata)

F2 = GF(2)
P = parse_poly("(1+X)^3*Y^2+(1+X)^2*Y+X", F2)
N = 64


def digit_sum_parity(n):
    return bin(n).count("1") % 2


# route 1: Newton lifting
lifted = hensel_root(P, 0, N)
print("hensel root starts:", lifted.coeffs[:16])
assert list(lifted.coeffs) == [digit_sum_parity(n) for n in range(N + 1)]

# route 2: diagonal of an explicit rational function
rep = furstenberg_rep(P)
print("diagonal representation: num =", rep.num.to_text())
print("                         den =", rep.den.to_text())
assert diagonal_coeffs(rep, N) == lifted

# route 3: automaton from the Frobenius relation of P
outcome = roots_automata(P, N)
print("relation from P:", outcome.relation.to_text())
branch0 = next(aut for b, aut in outcome.branches if b.a0 == 0)
print("branch automaton:")
print(export_dot(branch0))
assert branch0.generate(N) == lifted

# route 4: Cartier kernel of the rational function, diagonal sections only
diag = rational_kernel(rep.num, rep.den, diagonal=True)
print(f"kernel closure: {diag.n_states} states, "
      f"degree bound {degree_bound(rep.num, rep.den)}")
assert diag.generate(N) == lifted

# and back: the automaton alone recovers the annihilating relation
relation = frobenius_relation(branch0)
print("relation from the automaton:", relation.to_text())
assert relation.coeffs == outcome.relation.coeffs
print("all four routes agree on", N + 1, "coefficients")
