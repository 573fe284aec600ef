"""Output checks for the benchmark, in the benchmark's own arithmetic.

Nothing here imports algseries.  Fields are ints mod p, a GF(p^k) table
built here, and ints/fractions.Fraction for Q.  Polynomials are dicts
{(i, j): coeff} in X and Y, truncated series are lists c_0..c_N, automata
are read from their JSON text and run least-significant digit first.

Every check_* function takes what a CLI job returned and raises CheckFailed
with a reason when the output is wrong.
"""

import json
from fractions import Fraction


class CheckFailed(Exception):
    """A job's output does not satisfy its independent check."""


class Field:
    """Q (p == 0), F_p (k == 1) or F_p[t]/(modulus) with elements as ints.

    An element of F_{p^k} is the code sum c_i p^i of its coefficient vector
    (c_0, ..., c_{k-1}); the modulus is a monic tuple, constant term first.
    """

    def __init__(self, p=0, k=1, modulus=None):
        self.p, self.k = p, k
        self.modulus = tuple(modulus) if modulus else None
        if k > 1:
            if self.modulus is None or len(self.modulus) != k + 1 \
                    or self.modulus[-1] != 1:
                raise ValueError("F_{p^k} needs a monic modulus of degree k")
            self.q = p ** k
            vecs = [self._vec(a) for a in range(self.q)]
            self._add = [[self._code([(x + y) % p for x, y in zip(va, vb)])
                          for vb in vecs] for va in vecs]
            self._mul = [[self._code(self._reduce(_poly_mul(va, vb, p)))
                          for vb in vecs] for va in vecs]
        else:
            self.q = p or None

    # -- element encoding ---------------------------------------------------

    def _vec(self, a):
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _code(self, vec):
        code = 0
        for c in reversed(vec):
            code = code * self.p + c
        return code

    def _reduce(self, coeffs):
        """Coefficient list over F_p reduced modulo the modulus, length k."""
        coeffs = list(coeffs) + [0] * self.k
        for d in range(len(coeffs) - 1, self.k - 1, -1):
            c = coeffs[d] % self.p
            if c:
                for i, m in enumerate(self.modulus[:-1]):
                    coeffs[d - self.k + i] -= c * m
            coeffs[d] = 0
        return [c % self.p for c in coeffs[:self.k]]

    def spec(self):
        """Field spec in the CLI's syntax, e.g. "Q", "F5", "F8:t^3+t+1"."""
        if not self.p:
            return "Q"
        if self.k == 1:
            return f"F{self.p}"
        terms = {(0, 0, 0, e): c for e, c in enumerate(self.modulus) if c}
        return f"F{self.q}:" + poly_text(terms).replace(" ", "")

    # -- arithmetic ---------------------------------------------------------

    def from_int(self, n):
        return n % self.p if self.p else n

    def from_t_poly(self, coeffs):
        """Element of F_{p^k} from integer coefficients of powers of t."""
        if self.k == 1:
            if any(coeffs[1:]):
                raise CheckFailed("symbol t outside an extension field")
            return self.from_int(coeffs[0] if coeffs else 0)
        return self._code(self._reduce([c % self.p for c in coeffs]))

    def add(self, a, b):
        if self.k > 1:
            return self._add[a][b]
        return (a + b) % self.p if self.p else a + b

    def neg(self, a):
        if self.k > 1:
            return self._code([-c % self.p for c in self._vec(a)])
        return -a % self.p if self.p else -a

    def mul(self, a, b):
        if self.k > 1:
            return self._mul[a][b]
        return a * b % self.p if self.p else a * b

    def elements(self):
        return range(self.q)

    def from_literal(self, lit):
        """Element from an automaton JSON output literal."""
        if self.k > 1:
            if not isinstance(lit, list) or len(lit) > self.k:
                raise CheckFailed(f"bad extension literal {lit!r}")
            return self._code([c % self.p for c in lit] + [0] * (self.k - len(lit)))
        if not isinstance(lit, str):
            raise CheckFailed(f"bad literal {lit!r}")
        value = Fraction(lit)
        if self.p:
            if value.denominator != 1:
                raise CheckFailed(f"fraction {lit!r} in a finite field")
            return int(value) % self.p
        return int(value) if value.denominator == 1 else value

    def parse_element(self, text):
        """Element of a finite field from its text rendering, e.g. "2", "1+t"."""
        terms = parse_expr(text)
        coeffs = [0] * (max((e[3] for e in terms), default=0) + 1)
        for (x, y, f, e), c in terms.items():
            if x or y or f:
                raise CheckFailed(f"{text!r} is not a field element")
            coeffs[e] += c
        return self.from_t_poly(coeffs)

    # -- truncated series ---------------------------------------------------

    def series_mul(self, a, b, n):
        """(a * b) mod X^(n+1) for coefficient lists a, b."""
        a, b = a[:n + 1], b[:n + 1]
        if not a or not b:
            return [0] * (n + 1)
        if not self.p:
            out = [0] * (n + 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b[:n + 1 - i]):
                        out[i + j] += x * y
            return out
        if self.k == 1:
            return [c % self.p for c in _conv(a, b, n, self.p)]
        va = list(zip(*(self._vec(x) for x in a)))
        vb = list(zip(*(self._vec(x) for x in b)))
        parts = [[0] * (n + 1) for _ in range(2 * self.k - 1)]
        for i in range(self.k):
            for j in range(self.k):
                prod = _conv(va[i], vb[j], n, self.p)
                dst = parts[i + j]
                for idx, c in enumerate(prod):
                    dst[idx] += c
        return [self._code(self._reduce(col)) for col in zip(*parts)]

    def eval_poly_at_series(self, poly, f, n):
        """P(X, f) mod X^(n+1) for P = {(i, j): coeff}, by Horner in Y."""
        rows = {}
        for (i, j), c in poly.items():
            if i <= n:
                rows.setdefault(j, [0] * (n + 1))[i] = c
        acc = [0] * (n + 1)
        for j in range(max(rows, default=0), -1, -1):
            if any(acc):
                acc = self.series_mul(acc, f, n)
            row = rows.get(j)
            if row:
                acc = [self.add(x, y) for x, y in zip(acc, row)]
        return acc


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _conv(a, b, n, p):
    """Integer convolution of residue lists, truncated: Kronecker packing."""
    bound = (p - 1) ** 2 * min(len(a), len(b)) + 1
    width = (bound.bit_length() + 3) // 4
    fmt = f"0{width}x"

    def pack(vals):
        return int("".join(format(v, fmt) for v in reversed(vals)) or "0", 16)

    digits = format(pack(a) * pack(b), "x")
    total = len(a) + len(b) - 1
    digits = digits.zfill(total * width)
    out = []
    for idx in range(min(n + 1, total)):
        end = len(digits) - idx * width
        out.append(int(digits[end - width:end], 16))
    return out + [0] * (n + 1 - len(out))


# -- expressions ------------------------------------------------------------

_VARS = {"X": 0, "Y": 1, "f": 2, "t": 3}


def parse_expr(text):
    """Integer polynomial in X, Y, f, t as {(x, y, f, t exponents): int}.

    Grammar: sums and differences of products of integers, variables,
    parenthesized expressions and powers by non-negative integers.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch in _VARS or ch in "+-*^()":
            tokens.append(ch)
            i += 1
        else:
            raise CheckFailed(f"unexpected {ch!r} in {text!r}")
    tokens.append(None)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expr():
        sign = -1 if peek() == "-" and take() else 1
        acc = _pscale(term(), sign)
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            acc = _padd(acc, _pscale(term(), sign))
        return acc

    def term():
        acc = factor()
        while peek() == "*" or isinstance(peek(), int) or peek() in _VARS \
                or peek() == "(":
            if peek() == "*":
                take()
            acc = _pmul(acc, factor())
        return acc

    def factor():
        base = atom()
        if peek() == "^":
            take()
            k = take()
            if not isinstance(k, int):
                raise CheckFailed(f"bad exponent in {text!r}")
            out = {(0, 0, 0, 0): 1}
            for _ in range(k):
                out = _pmul(out, base)
            return out
        return base

    def atom():
        tok = take()
        if isinstance(tok, int):
            return {(0, 0, 0, 0): tok} if tok else {}
        if tok in _VARS:
            key = [0, 0, 0, 0]
            key[_VARS[tok]] = 1
            return {tuple(key): 1}
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise CheckFailed(f"unbalanced parentheses in {text!r}")
            return inner
        raise CheckFailed(f"unexpected token {tok!r} in {text!r}")

    out = expr()
    if peek() is not None:
        raise CheckFailed(f"trailing input in {text!r}")
    return out


def _padd(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pscale(a, c):
    return {k: v * c for k, v in a.items()}


def _pmul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def poly_text(terms):
    """Text for {(x, y, f, t) or (x, y): int}, in the CLI's input grammar."""
    parts = []
    for key in sorted(terms, key=lambda k: (sum(k), [-e for e in k])):
        c = terms[key]
        mono = [(v if e == 1 else f"{v}^{e}")
                for v, e in zip("XYft", key) if e]
        body = "*".join(mono)
        mag = abs(c)
        text = body if body and mag == 1 else "*".join([str(mag)] + mono)
        parts.append(("-" if c < 0 else "+", text))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


def to_field_poly(field, terms):
    """Reduce an integer polynomial in X and Y into ``field``."""
    out = {}
    for key, c in terms.items():
        i, j = key[0], key[1]
        if len(key) > 2 and any(key[2:]):
            raise CheckFailed("polynomial uses f or t")
        v = field.add(out.get((i, j), 0), field.from_int(c))
        if v:
            out[(i, j)] = v
        else:
            out.pop((i, j), None)
    return out


def derivative_y(field, poly):
    out = {}
    for (i, j), c in poly.items():
        v = field.mul(field.from_int(j), c) if j else 0
        if v:
            out[(i, j - 1)] = v
    return out


# -- automata ---------------------------------------------------------------

class Automaton:
    """Digit automaton read from the CLI's JSON, run LSD first."""

    def __init__(self, field, text):
        doc = json.loads(text)
        self.q = doc.get("q")
        if doc.get("arity", 1) != 1 or doc.get("digit_order", "lsd") != "lsd":
            raise CheckFailed("expected a one-dimensional lsd automaton")
        if self.q != field.q:
            raise CheckFailed(f"digit base {self.q} is not the field size {field.q}")
        desc = doc.get("field", {})
        if desc.get("p") != field.p:
            raise CheckFailed(f"automaton field {desc!r} does not match {field.spec()}")
        if field.k > 1:
            mod = parse_expr(desc.get("modulus", ""))
            coeffs = [0] * (field.k + 1)
            for key, c in mod.items():
                if any(key[:3]) or key[3] > field.k:
                    raise CheckFailed("bad modulus text")
                coeffs[key[3]] = c % field.p
            if tuple(coeffs) != field.modulus:
                raise CheckFailed("automaton uses another modulus")
        self.transitions = doc["transitions"]
        self.outputs = [field.from_literal(x) for x in doc["outputs"]]
        self.initial = doc["initial"]
        if len(self.outputs) != len(self.transitions):
            raise CheckFailed("one output per state required")
        for row in self.transitions:
            if len(row) != self.q or not all(0 <= s < len(self.transitions)
                                             for s in row):
                raise CheckFailed("transition table is not total")

    def sequence(self, n):
        """Outputs at indices 0..n."""
        out = []
        delta, q = self.transitions, self.q
        for m in range(n + 1):
            state = self.initial
            while m:
                m, r = divmod(m, q)
                state = delta[state][r]
            out.append(self.outputs[state])
        return out


# -- checks -----------------------------------------------------------------

def _require_ok(result):
    if result.rc != 0:
        raise CheckFailed(f"exit code {result.rc}: {result.stderr.strip()[:200]}")


def _json_series(field, line, n, start):
    try:
        values = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"unreadable series output: {exc}") from exc
    if not isinstance(values, list) or len(values) != n + 1 - start:
        raise CheckFailed(f"expected {n + 1 - start} coefficients")
    return [0] * start + [field.from_literal(v) for v in values]


def check_extract(field, poly, n, result, catalan=False):
    """f = P(X, f) mod X^(n+1) for the printed f_1..f_n (f_0 = 0)."""
    _require_ok(result)
    f = _json_series(field, result.stdout.strip().splitlines()[-1], n, start=1)
    if field.eval_poly_at_series(poly, f, n) != f:
        raise CheckFailed("printed series is not a fixed point of P")
    if catalan:
        c = 1
        for m in range(1, n + 1):
            if f[m] != c:
                raise CheckFailed(f"f_{m} is not the Catalan number {c}")
            c = c * 2 * (2 * m - 1) // (m + 1)


def check_diagonal_from_poly(field, poly, n, result):
    """The printed c_0..c_n is the root phi(0) = 0 of Q(X, phi) = 0."""
    _require_ok(result)
    phi = _json_series(field, result.stdout.strip().splitlines()[-1], n, start=0)
    if phi[0]:
        raise CheckFailed("diagonal does not vanish at 0")
    if any(field.eval_poly_at_series(poly, phi, n)):
        raise CheckFailed("printed series is not a root of Q")


def simple_residue_roots(field, poly):
    """a in F_q with P(0, a) = 0 and P_Y(0, a) != 0, by brute force."""
    def at(p, a):
        acc = 0
        for (i, j), c in p.items():
            if i == 0:
                term = c
                for _ in range(j):
                    term = field.mul(term, a)
                acc = field.add(acc, term)
        return acc
    dpoly = derivative_y(field, poly)
    return [a for a in field.elements() if not at(poly, a) and at(dpoly, a)]


def check_roots(field, poly, n, result, branch_texts):
    """One branch per simple residue root; each branch g has P(X, g) = 0."""
    _require_ok(result)
    roots = simple_residue_roots(field, poly)
    if len(branch_texts) != len(roots):
        raise CheckFailed(f"{len(branch_texts)} branches for {len(roots)} simple roots")
    seen = set()
    for text in branch_texts:
        g = Automaton(field, text).sequence(n)
        if any(field.eval_poly_at_series(poly, g, n)):
            raise CheckFailed("branch automaton does not generate a root of P")
        seen.add(g[0])
    if seen != set(roots):
        raise CheckFailed("branches do not cover every simple residue root")


def parse_relation(field, q, line):
    """{k: [A_k coefficients]} from "A_0*f + A_1*f^q + ... = 0"."""
    lhs, sep, rhs = line.partition("=")
    if not sep or rhs.strip() != "0":
        raise CheckFailed(f"not a relation: {line[:80]!r}")
    parts = {}
    for (x, y, fe, te), c in parse_expr(lhs).items():
        if y or fe == 0:
            raise CheckFailed("relation term without a power of f")
        k, power = 0, 1
        while power < fe:
            power, k = power * q, k + 1
        if power != fe:
            raise CheckFailed(f"f^{fe} is not a power f^(q^k)")
        parts.setdefault((k, x), {})[te] = c
    relation = {}
    for (k, x), by_t in parts.items():
        coeffs = [by_t.get(e, 0) for e in range(max(by_t) + 1)]
        relation.setdefault(k, {})[x] = field.from_t_poly(coeffs)
    return relation


def check_annihilate(field, automaton_text, m, result):
    """Printed relation is nonzero and sum A_k(X) g(X^(q^k)) = 0 mod X^(m+1)."""
    _require_ok(result)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise CheckFailed("no relation printed")
    relation = parse_relation(field, field.q, lines[0])
    if not any(any(row.values()) for row in relation.values()):
        raise CheckFailed("relation is zero")
    g = Automaton(field, automaton_text).sequence(m)
    total = [0] * (m + 1)
    for k, row in relation.items():
        step = field.q ** k
        for x, a in row.items():
            if not a:
                continue
            for idx in range(0, (m - x) // step + 1):
                if g[idx]:
                    e = x + idx * step
                    total[e] = field.add(total[e], field.mul(a, g[idx]))
    if any(total):
        raise CheckFailed("relation does not annihilate the automaton's series")


def diagonal_of_ratio(field, num, den, m):
    """[X^n Y^n] num/den for n <= m, keeping only the rows the recurrence reads."""
    d00 = den.get((0, 0))
    if not d00:
        raise ValueError("den(0,0) must be nonzero")
    inv = next(a for a in field.elements() if field.mul(a, d00) == 1)
    rest = [(a, b, field.neg(c)) for (a, b), c in den.items() if (a, b) != (0, 0)]
    depth = max((a for a, _, _ in rest), default=0)
    rows = []
    out = []
    for i in range(m + 1):
        row = [0] * (m + 1)
        for j in range(m + 1):
            acc = num.get((i, j), 0)
            for a, b, c in rest:
                if a <= i and b <= j:
                    v = rows[-a][j - b] if a else row[j - b]
                    if v:
                        acc = field.add(acc, field.mul(c, v))
            row[j] = field.mul(inv, acc)
        out.append(row[i])
        rows.append(row)
        if len(rows) > depth:
            rows.pop(0)
    return out


def check_kernel_diagonal(field, num, den, m, automaton_text, result):
    """The automaton's sequence equals the diagonal of num/den up to m."""
    _require_ok(result)
    got = Automaton(field, automaton_text).sequence(m)
    if got != diagonal_of_ratio(field, num, den, m):
        raise CheckFailed("automaton sequence differs from the diagonal of num/den")


def check_gen(field, automaton_text, m, result):
    """gen prints the automaton's outputs at 0..m."""
    _require_ok(result)
    words = result.stdout.split()
    if len(words) != m + 1:
        raise CheckFailed(f"expected {m + 1} values, got {len(words)}")
    got = [field.parse_element(w) for w in words]
    if got != Automaton(field, automaton_text).sequence(m):
        raise CheckFailed("gen output differs from the automaton")
