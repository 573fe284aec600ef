"""Exact field arithmetic: prime fields F_p, small extensions F_{p^k}, and Q.

Every field object works on *raw* values so that polynomial and series
kernels can run tight loops without wrapper overhead:

  * F_p        -- raw values are residues, ints in [0, p)
  * F_{p^k}    -- raw values are element codes, ints in [0, q) encoding the
                  coefficient vector c_0 + c_1*t + ... + c_{k-1}*t^{k-1}
                  base p (c_0 least significant); arithmetic is table-driven
  * Q          -- raw values are ints or fractions.Fraction (ints are kept
                  as long as no division happens; the two interoperate and
                  hash/compare equal when numerically equal)

Raw zero is always falsy and raw nonzero always truthy, so ``if v:`` is the
idiomatic zero test throughout the package.  Raw values are also what every
function takes and returns: a value's field travels beside it, never with
it.  No floating point is used anywhere.
"""

import functools
import itertools
import re
from fractions import Fraction

from ..errors import AlgSeriesError
from .conv import SlotFormat
from .polys import UniPoly, power

# Default moduli that differ from the first irreducible polynomial the
# search finds (coefficient tuples, constant first; verified again at
# construction time).  For F25 the search finds t^2 + 2, but F25 has always
# been t^2 + t + 1, which its element texts and documents depend on.
_BUILTIN_MODULI = {25: (1, 1, 1)}

_TABLE_CAP = 1024  # largest extension cardinality backed by lookup tables


# The least strong pseudoprime to the bases 2..37 (1287836182261 *
# 2575672364521): Miller-Rabin on those bases is exact below it.
_PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin on the prime bases 2..37.

    Exact below _PRIME_TEST_BOUND; a larger n with no factor among those
    bases raises AlgSeriesError rather than return an uncertified answer.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _PRIME_TEST_BOUND:
        raise AlgSeriesError(
            f"cannot certify that {n} is prime: the primality test is exact "
            f"only below {_PRIME_TEST_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _monic(p, d):
    """The monic polynomials of degree d over F_p, in the order of their
    lower coefficients c_0 + c_1*p + ... read as a base-p code."""
    field = GF(p)
    for digits in itertools.product(range(p), repeat=d):
        yield UniPoly(field, digits[::-1] + (1,))


def _irreducible(m):
    """Trial division of the UniPoly m by every monic factor of degree at
    most half its own."""
    return all(not (m % f).is_zero() for d in range(1, m.degree // 2 + 1)
               for f in _monic(m.field.char, d))


class Field:
    """Descriptor of an exact coefficient field; see module docstring.

    Subclasses provide the raw operations ``add``, ``sub``, ``neg``, ``mul``,
    ``inv``, ``div``, ``from_int`` plus ``zero``/``one`` constants.  ``char``
    is the characteristic (0 for Q) and ``order`` the cardinality (None for
    Q); a finite field has ``degree`` k, its order being char^k.
    Descriptors are immutable, hashable and safe to share.
    """

    kind = None
    char = None
    order = None

    @property
    def is_finite(self):
        return self.order is not None

    @functools.cached_property
    def slots(self):
        """The packing of this finite field's coefficient lists (conv.py)."""
        return SlotFormat(self)

    def pow(self, a, n):
        """Raw a**n by square and multiply; negative n inverts first."""
        if n < 0:
            a = self.inv(a)
            n = -n
        return power(self.one, a, n, self.mul)

    # Serialization of raw values for JSON automata and reports.
    def to_literal(self, a):
        raise NotImplementedError

    def from_literal(self, lit):
        raise NotImplementedError


class PrimeField(Field):
    """F_p with residue arithmetic."""

    kind = "prime"
    degree = 1

    def __init__(self, p):
        if not is_prime(p):
            raise AlgSeriesError(f"{p} is not prime")
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def neg(self, a):
        return -a % self.char

    def mul(self, a, b):
        return a * b % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        return n % self.char

    def elements(self):
        return range(self.order)

    def fmt(self, a):
        return str(a)

    def to_literal(self, a):
        return str(a)

    def from_literal(self, lit):
        num, den = _parse_literal(lit)
        if den != 1:
            raise AlgSeriesError(f"{self} literal must be an integer")
        return num % self.char

    def __repr__(self):
        return f"F{self.char}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("prime", self.char))


class ExtensionField(Field):
    """F_{p^k} = F_p[t]/(m(t)) with table-driven code arithmetic."""

    kind = "extension"

    def __init__(self, p, k, modulus):
        if not is_prime(p):
            raise AlgSeriesError(f"{p} is not prime")
        if k < 2:
            raise AlgSeriesError("extension degree must be >= 2")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or not modulus[-1]:
            raise AlgSeriesError(f"modulus must have degree {k}")
        q = field_order(p, k)
        if not _irreducible(UniPoly(GF(p), modulus)):
            raise AlgSeriesError("modulus is reducible over F_p")
        self.char = p
        self.degree = k
        self.order = q
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._build_tables()

    def _decode(self, code):
        out = []
        for _ in range(self.degree):
            code, r = divmod(code, self.char)
            out.append(r)
        return tuple(out)

    def _encode(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.char + c
        return code

    def _build_tables(self):
        """Code tables for +, *, - and inverse.

        * is read off exp/log tables of a primitive element g: a*b is
          g^(log a + log b).  + works digit-wise: a ^ b for p = 2, otherwise
          the low base-p digits add mod p and the rest of the code adds by
          the table of the field with one digit fewer.
        """
        p, q = self.char, self.order
        exp, log = self._powers()
        mul = [0] * q
        for a in range(1, q):
            row = exp[log[a]:log[a] + q - 1]
            mul += [0] + [row[log[b]] for b in range(1, q)]
        self._mul = mul
        if p == 2:
            self._add = [a ^ b for a in range(q) for b in range(q)]
        else:
            add, size = [0], 1  # the table of the codes with no digit
            while size < q:
                prev, size = size, size * p
                add = [(a % p + b % p) % p + p * add[a // p * prev + b // p]
                       for a in range(size) for b in range(size)]
            self._add = add
        self._neg = [self._encode(tuple(-x % p for x in self._decode(a)))
                     for a in range(q)]
        self._inv = [0] + [exp[q - 1 - log[a]] for a in range(1, q)]

    def _powers(self):
        """exp, log of the first primitive element g: exp[i] = g^i for
        0 <= i < 2(q-1), and log[g^i] = i for the nonzero codes."""
        p, q = self.char, self.order
        field = GF(p)
        modulus = UniPoly(field, self.modulus)
        for candidate in range(p, q):
            g = UniPoly(field, self._decode(candidate))
            power, exp = UniPoly.one(field), [1]
            for _ in range(q - 2):
                power = power * g % modulus
                code = self._encode(power.coeffs)
                if code == 1:
                    break
                exp.append(code)
            else:
                log = [0] * q
                for i, code in enumerate(exp):
                    log[code] = i
                return exp + exp, log
        raise AlgSeriesError("no primitive element found")  # unreachable

    def add(self, a, b):
        return self._add[a * self.order + b]

    def sub(self, a, b):
        return self._add[a * self.order + self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a * self.order + b]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        return n % self.char

    def elements(self):
        return range(self.order)

    def coeff_vector(self, a):
        """Coefficient tuple (c_0, ..., c_{k-1}) of the code ``a``."""
        return self._decode(a)

    @functools.cached_property
    def _texts(self):
        """The text of every code, built on first use."""
        return [_t_text(self._decode(a)) for a in range(self.order)]

    def fmt(self, a):
        return self._texts[a]

    def to_literal(self, a):
        return list(self._decode(a))

    def from_literal(self, lit):
        if not isinstance(lit, list) or not all(isinstance(c, int) for c in lit):
            raise AlgSeriesError("extension literal must be a list of ints")
        if len(lit) > self.degree:
            raise AlgSeriesError("extension literal has too many coefficients")
        return self._encode([c % self.char for c in lit])

    def modulus_text(self):
        return _t_text(self.modulus)

    def __repr__(self):
        return f"F{self.order}"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.char == self.char
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ext", self.char, self.modulus))


class RationalField(Field):
    """Q with exact int/Fraction arithmetic; characteristic 0."""

    kind = "rationals"
    char = 0
    order = None
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        r = Fraction(1, a) if isinstance(a, int) else 1 / a
        # an integral inverse (of a unit such as -1) stays an int, so that
        # scaling by it keeps int coefficients ints rather than Fractions
        return r.numerator if r.denominator == 1 else r

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        r = Fraction(a, b) if isinstance(b, int) else Fraction(a) / b
        return r.numerator if r.denominator == 1 else r  # as in inv

    def from_int(self, n):
        return n

    def fmt(self, a):
        return str(a)

    def to_literal(self, a):
        return str(a)

    def from_literal(self, lit):
        num, den = _parse_literal(lit)
        if not den:
            raise AlgSeriesError("zero denominator in a rational literal")
        frac = Fraction(num, den)
        return frac.numerator if frac.denominator == 1 else frac

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")


QQ = RationalField()

@functools.lru_cache(maxsize=None)
def _cached_field(p, k, modulus):
    if k == 1:
        return PrimeField(p)
    return ExtensionField(p, k, modulus)


def GF(q, modulus=None):
    """Finite field of cardinality q.

    q must be a prime power; for extensions the modulus (an iterable of
    coefficient ints, constant term first, or anything with a ``coeffs``
    attribute) may be supplied, otherwise a built-in table or a brute-force
    search provides one.
    """
    p, k = field_size(q)
    if k == 1:
        if modulus is not None:
            raise AlgSeriesError("prime fields take no modulus")
        return _cached_field(p, 1, None)
    if modulus is None:
        modulus = _BUILTIN_MODULI.get(q) or _search_modulus(p, k)
    else:
        coeffs = getattr(modulus, "coeffs", modulus)
        modulus = tuple(int(c) % p for c in coeffs)
    return _cached_field(p, k, tuple(modulus))


def field_size(q):
    """(p, k) of a field of cardinality q = p^k; AlgSeriesError when there
    is no such field, or when it is an extension over the table cap."""
    if q < 2:
        raise AlgSeriesError("field cardinality must be >= 2")
    if q > _TABLE_CAP:
        # only a prime field is this large: is_prime settles that at once
        if not is_prime(q):
            raise AlgSeriesError(
                f"field size {q} is not prime, and an extension of that size "
                f"exceeds table cap {_TABLE_CAP}")
        return q, 1
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least prime factor
    k = 1
    while p ** k < q:
        k += 1
    if p ** k != q:
        raise AlgSeriesError(f"{q} is not a prime power")
    return p, k


def field_order(p, k):
    """p^k for the field spec F_{p^k}, once the package can build that field.

    A prime field (k = 1) may be of any size; an extension needs p^k within
    the table cap, as its tables, modulus search and irreducibility test
    all grow like p^k.  The cap is checked before p^k is formed, whose
    digits grow like k: p >= 2 gives p^k >= 2^k.
    """
    if p < 2 or k < 1:
        raise AlgSeriesError(f"{p}^{k} is not a field size")
    if k > 1 and (p > _TABLE_CAP or k > _TABLE_CAP.bit_length()
                  or p ** k > _TABLE_CAP):
        raise AlgSeriesError(
            f"extension of size {p}^{k} exceeds table cap {_TABLE_CAP}")
    return p ** k


def _t_text(coeffs):
    """c_0 + c_1*t + ... as text such as "1+2*t+t^3"; zero terms are left
    out, and no terms at all read "0"."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
    return "+".join(parts) if parts else "0"


_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_literal(lit):
    """(a, b) of a literal "a" or "a/b", the forms to_literal writes for F_p
    and Q; b = 1 for "a".  Anything else raises AlgSeriesError."""
    match = _LITERAL.fullmatch(lit) if isinstance(lit, str) else None
    if match is None:
        raise AlgSeriesError(
            "expected a literal string such as '-3', or over Q '-3/4'")
    num, den = match.groups()
    return int(num), int(den or 1)


@functools.lru_cache(maxsize=None)
def _search_modulus(p, k):
    """The first irreducible monic polynomial of degree k over F_p; cached,
    as GF(q) runs it on every call without a modulus."""
    return next(m for m in _monic(p, k) if _irreducible(m)).coeffs
