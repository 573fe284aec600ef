import pytest
from fractions import Fraction

from algseries import GF, QQ
from algseries.algebra.fields import field_size
from algseries.errors import AlgSeriesError

from conftest import ALL_FIELDS, F2, F4, F9, random_raw


def test_prime_field_basics():
    assert F2.char == 2 and F2.order == 2
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.sub(1, 3) == 3
    assert f5.neg(2) == 3


def test_gf_rejects_non_prime_powers():
    with pytest.raises(AlgSeriesError):
        GF(6)
    with pytest.raises(AlgSeriesError):
        GF(12)
    with pytest.raises(AlgSeriesError):
        GF(1)


def test_prime_power_against_trial_division():
    def reference(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = 0
        while q % p == 0:
            q //= p
            k += 1
        return (p, k) if q == 1 else None

    for q in range(2, 1025):
        expected = reference(q)
        if expected is None:
            with pytest.raises(AlgSeriesError, match="not a prime power"):
                field_size(q)
        else:
            assert field_size(q) == expected
    assert field_size(243) == (3, 5)
    # past the table cap only prime fields exist
    assert field_size(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    for q in ((2 ** 31 - 1) ** 2, 5 ** 30, 1025):
        with pytest.raises(AlgSeriesError, match="exceeds table cap"):
            field_size(q)


def test_pseudoprime_characteristic_rejected():
    # 1287836182261 * 2575672364521 passes Miller-Rabin to every base 2..37
    with pytest.raises(AlgSeriesError, match="cannot certify"):
        GF(3317044064679887385961981)
    with pytest.raises(AlgSeriesError, match="cannot certify"):
        GF(3317044064679887385961981 ** 2)


@pytest.mark.parametrize("q, modulus", [
    (4, (1, 1, 1)), (8, (1, 1, 0, 1)), (9, (1, 0, 1)), (16, (1, 1, 0, 0, 1)),
    (25, (1, 1, 1)), (27, (1, 2, 0, 1))])
def test_default_moduli(q, modulus):
    # element texts and documents depend on these; only F25's is not the
    # first irreducible polynomial of the modulus search (t^2 + 2)
    assert GF(q).modulus == modulus


def test_extension_f4_structure():
    # t^2 = t + 1 in F_4 with the default modulus
    t = 2  # code of t
    assert F4.mul(t, t) == F4.add(t, 1)
    assert F4.order == 4 and F4.char == 2
    for a in range(1, 4):
        assert F4.mul(a, F4.inv(a)) == 1


def test_extension_custom_modulus_checked():
    # t^2 + 1 is reducible over F_2 ((t+1)^2), irreducible over F_3
    with pytest.raises(AlgSeriesError):
        GF(4, modulus=(1, 0, 1))
    f9 = GF(9, modulus=(1, 0, 1))
    assert f9.order == 9
    with pytest.raises(AlgSeriesError):
        GF(9, modulus=(0, 0, 1))  # t^2 is reducible


def tuple_mulmod(a, b, m, p):
    """a * b mod m over F_p on coefficient tuples, constant first, by the
    schoolbook product and long division."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    inv_lead, dm = pow(m[-1], p - 2, p), len(m) - 1
    for top in range(len(out) - 1, dm - 1, -1):
        f = out[top] * inv_lead % p
        for i, c in enumerate(m):
            out[top - dm + i] = (out[top - dm + i] - f * c) % p
    return tuple(out[:dm])


def reference_tables(field):
    """add, mul, neg, inv code tables by one F_p[t] product per pair: the
    construction ExtensionField used before its exp/log tables."""
    p, q = field.char, field.order
    vecs = [field._decode(c) for c in range(q)]
    add = [0] * (q * q)
    mul = [0] * (q * q)
    for a in range(q):
        va = vecs[a]
        for b in range(a, q):
            vb = vecs[b]
            s = field._encode(tuple((x + y) % p for x, y in zip(va, vb)))
            add[a * q + b] = add[b * q + a] = s
            m = field._encode(tuple_mulmod(va, vb, field.modulus, p))
            mul[a * q + b] = mul[b * q + a] = m
    neg = [field._encode(tuple(-x % p for x in v)) for v in vecs]
    inv = [0] + [mul[a * q:(a + 1) * q].index(1) for a in range(1, q)]
    return add, mul, neg, inv


# every extension with q <= 256 under its default modulus, then F8 and F9
# under other moduli: t^3+t^2+1, t^2+t+2 and the non-monic 2t^2+2
TABLE_FIELDS = [GF(q) for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121,
                                125, 128, 169, 243, 256)] + [
    GF(8, modulus=(1, 0, 1, 1)), GF(9, modulus=(2, 1, 1)),
    GF(9, modulus=(2, 0, 2))]


@pytest.mark.parametrize("field", TABLE_FIELDS,
                         ids=lambda f: f"{f!r}:{f.modulus_text()}")
def test_tables_match_pairwise_products(field):
    assert (field._add, field._mul, field._neg, field._inv) == \
        reference_tables(field)


def test_builtin_moduli_cover_advertised_range():
    for q in (4, 8, 9, 16, 25, 27):
        field = GF(q)
        assert field.order == q
        # spot-check a random product against distributivity
        a, b, c = q - 1, q // 2, 1
        lhs = field.mul(a, field.add(b, c))
        rhs = field.add(field.mul(a, b), field.mul(a, c))
        assert lhs == rhs


def test_field_axioms_and_frobenius(rng):
    for field in ALL_FIELDS:
        p = field.char
        for _ in range(100):
            a = random_raw(field, rng)
            b = random_raw(field, rng)
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            c = random_raw(field, rng)
            assert field.mul(a, field.add(b, c)) == \
                field.add(field.mul(a, b), field.mul(a, c))
            if a:
                assert field.mul(a, field.inv(a)) == field.one
            if p:
                lhs = field.pow(field.add(a, b), p)
                rhs = field.add(field.pow(a, p), field.pow(b, p))
                assert lhs == rhs


def test_rational_field_exactness():
    assert QQ.div(1, 3) == Fraction(1, 3)
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.inv(-2) == Fraction(-1, 2)
    # an integral inverse is an int, so scaling by a unit keeps ints ints
    for a, inv in [(1, 1), (-1, -1), (Fraction(-1), -1), (Fraction(1, 3), 3)]:
        assert QQ.inv(a) == inv and type(QQ.inv(a)) is int
    assert QQ.from_literal("3/4") == Fraction(3, 4)
    assert QQ.from_literal("-5") == -5
    assert QQ.to_literal(Fraction(3, 1)) == "3"


def test_literals_roundtrip(rng):
    for field in ALL_FIELDS:
        for _ in range(20):
            a = random_raw(field, rng)
            assert field.from_literal(field.to_literal(a)) == a
    assert F9.from_literal([1, 2]) == F9._encode((1, 2))


def test_descriptor_identity():
    assert GF(2) is F2  # cached
    assert GF(4) == F4
    assert QQ != F2
    assert GF(9, modulus=(1, 0, 1)) == F9  # the default modulus is t^2+1
