"""The packed kernel of conv.py against loops of one field operation per term.

The references below are the hand-written loops of TruncSeries1.__mul__ and
TruncSeries1.inverse before both went through conv, and per-term loops for
accumulate and for the sums of UniPoly and TruncSeries1.  Lengths reach past
SCHOOLBOOK_MAX and NEWTON_MIN, so the loops and the packed paths are both
compared with them; dot, the sum of products read back once, is compared
with the sum of conv's products and with the same schoolbook.  The fields
cover F_p with one-byte slots, F_257 and F_(2^31+11), whose slots reduce
one % p at a time, the extensions with at most 256 elements, whose codes
expand by bytes.translate, and GF(3^6), whose codes expand through a list.  reduce_slots is compared with one % p per
unpacked slot.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from algseries import GF, QQ, TruncSeries1, UniPoly
from algseries.algebra.conv import accumulate, conv, dot, reduce_slots, unpack
from algseries.algebra.fields import ExtensionField
from algseries.errors import ZeroConstantTerm

from conftest import F2, F3, F4, F5, F8, F9

BIG_PRIME = 2 ** 31 + 11
FIELDS = [F2, F3, F5, F4, F8, F9, GF(25), GF(3 ** 6), GF(257), GF(BIG_PRIME), QQ]
MAX_LEN = 300
MAX_LEN_Q = 60  # Q always takes the list path; long Fraction lists only add time

# Shrinking 300-term lists against the quadratic references takes many
# minutes, so a failure is reported with its first falsifying example.
no_shrink = settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])


def reference_conv(field, a, b, limit):
    """Schoolbook truncated product, one field operation per term."""
    out = [field.zero] * (limit + 1)
    for i, x in enumerate(a[:limit + 1]):
        if x:
            for j, y in enumerate(b[:limit + 1 - i]):
                if y:
                    out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def reference_inverse(field, a, order):
    """Inverse by the coefficient recurrence g_n = -a_0^-1 sum a_k g_(n-k)."""
    inv0 = field.inv(a[0])
    out = [inv0] + [field.zero] * order
    for n in range(1, order + 1):
        acc = field.zero
        for k in range(1, n + 1):
            if a[k] and out[n - k]:
                acc = field.add(acc, field.mul(a[k], out[n - k]))
        out[n] = field.neg(field.mul(inv0, acc))
    return out


def coefficients(field):
    if field.is_finite:
        return st.integers(0, field.order - 1)
    return st.one_of(st.integers(-50, 50),
                     st.fractions(min_value=-50, max_value=50, max_denominator=12))


@st.composite
def operand(draw, field, min_len=0):
    """A coefficient list, sometimes with a run of trailing zeros."""
    n = draw(st.integers(min_len, MAX_LEN if field.is_finite else MAX_LEN_Q))
    values = draw(st.lists(coefficients(field), min_size=n, max_size=n))
    return values + [field.zero] * draw(st.sampled_from([0, 0, 5, 40]))


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    a, b = draw(operand(field)), draw(operand(field))
    full = max(len(a) + len(b) - 2, 0)
    limit = draw(st.one_of(st.just(full), st.integers(0, full),
                           st.integers(full, full + 40)))
    return field, a, b, limit


@no_shrink
@given(products())
def test_conv_matches_schoolbook(case):
    field, a, b, limit = case
    out = conv(field, a, b, limit)
    assert len(out) == limit + 1
    assert out == reference_conv(field, a, b, limit)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_conv_long_dense_operands(field):
    # both operands well past the cut-off, every coefficient at its largest
    top = field.order - 1 if field.is_finite else Fraction(-7, 3)
    n = 96
    a = [top] * n
    b = [top] * (n + 3)
    for limit in (n // 2, 2 * n + 1, 3 * n):
        assert conv(field, a, b, limit) == reference_conv(field, a, b, limit)


def reference_dot(field, pairs, limit):
    """Schoolbook sum of products, one field operation per term."""
    out = [field.zero] * (limit + 1)
    for a, b in pairs:
        out = [field.add(x, y) for x, y in zip(out, reference_conv(field, a, b, limit))]
    return out


@st.composite
def dot_products(draw):
    """Up to six pairs of unequal lengths, some empty or all zero, and a
    limit below, at or past the longest product, or no limit."""
    field = draw(st.sampled_from(FIELDS))
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(operand(field)), draw(operand(field))
        kind = draw(st.sampled_from(["dense", "dense", "empty", "zero"]))
        if kind == "empty":
            a = []
        elif kind == "zero":
            b = [field.zero] * len(b)
        pairs.append((a, b))
    full = max((len(a) + len(b) - 2 for a, b in pairs if a and b), default=0)
    limit = draw(st.one_of(st.none(), st.just(full), st.integers(0, full),
                           st.integers(full, full + 40)))
    return field, pairs, limit


@no_shrink
@given(dot_products())
def test_dot_matches_sum_of_products(case):
    field, pairs, limit = case
    out = dot(field, pairs, limit)
    n = max((len(a) + len(b) - 1 for a, b in pairs if a and b), default=0)
    top = n - 1 if limit is None else limit
    if limit is None:
        assert len(out) == n
    else:
        assert len(out) == limit + 1
    full = [field.zero] * (top + 1)
    for a, b in pairs:
        full = [field.add(x, y) for x, y in zip(full, conv(field, a, b, top))]
    assert out == full == reference_dot(field, pairs, top)


@pytest.mark.parametrize("field", [f for f in FIELDS if f.is_finite], ids=repr)
def test_dot_slot_width_counts_every_pair(field):
    # 120 pairs of 50 terms, every coefficient the element whose t-digits
    # are all p - 1: each cell of the packed sum holds 120 * 50 products
    # of the largest digits, and slots wide enough for the 50 of one pair
    # are narrower, so they would carry into the next slot
    pairs_count, n = 120, 50
    assert field.slots.width(n) < field.slots.width(pairs_count * n)
    top = field.order - 1
    pairs = [([top] * n, [top] * n)] * pairs_count
    times = field.from_int(pairs_count)
    for limit in (None, 30, 2 * n - 2):
        one = reference_conv(field, [top] * n, [top] * n,
                             2 * n - 2 if limit is None else limit)
        assert dot(field, pairs, limit) == [field.mul(times, c) for c in one]


@st.composite
def invertible_series(draw):
    field = draw(st.sampled_from(FIELDS))
    coeffs = draw(operand(field, min_len=1))
    if not coeffs[0]:
        coeffs[0] = field.one
    order = draw(st.integers(0, MAX_LEN if field.is_finite else MAX_LEN_Q))
    return TruncSeries1(field, coeffs, order)


@no_shrink
@given(invertible_series())
def test_newton_inverse(a):
    field, order = a.field, a.order
    inv = a.inverse()
    assert inv.order == order
    assert (a * inv).coeffs == (field.one,) + (field.zero,) * order
    assert list(inv.coeffs) == reference_inverse(field, a.coeffs, order)


@given(st.sampled_from(FIELDS), st.integers(0, 40))
def test_inverse_needs_unit_constant_term(field, order):
    with pytest.raises(ZeroConstantTerm):
        TruncSeries1(field, [field.zero, field.one], order).inverse()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 37, 257, 10007])
@pytest.mark.parametrize("width", range(1, 10))
def test_reduce_slots_matches_per_slot_mod(p, width):
    # byte tables when p * width <= 256, one % p per slot otherwise; random
    # bytes reach every slot value, including all bytes 0 and all 255
    rng = random.Random(p * 100 + width)
    for count in (0, 1, 2, 37, 300):
        raw = bytes(rng.randrange(256) for _ in range(count * width))
        for data in (raw, b"\xff" * len(raw), bytes(len(raw))):
            want = [v % p for v in unpack(data, width)]
            assert list(reduce_slots(data, width, p)) == want


def reference_accumulate(field, out, rows):
    out = list(out)
    for i, x, row in rows:
        for j, v in enumerate(row):
            out[i + j] = field.add(out[i + j], field.mul(x, v))
    return out


@st.composite
def row_sums(draw):
    field = draw(st.sampled_from(FIELDS))
    out = draw(operand(field))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(out)))
        row = draw(operand(field))[:len(out) - i]
        rows.append((i, draw(coefficients(field)), row))
    return field, out, rows


@no_shrink
@given(row_sums())
def test_accumulate_matches_per_term(case):
    field, out, rows = case
    want = reference_accumulate(field, out, rows)
    assert accumulate(field, list(out), rows) == want


@pytest.mark.parametrize("rows", [9, 40])
def test_short_first_sum_of_a_fresh_field(rows):
    # the first packed sum of a field builds its masks; a first sum of one
    # cell must build them too (a field object not yet used by any test)
    field = ExtensionField(3, 2, (1, 0, 1))
    case = [(0, 8, [7])] * rows
    assert accumulate(field, [5], case) == reference_accumulate(field, [5], case)


@no_shrink
@given(st.sampled_from(FIELDS), st.data())
def test_sums_match_per_coefficient(field, data):
    a, b = data.draw(operand(field)), data.draw(operand(field))
    c = data.draw(coefficients(field))
    n = max(len(a), len(b))
    pa, pb = a + [field.zero] * (n - len(a)), b + [field.zero] * (n - len(b))
    add = [field.add(x, y) for x, y in zip(pa, pb)]
    sub = [field.sub(x, y) for x, y in zip(pa, pb)]
    ua, ub = UniPoly(field, a), UniPoly(field, b)
    assert ua + ub == UniPoly(field, add)
    assert ua - ub == UniPoly(field, sub)
    assert -ua == UniPoly(field, [field.neg(x) for x in a])
    assert ua.scale(c) == UniPoly(field, [field.mul(c, x) for x in a])
    if a and b:
        order = min(len(a), len(b)) - 1
        sa, sb = TruncSeries1(field, a), TruncSeries1(field, b)
        assert (sa + sb).coeffs == tuple(add[:order + 1])
        assert (sa - sb).coeffs == tuple(sub[:order + 1])
        assert (-sa).coeffs == tuple(field.neg(x) for x in a)
