"""conv and the Newton series inverse against the schoolbook loops they replace.

The references below are the hand-written loops of TruncSeries1.__mul__ and
TruncSeries1.inverse before both went through conv; lengths reach past
KRONECKER_MIN so both paths of conv are compared with them.  reduce_slots is
compared with one % p per unpacked slot.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from algseries import GF, QQ, TruncSeries1
from algseries.algebra.conv import KRONECKER_MIN, conv, reduce_slots, unpack
from algseries.errors import ZeroConstantTerm

from conftest import F2, F3, F4, F5, F8, F9

BIG_PRIME = 2 ** 31 + 11
FIELDS = [F2, F3, F5, F4, F8, F9, GF(25), GF(BIG_PRIME), QQ]
MAX_LEN = 300
MAX_LEN_Q = 60  # Q always takes the schoolbook path; long Fraction lists only add time

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
    n = 4 * KRONECKER_MIN
    a = [top] * n
    b = [top] * (n + 3)
    for limit in (n // 2, 2 * n + 1, 3 * n):
        assert conv(field, a, b, limit) == reference_conv(field, a, b, limit)


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
