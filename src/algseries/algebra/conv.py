"""Dense truncated convolution of raw coefficient lists over a field.

conv(field, a, b, limit) returns c_0..c_limit of (sum a_i X^i)(sum b_j X^j)
as raw values of ``field``.  Two paths, chosen by operand length and field
kind only:

  * schoolbook -- over Q, and when either operand (trailing zeros dropped)
    has fewer than KRONECKER_MIN terms.  Its row step, accumulate, adds
    scaled rows into a list; over F_p it sums plain int products and
    reduces mod p once per coefficient, over F_{p^k} it runs on the field's
    lookup tables.  series_expand_ratio runs on the same step over Q.
  * Kronecker substitution -- over F_p and F_{p^k} otherwise.  Each operand
    is packed into one Python int, one slot per coefficient (per t-digit of
    a coefficient over F_{p^k}), the two ints are multiplied once by
    CPython's subquadratic big-int product, and the slots are read back and
    reduced by reduce_slots.  A slot is wide enough for the largest
    coefficient of the integer product, so no carry crosses slots.

Over F_{p^k} each X-coefficient takes 2k-1 slots, one per power t^0..t^(2k-2)
of its t-polynomial product; the low k reduced digits form an element code
directly and the high k-1 digits h are folded back with a table of
t^k * h mod m(t).  The per-field tables are built on first use.

pack_bytes, unpack and reduce_slots are the slot format and its reduction
mod p; series_expand_ratio packs anti-diagonals with them over F_q.
"""

import functools
import sys
from array import array

KRONECKER_MIN = 24  # shorter operands take the schoolbook loop

# an unsigned array typecode for each slot size in bytes
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def conv(field, a, b, limit):
    """c_0..c_limit of the product of the coefficient sequences a and b."""
    a = _trim(a[:limit + 1])
    b = _trim(b[:limit + 1])
    if not a or not b:
        return [field.zero] * (limit + 1)
    if field.kind == "rationals" or min(len(a), len(b)) < KRONECKER_MIN:
        out = _schoolbook(field, a, b, limit)
    else:
        out = _kronecker(field, a, b, limit)
    return out + [field.zero] * (limit + 1 - len(out))


def _trim(values):
    n = len(values)
    while n and not values[n - 1]:
        n -= 1
    return values[:n]


def _schoolbook(field, a, b, limit):
    size = min(len(a) + len(b) - 1, limit + 1)
    return accumulate(field, [field.zero] * size,
                      [(i, x, b[:size - i]) for i, x in enumerate(a) if x])


def accumulate(field, out, rows):
    """out[i:i+len(row)] += x*row for each (i, x, row); returns the result.

    ``out`` is updated in place over Q and F_{p^k}.  Over F_p the sums stay
    plain ints and are reduced mod p once, into a new list, at the end, so
    the entries of ``out`` and of every row must be residues.
    """
    if field.kind == "extension":
        q, add, mul = field.order, field._add, field._mul
        for i, x, row in rows:
            xq = x * q
            end = i + len(row)
            out[i:end] = [add[u * q + mul[xq + v]]
                          for u, v in zip(out[i:end], row)]
        return out
    for i, x, row in rows:
        end = i + len(row)
        out[i:end] = [u + x * v for u, v in zip(out[i:end], row)]
    if field.kind == "prime":
        p = field.char
        return [c % p for c in out]
    return out


def _kronecker(field, a, b, limit):
    p = field.char
    n = min(len(a), len(b))
    full = len(a) + len(b) - 1
    count = min(full, limit + 1)
    if field.kind == "prime":
        per, bound = 1, n * (p - 1) ** 2
    else:
        k = field.degree
        per, bound = 2 * k - 1, n * k * (p - 1) ** 2
        slots = _slot_table(field)
        a = [d for c in a for d in slots[c]]
        b = [d for c in b for d in slots[c]]
    width = (bound.bit_length() + 7) // 8
    product = _pack(a, width) * _pack(b, width)
    raw = product.to_bytes(full * per * width, "little")[:count * per * width]
    digits = reduce_slots(raw, width, p)
    if field.kind == "prime":
        return list(digits)
    return _fold(field, digits)


def _pack(values, width):
    """One int holding ``values`` in little-endian slots of ``width`` bytes."""
    return int.from_bytes(pack_bytes(values, width), "little")


def pack_bytes(values, width):
    """The little-endian bytes of ``values``, ``width`` bytes each.

    ``values`` is a list of ints, or bytes with one value per byte.
    """
    if isinstance(values, bytes):
        if width == 1:
            return values
        wide = bytearray(len(values) * width)
        wide[::width] = values
        return wide
    if width > 8:
        return b"".join([v.to_bytes(width, "little") for v in values])
    size = 1 << (width - 1).bit_length()
    wide = array(_TYPECODES[size], values)
    if sys.byteorder == "big":
        wide.byteswap()
    raw = wide.tobytes()
    if size != width:
        narrow = bytearray(len(values) * width)
        for j in range(width):
            narrow[j::width] = raw[j::size]
        raw = narrow
    return raw


def unpack(raw, width):
    """The slot values of little-endian ``raw`` bytes, ``width`` bytes each."""
    if width > 8:
        return [int.from_bytes(raw[i:i + width], "little")
                for i in range(0, len(raw), width)]
    size = 1 << (width - 1).bit_length()
    if size != width:
        wide = bytearray(len(raw) // width * size)
        for j in range(width):
            wide[j::size] = raw[j::width]
        raw = wide
    out = array(_TYPECODES[size])
    out.frombytes(raw)
    if sys.byteorder == "big":
        out.byteswap()
    return out


def reduce_slots(raw, width, p):
    """The slots of little-endian ``raw`` bytes, ``width`` bytes each, mod p.

    Equal to [v % p for v in unpack(raw, width)], which is what it runs
    when p * width > 256; otherwise it returns the residues as bytes, one
    per slot, and no Python loop runs per slot.  A slot is sum b_e * 256^e
    over its bytes b_e, so it is congruent to the sum of its bytes mapped by
    b -> b * 256^e mod p.  One bytes.translate per byte plane e does that
    mapping; the width mapped planes, each below p, are added as ints with
    no carry between bytes (each sum is at most width * (p - 1) < 256), and
    one more translate reduces the sums.
    """
    if p * width > 256:
        return [v % p for v in unpack(raw, width)]
    tables = _plane_tables(p, width)
    if width == 1:
        return raw.translate(tables[0])
    total = sum(int.from_bytes(raw[e::width].translate(table), "little")
                for e, table in enumerate(tables))
    return total.to_bytes(len(raw) // width, "little").translate(tables[0])


@functools.lru_cache(maxsize=None)
def _plane_tables(p, width):
    """For each byte plane e < width, the translate table b -> b*256^e mod p."""
    return [bytes(b * 256 ** e % p for b in range(256)) for e in range(width)]


@functools.lru_cache(maxsize=None)
def _slot_table(field):
    """Element code -> its k t-digits followed by k-1 zero slots."""
    pad = (0,) * (field.degree - 1)
    return [field.coeff_vector(c) + pad for c in field.elements()]


@functools.lru_cache(maxsize=None)
def _fold_table(field):
    """Code of h (degree < k-1) -> code of t^k * h mod m(t)."""
    p, k = field.char, field.degree
    tk = field.pow(p, k)  # the code p is t
    return [field.mul(tk, h) for h in range(p ** (k - 1))]


def _fold(field, digits):
    """Element codes from 2k-1 reduced t-digits per coefficient."""
    p, k, q = field.char, field.degree, field.order
    per = 2 * k - 1
    low = digits[k - 1::per]
    for i in range(k - 2, -1, -1):
        low = [u * p + v for u, v in zip(low, digits[i::per])]
    high = digits[per - 1::per]
    for i in range(per - 2, k - 1, -1):
        high = [u * p + v for u, v in zip(high, digits[i::per])]
    add, fold = field._add, _fold_table(field)
    return [add[x * q + fold[h]] for x, h in zip(low, high)]
