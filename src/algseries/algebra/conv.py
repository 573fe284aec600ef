"""Dense arithmetic on raw coefficient lists: the one kernel of the package.

Coefficient lists hold raw values of a field, constant term first.

  * conv(field, a, b, limit, add) -- c_0..c_limit of add + a*b;
  * dot(field, pairs, limit) -- c_0..c_limit of sum a_i*b_i, read back
    once: its slots are wide enough for all products of all pairs,
    sum min(len(a_i), len(b_i)) per cell (SlotFormat.width), where one
    pair's min(len(a), len(b)) would let a sum carry into the next slot;
  * divide(field, a, b, order) and inverse(field, a, order) -- series
    quotients and inverses, by Newton iteration on conv (newton_step);
  * accumulate(field, out, rows) -- out + sum of x * X^i * row;
  * combine(field, a, x, b) -- a + x*b, entry by entry;
  * scale(field, c, values) -- c * values.

Over Q they loop, one field operation per term.  Over F_p and F_{p^k}
every operand is packed into one Python int (Kronecker substitution),
and no Python loop runs per coefficient, but for the expansion and
scaling of the elements of a field with more than 256 of them, and for
reduce_slots when p * width > 256.  Three short cases loop instead,
because on the calls of the automata-Fq and series-Fq benchmarks the loop
was measured faster than the packing (README.md, "Design notes", has the
figures): row sums of at most SCHOOLBOOK_MAX terms, products and sums of
products of at most SCHOOLBOOK_MAX term pairs in all (through the same
loop of accumulate), and quotients of fewer than NEWTON_MIN terms, which
also seed the Newton iteration of inverse.

SlotFormat is the packing: a coefficient takes one slot of ``width``
bytes over F_p and 2k-1 slots over F_{p^k}, its k t-digits and then k-1
zero slots for the digits of t^k..t^(2k-2) that products make.  The
product of two packed ints, by CPython's subquadratic big-int product,
is the packed product of the lists, and a sum of packed ints shifted by
whole cells is the sum of the lists.  SlotFormat.width makes every slot
wide enough for its sum, so no carry crosses slots.  A result is read
back in three steps, each on whole ints or bytes: the high t-digits are
folded into the low ones, every slot is taken mod p (reduce_slots), and
over F_{p^k} each cell's k digits become its element code
(SlotFormat.digits and SlotFormat.codes).  Codes of a field with at
most 256 elements expand to digit slots by one bytes.translate per
t-digit, and scale is one translate by the table of x -> c*x.
series.anti_diagonals packs anti-diagonals with the same format.
"""

import functools
import sys
from array import array
from itertools import compress

NEWTON_MIN = 8  # quotients of fewer terms come from a recurrence
SCHOOLBOOK_MAX = 8  # F_q products of at most this many term pairs loop

# an unsigned array typecode for each slot size in bytes
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def conv(field, a, b, limit, add=()):
    """c_0..c_limit of add + a*b for coefficient sequences a, b and add."""
    n = limit + 1
    a, b, add = a[:n], b[:n], add[:n]
    if field.kind == "rationals":
        a, b = trim(a), trim(b)
    count = max(len(add), min(len(a) + len(b) - 1, n) if a and b else 0)
    if field.kind == "rationals" or len(a) * len(b) <= SCHOOLBOOK_MAX:
        # over F_q the rows hold at most len(a) * len(b) terms, so
        # accumulate loops on them
        out = accumulate(field, list(add) + [field.zero] * (count - len(add)),
                         [(i, x, b[:count - i]) for i, x in enumerate(a) if x])
    else:
        out = _packed_sum(field, [(a, b)], min(len(a), len(b)), count, add)
    return out + [field.zero] * (n - count)


def dot(field, pairs, limit=None):
    """c_0..c_limit of sum a_i*b_i over the pairs (a_i, b_i) of coefficient
    sequences; ``limit`` defaults to the degree of the longest product.

    It loops as conv does over Q and up to SCHOOLBOOK_MAX term pairs in
    all; otherwise the products are summed packed and read back once, in
    slots wide enough for sum min(len(a_i), len(b_i)) products per cell.
    """
    if limit is None:
        limit = max((len(a) + len(b) - 2 for a, b in pairs if a and b), default=-1)
    n = limit + 1
    pairs = [(a[:n], b[:n]) for a, b in pairs]
    if field.kind == "rationals":
        pairs = [(trim(a), trim(b)) for a, b in pairs]
    pairs = [(a, b) for a, b in pairs if a and b]
    count = min(max((len(a) + len(b) - 1 for a, b in pairs), default=0), n)
    if field.kind == "rationals" or \
            sum(len(a) * len(b) for a, b in pairs) <= SCHOOLBOOK_MAX:
        out = accumulate(field, [field.zero] * count,
                         [(i, x, b[:count - i]) for a, b in pairs
                          for i, x in enumerate(a) if x])
    else:
        out = _packed_sum(field, pairs, sum(min(len(a), len(b)) for a, b in pairs),
                          count)
    return out + [field.zero] * (n - count)


def _packed_sum(field, pairs, terms, count, add=()):
    """c_0..c_(count-1) of add + sum a*b over ``pairs``, packed in slots
    wide enough for ``terms`` products per cell and read back once."""
    fmt = field.slots
    width = fmt.width(terms)
    total = fmt.pack(add, width) if add else 0
    for a, b in pairs:
        total += fmt.pack(a, width) * fmt.pack(b, width)
    return fmt.codes(fmt.digits(total, count, width), count)


def divide(field, a, b, order):
    """c_0..c_order of (sum a_i X^i) / (sum b_j X^j); b_0 must be nonzero.

    Below order NEWTON_MIN the quotient comes from the recurrence
    c_n = (a_n - sum_{j >= 1} b_j c_{n-j}) / b_0, one field operation per
    term; from there on it is a times inverse(b).
    """
    b = trim(b[:order + 1])
    if len(b) == 1:
        return scale(field, field.inv(b[0]), a[:order + 1]) + \
            [field.zero] * (order + 1 - len(a))
    if order >= NEWTON_MIN:
        return conv(field, a, inverse(field, b, order), order)
    inv, mul, sub = field.inv(b[0]), field.mul, field.sub
    out = []
    for n in range(order + 1):
        c = a[n] if n < len(a) else field.zero
        for j in range(1, min(n, len(b) - 1) + 1):
            c = sub(c, mul(b[j], out[n - j]))
        out.append(mul(c, inv))
    return out


def inverse(field, a, order):
    """g_0..g_order of 1/(sum a_i X^i); a_0 must be nonzero.

    The first NEWTON_MIN terms come from divide's recurrence, the rest
    from the Newton iteration g <- g - g*(a*g - 1), which doubles the
    number of correct terms per step; so the cost is a constant times one
    product at the full order.
    """
    g = divide(field, [field.one], a, min(order, NEWTON_MIN - 1))
    while len(g) <= order:
        g = newton_step(field, a, g, min(2 * len(g), order + 1))
    return g


def newton_step(field, a, g, prec):
    """g_0..g_(prec-1) of 1/(sum a_i X^i) from its first m = len(g) terms.

    One step g <- g - g*(a*g - 1) of the Newton iteration; needs
    m < prec <= 2m.  a*g = 1 + X^m * r mod X^prec, so g*(a*g - 1) is
    X^m * g*r, and only the terms of g*r below prec - m are formed.
    """
    m = len(g)
    r = conv(field, a, g, prec - 1)[m:]
    return g + scale(field, field.neg(field.one), conv(field, g, r, prec - 1 - m))


def accumulate(field, out, rows):
    """out[i:i+len(row)] += x*row for each (i, x, row); returns the result.

    Every row must fit in ``out``.  Over Q ``out`` is updated in place;
    over F_q the result is a new list, and the entries of ``out`` and of
    every row must be residues or codes.
    """
    if field.kind == "rationals":
        for i, x, row in rows:
            end = i + len(row)
            out[i:end] = [u + x * v for u, v in zip(out[i:end], row)]
        return out
    if sum(len(row) for _, _, row in rows) <= SCHOOLBOOK_MAX:
        add, mul = field.add, field.mul
        out = list(out)
        for i, x, row in rows:
            for j, v in enumerate(row, i):
                out[j] = add(out[j], mul(x, v))
        return out
    fmt = field.slots
    width = fmt.width(len(rows))
    bits = 8 * width * fmt.per
    total = fmt.pack(out, width)
    for i, x, row in rows:
        total += fmt.scalar(x, width) * fmt.pack(row, width) << i * bits
    return fmt.codes(fmt.digits(total, len(out), width), len(out))


def combine(field, a, x, b):
    """a + x*b entry by entry, as long as the longer of a and b."""
    out = list(a) + [field.zero] * (len(b) - len(a))
    return accumulate(field, out, [(0, x, b)])


def scale(field, c, values):
    """c * values entry by entry."""
    if field.kind == "rationals" or field.order > 256:
        return [field.mul(c, v) for v in values]
    return list(bytes(values).translate(field.slots.scale_table(c)))


def trim(values):
    """``values`` without its trailing zeros."""
    for n in compress(range(len(values), 0, -1), reversed(values)):
        return values[:n]
    return values[:0]


class SlotFormat:
    """The packing of coefficient lists over one finite field; a field
    builds its own on first use, as ``field.slots``.

    ``per`` slots make the cell of one coefficient: 1 over F_p, 2k-1 over
    F_{p^k}.
    """

    def __init__(self, field):
        p = field.char
        k = field.degree
        self.field, self.p, self.k, self.per = field, p, k, 2 * k - 1
        self._scalars = {}  # width -> [packed int of each code]
        self._masks = {}  # width -> ones in slot 0 of enough cells
        self._scale = {}  # c -> translate table of x -> c*x
        if k > 1:
            q = field.order
            self.tk = field.pow(p, k)  # the code p is t
            self.code_size = 1 if q <= 256 else 2  # bytes per code in codes()
            self.encoder = sum(p ** e << 8 * self.code_size * (k - 1 - e)
                               for e in range(k))
            vectors = [field.coeff_vector(c) for c in field.elements()]
            if q <= 256:
                self.tables = [bytes(v[e] for v in vectors) + bytes(256 - q)
                               for e in range(k)]
            else:
                self.slot_table = [v + (0,) * (k - 1) for v in vectors]
        self.slope, self.base = self._bound()

    def _bound(self):
        """(slope, base): slope*terms + base bounds every slot of a sum of
        one list and ``terms`` products of lists per coefficient.

        Before the fold, slot e of a cell holds at most terms * (p-1)^2 *
        min(e+1, 2k-1-e) from the products, each of two t-polynomials of
        degree < k, and p - 1 from the list (e < k).  The fold adds r_d
        times each high slot, highest first, to slot e-k+d, for
        t^k = sum r_d t^d mod m(t).  README.md ("Diagonals") has the proof.
        """
        p, k, per = self.p, self.k, self.per
        top = [((p - 1) ** 2 * min(e + 1, per - e), (p - 1) * (e < k))
               for e in range(per)]
        fold = self.field.coeff_vector(self.tk) if k > 1 else ()
        for e in range(per - 1, k - 1, -1):
            for d, r in enumerate(fold):
                slope, base = top[e - k + d]
                top[e - k + d] = (slope + r * top[e][0], base + r * top[e][1])
        return max(s for s, _ in top), max(b for _, b in top)

    def width(self, terms):
        """Bytes per slot for one list plus ``terms`` products per cell."""
        return ((terms * self.slope + self.base).bit_length() + 7) // 8

    def pack(self, values, width):
        """One int holding the slots of the coefficients ``values``."""
        if self.k == 1:
            raw = bytes(values) if width == 1 else pack_bytes(values, width)
        elif self.field.order > 256:
            slots = self.slot_table
            raw = pack_bytes([d for c in values for d in slots[c]], width)
        else:
            codes = bytes(values)
            cell = self.per * width
            raw = bytearray(len(codes) * cell)
            for e, table in enumerate(self.tables):
                raw[e * width::cell] = codes.translate(table)
        return int.from_bytes(raw, "little")

    def scalar(self, x, width):
        """The packed int of the one coefficient x."""
        if self.k == 1:
            return x
        if width not in self._scalars:
            bits = 8 * width
            self._scalars[width] = [
                sum(d << bits * e for e, d in enumerate(self.field.coeff_vector(c)))
                for c in self.field.elements()]
        return self._scalars[width][x]

    def digits(self, total, count, width):
        """The slots of the first ``count`` cells of a packed int, mod p.

        Over F_{p^k} the slots of t^k..t^(2k-2) are folded first, highest
        first: slot e times sum r_d t^d - t^k, added back e - k slots up,
        clears slot e and adds its digits mod m(t) to the slots below.
        Returns reduce_slots' bytes or list, ``per`` digits per cell.
        """
        size = count * self.per * width
        if total.bit_length() > 8 * size:
            total &= (1 << 8 * size) - 1
        k = self.k
        if k > 1:
            bits = 8 * width
            mask = self._mask(width, count)
            fold = self.scalar(self.tk, width) - (1 << k * bits)
            for e in range(self.per - 1, k - 1, -1):
                total += ((total >> e * bits) & mask) * fold << (e - k) * bits
        return reduce_slots(total.to_bytes(size, "little"), width, self.p)

    def _mask(self, width, count):
        """Ones in slot 0 of at least ``count`` cells; an & with it keeps
        slot 0 of every cell of a shorter int."""
        mask = self._masks.get(width, 0)
        if mask.bit_length() <= 8 * width * self.per * (count - 1):
            cell = b"\xff" * width + bytes((self.per - 1) * width)
            mask = self._masks[width] = int.from_bytes(cell * 2 * count, "little")
        return mask

    def codes(self, digits, count):
        """The coefficients of ``count`` cells of reduced digits.

        Over F_{p^k} the digits d_e of a cell, times sum p^e Z^(k-1-e) in
        slots of code_size bytes, leave its code sum d_e p^e in slot k-1;
        every other slot of the product is a partial sum, also below q.
        """
        if self.k == 1:
            return list(digits)
        size = self.code_size
        total = int.from_bytes(pack_bytes(digits, size), "little") * self.encoder
        raw = total.to_bytes(count * self.per * size, "little")
        return list(unpack(raw, size)[self.k - 1::self.per])

    def scale_table(self, c):
        """The translate table x -> c*x; the field has at most 256 elements."""
        if c not in self._scale:
            field = self.field
            self._scale[c] = (bytes(field.mul(c, x) for x in field.elements())
                              + bytes(256 - field.order))
        return self._scale[c]


# -- bytes of slots ---------------------------------------------------------

def pack_bytes(values, width):
    """The little-endian bytes of ``values``, ``width`` bytes each.

    ``values`` is a sequence of ints, or bytes with one value per byte.
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
