"""CSV text of column chunks, formatted in numpy.

``chunk_bytes`` turns a chunk of equal-length columns into the bytes of its
CSV rows, each cell as Python writes it: a bool as 1 or 0, an int as
``str``, a float as ``repr``. Every CSV cell of the package becomes text
here; no other module of the package calls ``repr``.

A float's digits are the shortest decimal that reads back to the same
double and, of those, the closest to it (ties to even), as ``repr`` picks
them. They come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): a 126-bit power of ten from a table, three products
rounded to odd in 32-bit limbs of uint64, and two comparisons with the
rounding interval, vectorized over the column. ``repr``'s layout follows:
fixed notation for decimal exponents from -4 to 15, else ``d.ddde±XX``
with at least two exponent digits; ``.0`` on an integral value; ``-0.0``,
``inf``, ``-inf`` and ``nan``.

Each column writes its cells into a slot of fixed width in one uint8
matrix of the chunk's rows, left-aligned pieces at fixed places with zero
bytes between them, followed by its separator; removing the zero bytes
gives the rows. A float column of a chunk with at most one distinct bit
pattern per FEW_DISTINCT rows formats each pattern once and gathers its
rows. A chunk is formatted in one pass, its size bounding the memory.

All integer arithmetic on uint64 keeps its constants uint64: under numpy's
promotion rules, uint64 mixed with int64 gives float64.
"""

from __future__ import annotations

import functools

import numpy as np

FEW_DISTINCT = 2

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 10^0 .. 10^19
_E8, _E16 = _U64(10**8), _U64(10**16)
_ASCII = _U64(0x3030303030303030)  # '0' in every byte
_WORD = np.dtype("<u8")  # a cell's bytes, read as words from the lowest byte up
_FLOAT_WORDS = 4  # a float cell: sign and "0.000"; digits, point and "e±XXX"
_NO_POINT, _NO_SUFFIX = 24, 633  # the all-zero rows of the point and suffix tables
# the shift and mask of each 32-bit limb of g, high to low: g1 is g >> 63,
# and g0, its low 63 bits, has a 31-bit upper limb
_LIMBS = ((95, 0xFFFFFFFF), (63, 0xFFFFFFFF), (32, 0x7FFFFFFF), (0, 0xFFFFFFFF))


def _words(rows) -> np.ndarray:
    """Little-endian uint64 words of byte strings of a length a multiple of 8."""
    return np.frombuffer(b"".join(rows), _WORD).astype(np.uint64).reshape(len(rows), -1)


@functools.cache
def _tables():
    """Built on first use. Per index ``biased exponent + 2048 * asymmetric``,
    where asymmetric marks a power of two above the smallest normal (its
    lower neighbour is half as far): the decimal exponent k of the scaled
    value, the shift h, and the four 32-bit limbs of g = floor(10^-k 2^-r) + 1,
    g1 and g0 its upper and lower 63 bits. Then the byte masks of a cell:
    the first m of 24 bytes; a point at byte m; "0." and z zeros after a
    sign byte; and ``e±XX`` at bytes 2-6 of a word, for decimal exponents
    -324 to 308."""
    be = np.arange(2048, dtype=np.int64)
    q = np.where(be == 0, -1074, be - 1075)
    # floor(q log10 2) and floor(log10(3/4 2^q)), exact over this range
    k = np.concatenate([(q * 661_971_961_083) >> 41, (q * 661_971_961_083 - 274_743_187_321) >> 41])
    h = np.tile(q, 2) + ((-k * 913_124_641_741) >> 38) + 2  # q + floor(-k log2 10) + 2
    g = []
    for kk in range(k.min(), k.max() + 1):
        r = ((-kk * 913_124_641_741) >> 38) - 125  # 2^125 <= 10^-k 2^-r < 2^126
        g.append(1 + ((10**-kk >> r if r >= 0 else 10**-kk << -r) if kk <= 0 else (1 << -r) // 10**kk))
    limbs = [np.array([x >> shift & mask for x in g], np.uint64)[k - k.min()] for shift, mask in _LIMBS]
    prefix = _words([b"\xff" * m + bytes(24 - m) for m in range(25)]).T.copy()
    point = _words([bytes(m) + b"." + bytes(23 - m) for m in range(24)] + [bytes(24)]).T.copy()
    lead = _words([bytes(8)] + [b"\x000." + b"0" * z + bytes(5 - z) for z in range(4)])[:, 0]
    suffix = _words([bytes(2) + (b"e%+03d" % x).ljust(6, b"\0") for x in range(-324, 309)] + [bytes(8)])[:, 0]
    return k, h.astype(np.uint64), limbs, prefix, point, lead, suffix


def _mul(ah, al, bh, bl):
    """High and low 64 bits of the product of two uint64 given as 32-bit
    limbs, for ah below 2^31 and bh below 2^29, so that the cross terms sum
    without overflow."""
    low = al * bl
    cross = al * bh + ah * bl + (low >> _U64(32))
    return ah * bh + (cross >> _U64(32)), (cross << _U64(32)) | (low & _M32)


def _rop(limbs, cp):
    """(g1 2^63 + g0) cp / 2^127, rounded to odd, for cp below 2^61."""
    g1h, g1l, g0h, g0l = limbs
    ch, cl = cp >> _U64(32), cp & _M32
    x1, _ = _mul(g0h, g0l, ch, cl)
    y1, y0 = _mul(g1h, g1l, ch, cl)
    z = (y0 >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _digits(bits):
    """Shortest round-trip decimal of positive finite doubles given as
    uint64 bit patterns: digits d with no more than 17 digits and the
    exponent k of d 10^k, as Schubfach picks them: one digit shorter where
    a multiple of ten lies in the rounding interval, else the one of s and
    s + 1 inside it, or the closer. Java's Double.toString takes two digits
    where one would do (4.9E-324); repr does not (5e-324), so neither does
    this."""
    k_of, h_of, limbs_of, *_ = _tables()
    be = (bits >> 52).astype(np.intp)
    frac = bits & _U64((1 << 52) - 1)
    c = np.where(be > 0, frac | _U64(1 << 52), frac)
    index = be + 2048 * ((frac == 0) & (be > 1))
    k, h = k_of[index], h_of[index]
    limbs = [limb[index] for limb in limbs_of]
    odd = c & _U64(1)
    cb = c << _U64(2)
    vb = _rop(limbs, cb << h)
    vbl = _rop(limbs, (cb - _U64(2) + (frac == 0) * (be > 1)) << h) + odd  # lower bound, outside if c is odd
    vbr = _rop(limbs, (cb + _U64(2)) << h) - odd
    s = vb >> _U64(2)
    # a multiple of ten inside the interval: the shortest, one digit shorter
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= vbr
    d = np.where(upin, sp10, tp10)
    coarse = upin != wpin
    # else the one of s and s + 1 inside, or the closer one, ties to even
    t = s + _U64(1)
    uin = vbl <= s << _U64(2)
    win = t << _U64(2) <= vbr
    mid = s << _U64(2) | _U64(2)
    closer_s = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0))
    pick_s = np.where(uin != win, uin, closer_s)
    np.copyto(d, np.where(pick_s, s, t), where=~coarse)
    return d, k


def _bcd8(v):
    """The 8 decimal digits of each of `v` (below 10^8), one a byte, the
    first in the lowest byte: two 4-digit halves in 32-bit lanes, then
    2-digit quarters in 16-bit lanes, then digits, dividing by 100 and 10 as
    multiplies and shifts that no lane overflows."""
    high = v // _U64(10_000)
    v = high | ((v - high * _U64(10_000)) << _U64(32))
    high = ((v * _U64(10_486)) >> _U64(20)) & _U64(0x7F_0000_007F)
    v = high | ((v - high * _U64(100)) << _U64(16))
    high = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F_000F_000F_000F)
    return high | ((v - high * _U64(10)) << _U64(8))


def _float_words(col) -> np.ndarray:
    """``repr`` of each float of `col` as four words a row: a sign
    byte and the "0." and zeros before the digits of a value below 1 in
    fixed notation; then up to 18 bytes of digits and point, the exponent
    suffix at bytes 18-22, and a zero byte for the separator."""
    _, _, _, prefix, point, lead, suffix = _tables()
    bits = np.ascontiguousarray(col, dtype=np.float64).view(np.uint64)
    magnitude = bits & _M63
    special = (magnitude == 0) | (magnitude >= _U64(0x7FF << 52))  # zero, inf, nan
    d, k = _digits(np.where(special, _U64(0x3FF << 52), magnitude))  # 1.0 stands in
    length = np.searchsorted(_POW10, d, side="right")  # digits of d
    decpt = length + k  # the value is 0.DIGITS times 10^decpt
    d *= _POW10[17 - length]  # 17 digits, the first nonzero

    # the 17 digits at bytes 0-16 of three words: the first, then two times 8
    top = d // _E16
    d -= top * _E16
    high = d // _E8
    low = _bcd8(d - high * _E8)
    high = _bcd8(high)
    digits = [top | (high << _U64(8)), (high >> _U64(56)) | (low << _U64(8)), low >> _U64(56)]
    # significant digits: through the last nonzero byte, whose highest set
    # bit a float64 finds, since a byte of at most 9 rounds within its byte
    last = np.where(digits[2] != 0, 2, (digits[1] != 0).astype(np.intp))
    n = 8 * last + ((np.frexp(np.choose(last, digits).astype(np.float64))[1] - 1) >> 3) + 1

    fixed = (decpt > -4) & (decpt <= 16)
    small = fixed & (decpt <= 0)
    # the digits before the point, the point if any, and the digits after
    # it one byte further on
    before = np.where(fixed, np.where(small, n, decpt), 1)
    after = np.where(fixed & ~small, np.maximum(n, decpt + 1), n)
    dot = np.where(np.where(fixed, ~small, n > 1), before, _NO_POINT)
    out = np.empty((len(bits), _FLOAT_WORDS), np.uint64)
    out[:, 0] = lead[np.where(small, 1 - decpt, 0)] | (bits >> _U64(63)) * _U64(ord("-"))
    carry = _U64(0)
    for word, (digit, ascii) in enumerate(zip(digits, (_ASCII, _ASCII, _U64(ord("0"))))):
        digit += ascii
        head = prefix[word][before]
        tail = digit & prefix[word][after] & ~head
        out[:, 1 + word] = (digit & head) | point[word][dot] | (tail << _U64(8)) | carry
        carry = tail >> _U64(56)
    out[:, 3] |= suffix[np.where(fixed, _NO_SUFFIX, decpt + 323)]

    if special.any():
        rows = np.flatnonzero(special)
        nan = np.isnan(col[rows])
        out[rows, 0] &= _U64(0xFF) * ~nan  # nan has no sign
        out[rows, 2:] = 0
        words = _words([b"0.0" + bytes(5), b"inf" + bytes(5), b"nan" + bytes(5)])[:, 0]
        out[rows, 1] = words[np.isinf(col[rows]) + 2 * nan]
    return out


class _Column:
    """One column of a chunk: its cells' width in words and a method that
    writes the words of its rows."""

    def __init__(self, col):
        if isinstance(col, range):
            col = np.arange(col.start, col.stop, col.step, dtype=np.int64)
        self.col = col
        self.kind = col.dtype.kind
        self.patterns = None
        if self.kind == "b":
            self.words = 1
        elif self.kind in "iu":
            # int64's most negative value keeps its magnitude as a uint64
            self.magnitude = col.astype(np.uint64) if self.kind == "u" else np.abs(col.astype(np.int64)).astype(np.uint64)
            self.negative = self.kind == "i" and bool((col < 0).any())
            self.digits = int(np.searchsorted(_POW10, self.magnitude.max(initial=0), side="right")) or 1
            self.words = (self.negative + self.digits + 8) // 8  # and the separator
        else:
            self.words = _FLOAT_WORDS
            bits = np.ascontiguousarray(col, dtype=np.float64).view(np.uint64)  # -0.0 and 0.0 are two patterns
            patterns = np.sort(bits)
            new = np.concatenate(([True], patterns[1:] != patterns[:-1]))
            if np.count_nonzero(new) * FEW_DISTINCT <= len(col):
                patterns = patterns[new]
                self.patterns = _float_words(patterns.view(np.float64))
                self.inverse = np.searchsorted(patterns, bits)

    def write(self, slot) -> None:
        """Writes the rows into `slot`, a (rows, words) view of zeros."""
        if self.kind == "b":
            slot.view(np.uint8)[:, 0] = self.col.view(np.uint8) + np.uint8(ord("0"))
        elif self.kind in "iu":
            slot.view(np.uint8)[:, -1 - self.digits : -1] = _int_text(self.magnitude, self.digits)
            if self.negative:
                slot.view(np.uint8)[:, 0] = (self.col < 0) * np.uint8(ord("-"))
        elif self.patterns is not None:
            slot[:] = self.patterns[self.inverse]
        else:
            slot[:] = _float_words(self.col)


def _int_text(magnitude, digits: int) -> np.ndarray:
    """Each uint64 of `magnitude` as `digits` bytes, right-aligned, its
    leading zeros zero bytes."""
    _, _, _, prefix, *_ = _tables()
    text = np.zeros((len(magnitude), 3), np.uint64)
    rest = magnitude
    for word in range(2, 2 - (digits + 7) // 8, -1):
        high = rest // _E8
        text[:, word] = _bcd8(rest - high * _E8) + _ASCII
        rest = high
    text &= ~prefix.T[24 - np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)]
    return text.astype(_WORD).view(np.uint8)[:, 24 - digits :]


def chunk_bytes(columns) -> bytes:
    """The CSV lines of a chunk of equal-length columns (1-D arrays of
    bool, int or float, or a range), each ended by a newline."""
    prepared = [_Column(col) for col in columns]
    ends = np.cumsum([column.words for column in prepared])
    words = np.zeros((len(prepared[0].col), ends[-1]), _WORD)
    for column, end in zip(prepared, ends):
        column.write(words[:, end - column.words : end])
    cells = words.view(np.uint8)
    cells[:, 8 * ends - 1] = ord(",")
    cells[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")
