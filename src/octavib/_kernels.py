"""The array kernels of ``format_float``'s grammar, loaded on first use.

``format_values`` formats a whole array of doubles exactly as
``format_float`` does, and ``parse_values`` reads cells of that grammar
back exactly, refusing any other text.  ``_serialize.format_rows`` and
``modes.read_trajectory`` import this module when they first need it, so a
process that formats only short JSON documents never compiles it.
"""

import functools

import numpy as np

from . import _serialize
from ._serialize import RowWidthError

# -- the array kernel ---------------------------------------------------------
#
# For a finite non-integral value x with decade E = floor(log10|x|), %.17g
# prints the 17 digits D = round(|x| 10^(16-E)) in [10^16, 10^17).  D comes
# from Dekker's exact split product of the mantissa of x with a two-double
# 10^(16-E), so |x| 10^(16-E) is known to within 2^-45; a value is certified
# when its fraction lies further than 2^-40 from 1/2 (ties and near-ties take
# the scalar rule).  The %g layout is then built as bytes, 4096 values at a
# time.

_BLOCK = 4096
_WIDTH = 24  # "-1.2345678901234567e-308"
_SPLIT = 134217729.0  # 2**27 + 1
# 16 - E over every finite double's decade E in [-324, 308], and one beyond;
# below -293 the scales of a parsed cell's digits down to the least normal
# double
_K_MIN, _K_MAX = -340, 341


def _round_scaled(num, den, shift):
    """round(num * 2**shift / den) for positive integers."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return (2 * num + den) // (2 * den)


@functools.cache
def _pow10():
    """10^k for k in [_K_MIN, _K_MAX] as (hi + lo) * 2^b, hi in [1, 2] and
    |lo| <= 2^-53, built on first use: the rows hi, hi's two halves for the
    product and lo, with a NaN column either end for a scale off the table,
    and the binary exponents b, padded alike."""
    his, los, exps = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        shift = 106 - (num.bit_length() - den.bit_length())
        m = _round_scaled(num, den, shift)
        if m < 1 << 106:
            shift += 1
            m = _round_scaled(num, den, shift)
        hi = (m + (1 << 53)) >> 54  # m = hi * 2^54 + rest, |rest| <= 2^53
        his.append(hi)
        los.append(m - (hi << 54))
        exps.append(106 - shift)
    hi = np.array(his, dtype=float) * 2.0**-52
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    table = np.full((4, len(hi) + 2), np.nan)
    table[:, 1:-1] = hi, hi_hi, hi - hi_hi, np.array(los, dtype=float) * 2.0**-106
    return table, np.pad(np.array(exps, dtype=np.intc), 1)


def _word(text):
    return np.frombuffer(text.encode(), dtype=np.uint32)[0]


def _windows(buf, width):
    """Every run of ``width`` consecutive bytes of a C-contiguous byte
    array, as one void record each (record i starts at byte i)."""
    return np.ndarray((buf.size - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))


@functools.cache
def _glyphs():
    """The layout's lookup tables, built on first use: the four ASCII digits
    of each c < 10^4 as one uint32 and its trailing zeros, "000d" per digit,
    the exponent suffix "e+dd" or "e-ddd" per exponent in [-400, 400], and
    record p of 0xff bytes before column p."""
    c = np.arange(10000)
    quads = (c[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    trailing = sum((c % p == 0).astype(np.intp) for p in (10, 100, 1000, 10000))
    leads = np.array([_word(f"000{d}") for d in range(10)])
    x = np.arange(-400, 401)
    ax = np.abs(x)
    three = ax >= 100
    suffix = np.zeros((len(x), 5), dtype=np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    suffix[:, 2] = 48 + np.where(three, ax // 100, ax // 10 % 10)
    suffix[:, 3] = 48 + np.where(three, ax // 10 % 10, ax % 10)
    suffix[:, 4] = np.where(three, 48 + ax % 10, 0)
    before = np.where(np.arange(_WIDTH + 1)[:, None] > np.arange(_WIDTH), 255, 0)
    return (
        quads.view(np.uint32).ravel(),
        trailing,
        leads,
        suffix.view("V5").ravel(),
        before.astype(np.uint8).view(f"V{_WIDTH}").ravel(),
    )


def _times_pow10(f, k, e=None):
    """(s, r, b) with f 10^k = (s + r) 2^b, s + r a double-double, from
    Dekker's split product: k a column of ``_pow10()`` and ``e``, when
    given, the exact low part of the multiplicand f + e.  A column off the
    table gives NaN."""
    table, exps = _pow10()
    h, h_hi, h_lo, lo = table.take(k, axis=1, mode="clip")
    # f = f_hi + f_lo in halves of 26 and 27 bits
    c = f * _SPLIT
    f_hi = c - (c - f)
    f_lo = f - f_hi
    p = f * h
    t = f_hi * h_hi
    t -= p
    t += f_hi * h_lo
    t += f_lo * h_hi
    t += f_lo * h_lo
    t += f * lo
    if e is not None:
        t += e * h
    s = p + t
    r = t - (s - p)
    return s, r, exps.take(k, mode="clip")


def _scaled(f, e, E):
    """|x| 10^(16-E) as hi + lo for |x| = f 2^e, f in [0.5, 1)."""
    s, r, b = _times_pow10(f, 16 - E - (_K_MIN - 1))
    b += e
    return np.ldexp(s, b), np.ldexp(r, b)


def _digits(a):
    """(D, X, certified) for positive finite values: the 17 digits and the
    decimal exponent of %.17g."""
    f, e = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.intc)
    hi, lo = _scaled(f, e, E)
    # log10 may land one decade off next to a power of ten: one more pass
    # with E - 1 or E + 1, and a value still out of range is not certified
    below = (hi - 1e16) + lo < 0
    above = (hi - 1e17) + lo >= 0
    off = np.flatnonzero(below | above)
    if len(off):
        E[off] += above[off].astype(np.intc) - below[off]
        hi[off], lo[off] = _scaled(f[off], e[off], E[off])
        below[off] = (hi[off] - 1e16) + lo[off] < 0
        above[off] = (hi[off] - 1e17) + lo[off] >= 0
    # hi >= 2^53 is an integer, so lo carries the fraction
    whole = np.rint(lo)
    ok = np.abs(np.abs(lo - whole) - 0.5) > 2.0**-40
    ok &= ~(below | above)
    D = hi.astype(np.int64) + whole.astype(np.int64)
    carry = D == 10**17
    D[carry | ~ok] = 10**16  # an uncertified D may lie anywhere
    return D, E + carry, ok


def _layout(D, X, neg):
    """The %g text of (-1)^neg D 10^(X-16) as (n, _WIDTH) ASCII bytes,
    NUL-padded: fixed notation for -4 <= X < 17, else exponent form,
    trailing zeros stripped."""
    quads, trailing, leads, suffix, before = _glyphs()
    n = len(D)
    rows = np.arange(n)
    upper = D // 10**8
    lower = D - upper * 10**8
    d0 = upper // 10**8
    mid = upper - d0 * 10**8
    c = np.empty((n, 4), dtype=np.intp)
    c[:, 0] = mid // 10**4
    c[:, 1] = mid - c[:, 0] * 10**4
    c[:, 2] = lower // 10**4
    c[:, 3] = lower - c[:, 2] * 10**4
    # "0000" "000d" and four digit quads: the digits from byte 7 on
    pad = np.zeros((n, 8), dtype=np.uint32)
    pad[:, 0] = _word("0000")
    pad[:, 1] = leads[d0]
    pad[:, 2:6] = quads[c]
    zeros = trailing[c[:, 3]]
    tail = c[:, 3] == 0
    for i in (2, 1, 0):
        zeros += tail * trailing[c[:, i]]
        tail &= c[:, i] == 0
    fixed = (X >= -4) & (X < 17)
    lead = np.where(fixed & (X < 0), -X, 0)  # the zeros of 0.000ddd
    point = neg + np.where(fixed, 1 + np.maximum(X, 0), 1)
    last = neg + lead + 17 - zeros  # one past the last significant digit
    end = np.where(last > point, last + 1, point)
    # the text without its point from the sign's column on, and the same
    # one column later: each side of the point comes from its own record
    windows = _windows(pad.view(np.uint8), _WIDTH)
    start = rows * 32 + 6 - lead - neg
    out = windows[start].view(np.uint64).reshape(n, -1)
    later = windows[start + 1].view(np.uint64).reshape(n, -1)
    later ^= out
    later &= before[point].view(np.uint64).reshape(n, -1)
    out ^= later
    text = out.view(np.uint8)
    text[rows, point] = ord(".")
    out &= before[end].view(np.uint64).reshape(n, -1)
    np.copyto(text[:, 0], ord("-"), where=neg.astype(bool))
    exp = np.flatnonzero(~fixed)
    if len(exp):
        _windows(text, 5)[exp * _WIDTH + end[exp]] = suffix[X[exp] + 400]
    return text


def format_values(values):
    """``format_float`` of each value of a 1-D float array, as an object
    array of ASCII bytes.

    Finite non-integral values whose digits the kernel certifies are laid out
    as arrays; the rest (integral values below 1e16, ties and near-ties of
    the 17th digit, non-finite values) take the rule one value at a time.
    """
    values = np.asarray(values, dtype=float)
    table = np.empty(len(values), dtype=object)
    scalar = ~np.isfinite(values) | _serialize._integral(values)
    # the kernel runs on every row, a stand-in 0.5 on the scalar ones
    magnitude = np.where(scalar, 0.5, np.abs(values))
    neg = np.signbit(values).astype(np.intp)
    for start in range(0, len(values), _BLOCK):
        block = slice(start, start + _BLOCK)
        D, X, ok = _digits(magnitude[block])
        scalar[block] |= ~ok
        text = _layout(D, X, neg[block])
        table[block] = text.view(f"S{_WIDTH}").ravel()
    rest = np.flatnonzero(scalar)
    table[rest] = _serialize._per_value(values[rest])
    return table


# -- the array parser ---------------------------------------------------------
#
# parse_values reads format_float's grammar back: an optional "-", digits with
# at most one "." and a digit either side of it, then an optional "e", a sign
# and two or three digits, _WIDTH bytes at most.  The separators come from one
# pass over the bytes and each exponent from the bytes before its separator.
# Each mantissa is the _WIDTH-byte record ending where it ends, 4,096 cells at
# a time: the columns before its digits are masked to 0, the digits before the
# point move one column right, and the digits of the three words, as one
# integer D, are summed eight at a time (Lemire, "Number parsing at a gigabyte
# per second", 2021).  D 10^k is formed as a double-double from the 10^k table
# with Dekker's product, exact to 2^-100 of its value, and its rounding s is
# certified when every value within that error of s + r rounds to s, as
# Clinger's fast path (PLDI 1990) is taken only where it is known to be
# right.  A cell the kernel does not certify takes float(): a tie or a
# near-tie of the rounding, D from 9.2e17 on (it may pass 63 bits), a scale
# off the table, or a result at or below the least normal double, which ldexp
# would round twice.


@functools.cache
def _parse_tables():
    """The parser's lookup tables, built on first use, indexed by a column
    c in [0, _WIDTH] or by pos, the column of a point + 1 (0: none):
    the record of 0xff bytes from column c on, and the one before column
    pos, as three words each; for one block of records, the multipliers that
    move a 0x01 byte at column c of a word to its top byte as c + 1; whether
    a point at pos has a digit either side when the digits start at column c
    (row c, column pos); and the column of ``_pow10()`` for k = 0 less the
    places after a point at pos."""
    before = _glyphs()[4].view(np.uint64).reshape(_WIDTH + 1, 3)
    word = [sum((8 * w + b + 1) << (56 - 8 * b) for b in range(8)) for w in range(3)]
    columns_plus_one = np.resize(np.array(word, dtype=np.uint64), 3 * _BLOCK)
    j = np.arange(_WIDTH + 1)
    placed = (j == 0) | ((j > j[:, None] + 1) & (j < _WIDTH))
    k_zero = _K_MIN - 1 + np.where(j > 0, _WIDTH - j, 0)
    return ~before, before, columns_plus_one, placed.ravel(), k_zero


def _non_numeric():
    raise ValueError("cell outside format_float's grammar")


def _exponents(u, k, previous):
    """(suffix, exp) of the cells between the separators ``previous`` and
    ``k``: the length of an "e+dd" or "e-ddd" exponent (0 without one) and
    its value."""
    long = u.take(k - 5) == ord("e")  # "e", a sign and three digits
    short = u.take(k - 4) == ord("e")  # "e", a sign and two digits
    suffix = long.view(np.int8) * 5
    suffix += short.view(np.int8) * 4  # 9 for both: its sign, an "e", is refused
    exp = np.zeros(len(k), dtype=np.int16)
    rows = np.flatnonzero(suffix)
    # a cell no longer than its suffix read that "e" before its own start
    outside = k[rows] - previous[rows] <= suffix[rows]
    suffix[rows[outside]] = 0
    rows = rows[~outside]
    if len(rows):
        # the cell's last eight bytes, the sign in byte 4 and the digits in
        # bytes 5 to 7, "0" for the hundreds of a two-digit exponent
        tail = _windows(u, 8)[k[rows] - 8].view(np.uint64)
        two = (tail & 0xFFFF000000000000) | ((tail >> 8) & 0xFF00000000) | 0x300000000000
        tail = np.where(long[rows], tail, two)
        digits = tail >> 40
        sign = (tail >> 32) & 0xFF
        # Lemire's test that every byte is a digit
        high = ((digits + 0x060606) & 0xF0F0F0) >> 4
        high |= digits & 0xF0F0F0
        if (high != 0x333333).any() or ((sign != ord("+")) & (sign != ord("-"))).any():
            _non_numeric()
        digits &= 0x0F0F0F
        e = (digits & 0xFF) * 100 + ((digits >> 8) & 0xFF) * 10 + (digits >> 16)
        e = e.astype(np.int16)
        exp[rows] = np.where(sign == ord("-"), -e, e)
    return suffix, exp


def _parse_block(u, k, first, suffix, exp, val, ok):
    """Write the values of the cells from ``first`` up to the separators
    ``k``, with exponents of ``suffix`` bytes worth ``exp``, into ``val``,
    and whether the kernel certified each into ``ok``."""
    if ((k - first - 1).view(np.uint64) >= _WIDTH).any():
        _non_numeric()  # an empty cell or a long one
    negative = u.take(first) == ord("-")
    end = k - suffix
    c0 = first - end  # the column where the digits start in a mantissa record
    c0 += _WIDTH
    c0 += negative
    if (c0.view(np.uint64) >= _WIDTH).any():
        _non_numeric()  # a cell without digits
    D, pos = _mantissas(u, end, c0)
    _scale(D, exp - _parse_tables()[4].take(pos), val, ok)
    bits = val.view(np.uint64)
    bits |= negative.astype(np.uint64) << 63


def _mantissas(u, end, c0):
    """(D, pos) of the mantissas ending before ``end`` with digits from
    record column ``c0`` on: their digits as an integer, negative from
    9.2e17 on, where they may pass 63 bits, and the column of the point + 1
    (0: none)."""
    after, before, columns_plus_one, placed, _ = _parse_tables()
    n = len(end)
    words = _windows(u, _WIDTH)[end - _WIDTH].view(np.uint64).reshape(n, 3)
    digits = words.view(np.uint8)
    digits -= ord("0")
    words &= after.take(c0, axis=0)
    point = digits == 254  # "." less "0"
    other = digits > 9
    point_words = point.view(np.uint64)
    other_words = other.view(np.uint64)
    other_words ^= point_words
    if other_words.any():
        _non_numeric()
    np.multiply(point_words.ravel(), columns_plus_one[: 3 * n], out=other_words.ravel())
    other_words >>= 56
    pos = other_words[:, 0] + other_words[:, 1]
    pos += other_words[:, 2]
    pos = pos.view(np.int64)
    if np.count_nonzero(point) != np.count_nonzero(pos):
        _non_numeric()  # two points in a cell
    if not placed.take(c0 * (_WIDTH + 1) + pos).all():
        _non_numeric()
    # drop the point: each column up to it takes the digit one column left
    shifted = point.view(np.uint8)
    shifted.ravel()[1:] = digits.ravel()[:-1]
    shifted[:, 0] = 0
    shifted = shifted.view(np.uint64)
    shifted ^= words
    shifted &= before.take(pos, axis=0)
    words ^= shifted
    # eight digits per word: pairs, then fours, then eights
    for factor, shift, mask in ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF),
                                (10000, 32, None)):
        words *= (factor << shift) + 1
        words >>= shift
        if mask:
            words &= mask
    w = words.T
    D = w[0] * 10**8
    D += w[1]
    D *= 10**8
    D += w[2]
    D[w[0] >= 92] = 1 << 63
    return D.view(np.int64), pos


def _scale(D, k, val, ok):
    """Write D 10^k into ``val``, D from ``_mantissas`` and k a column of
    ``_pow10()``, and whether each value is certified into ``ok``."""
    k[D < 0] = 0  # too many digits: off the table
    # D = f + e exactly
    f = D.astype(float)
    s, r, b = _times_pow10(f, k, (D - f.astype(np.int64)).astype(float))
    # certified when all of [s + r - m, s + r + m] rounds to s, m = s 2^-95
    # above the error bound
    np.abs(r, out=r)
    r += s * 2.0**-95
    np.equal(s + r, s, out=ok)
    ok &= s - r == s
    np.ldexp(s, b, out=val)
    # a zero or a result above the least normal double: ldexp rounds a
    # subnormal one a second time, up to that double at most
    ok &= (val > 2.2250738585072014e-308) | (D == 0)


def parse_values(data, width=1, start=0):
    """The floats of the bytes ``data[start:]``: rows of ``width`` cells,
    each cell followed by "," and the last of a row by a newline, as a
    (rows, width) array.

    A cell is what ``format_float`` writes: an optional "-", digits with at
    most one "." and a digit either side of it, and an optional exponent
    "e+dd", "e-dd", "e+ddd" or "e-ddd", 24 bytes at most.  Each value is
    the double ``float()`` reads from the cell, bit for bit.  Any other cell
    raises ``ValueError``, as does text after the last newline; a row with
    another number of cells raises ``RowWidthError``.
    """
    if start < _WIDTH:  # every record starts inside the buffer
        data = b"\n" * _WIDTH + data[start:]
        start = _WIDTH
    u = np.frombuffer(data, dtype=np.uint8)
    if len(u) == start:
        return np.zeros((0, width))
    if u[-1] != ord("\n"):
        _non_numeric()
    # every byte below "-" ends a cell, but for an exponent's "+"
    k = np.flatnonzero(u[start:] < ord("-"))
    k += start
    ends = u.take(k)
    row = np.full(width, ord(","), dtype=np.uint8)
    row[-1] = ord("\n")
    if len(k) % width or (ends.reshape(-1, width) != row).any():
        keep = ends != ord("+")
        k = k[keep]
        ends = ends[keep]
        if ((ends != ord(",")) & (ends != ord("\n"))).any():
            _non_numeric()
        if len(k) % width or (ends.reshape(-1, width) != row).any():
            raise RowWidthError(f"rows of other than {width} cells")
    # each cell runs from one past the separator before it
    previous = np.concatenate(([start - 1], k[:-1]))
    suffix, exp = _exponents(u, k, previous)
    val = np.empty(len(k))
    ok = np.empty(len(k), dtype=bool)
    with np.errstate(over="ignore"):  # past the largest double: inf, as float() reads it
        for b in range(0, len(k), _BLOCK):
            cells = slice(b, b + _BLOCK)
            _parse_block(
                u, k[cells], previous[cells] + 1, suffix[cells], exp[cells], val[cells], ok[cells]
            )
    rest = np.flatnonzero(~ok)
    val[rest] = _per_cell(data, previous[rest] + 1, k[rest])
    return val.reshape(-1, width)


def _per_cell(data, first, end):
    """``float()`` of each cell ``data[first:end]`` the kernel leaves."""
    return [float(data[i:j]) for i, j in zip(first.tolist(), end.tolist())]
