"""Shortest round-trip spelling of float64 arrays, byte for byte as float.__repr__.

`spell(values, json_rule)` returns one NUL-padded `S24` entry per value.  The
digits are Schubfach's (Giulietti, "The Schubfach way to render doubles",
2020): the shortest decimal in the value's rounding interval, the one nearest
the value among several, the even one on a tie, which is what the shortest
mode of Python's dtoa returns.  The scaled value is bounded by
round-to-odd products with a 126-bit table entry of 10^-k, taken here from
32-bit limb products: one exact product for the value, from which each end of
its rounding interval follows by adding or subtracting a shifted table entry,
so every normal double is spelled by fixed-width integer arithmetic on whole
arrays.  Its 17 digits are written four at a time from a table of the 10 000
four-digit strings, which also counts their trailing zeros.  The characters
come from one gather through a layout table keyed by sign, digit count and
where the decimal point falls, which encodes float.__repr__'s choice of
exponent notation: when the shortest digits put the value below 1e-4 or at
1e16 and above.

Two rules: by default a trailing ".0" is dropped (6.0 -> "6"); with json_rule
it is kept and NaN, Infinity and -Infinity are spelled as json.dumps spells
them.  Subnormals, infinities and NaN are spelled by float.__repr__ itself;
zeros of either sign stay on the array path.  The tables are built on first
use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

WIDTH = 24                      # len("-1.2345678901234567e-308")
_CHUNK = 1 << 16                # values per kernel pass, which bounds its temporaries
_DIGITS = 17                    # most significant digits of a shortest spelling
_K_MIN, _K_MAX = -324, 292      # decimal exponents k of the normal doubles
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_T_MASK = np.uint64((1 << 52) - 1)
_C_MIN = np.uint64(1 << 52)
# Bits of 1.0: zeros and specials take its place in the arithmetic, and its
# one digit before the decimal point, set to 0, spells a zero.
_STAND_IN = 0x3FF0000000000000
# Columns of a value's source row, written four characters at a time: its 17
# digits, trailing zeros included, in 3..19 after three zero digits, its decimal
# exponent as four digits in 20..23, then constant characters and NUL.
_FIRST, _EXP, _MINUS, _DOT, _ZERO, _E, _PLUS, _NUL = 3, 21, 24, 25, 26, 27, 28, 29
_CONSTANTS = np.frombuffer(b"-.0e+\0\0\0", dtype=np.uint64)[0]
_ROW_WIDTH = 32
# Decimal-point classes: the decimal point position d (value = 0.digits x 10^d)
# for d in -3..16 is class d + 3; exponent notation takes four more, by the
# exponent's sign and whether it has two or three digits.
_PLAIN_MIN, _PLAIN_MAX = -3, 16
_CLASSES = _PLAIN_MAX - _PLAIN_MIN + 1 + 4
_POINT_MAX = 400                # beyond every decimal point of a normal double
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _point_classes() -> np.ndarray:
    """The class of each decimal point position in [-_POINT_MAX, _POINT_MAX]."""
    d = np.arange(-_POINT_MAX, _POINT_MAX + 1)
    return np.where((d >= _PLAIN_MIN) & (d <= _PLAIN_MAX), d - _PLAIN_MIN,
                    _PLAIN_MAX - _PLAIN_MIN + 1 + 2 * (d > 0) + (np.abs(d - 1) >= 100))


_CLASS_OF_POINT = _point_classes()


def _floor_log2_pow10(e):
    """floor(e log2 10), exact for |e| <= 1438."""
    return (e * 913_124_641_741) >> 38


@cache
def _g_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each k in [_K_MIN, _K_MAX], g = floor(10^-k 2^-r) + 1 with
    r = floor(-k log2 10) - 125, so 2^125 <= g < 2^126; as its high and low
    63-bit limbs, and r + 128."""
    high, low, shift = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _floor_log2_pow10(-k) - 125
        num = 10 ** max(-k, 0) << max(-r, 0)
        den = 10 ** max(k, 0) << max(r, 0)
        g = num // den + 1
        high.append(g >> 63)
        low.append(g & ((1 << 63) - 1))
        shift.append(r + 128)
    return (np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64),
            np.array(shift))


def _layout_entry(neg: int, n: int, cls: int, json_rule: bool) -> list[int]:
    """Source-row columns that spell a value of sign neg, n digits and
    decimal-point class cls, in order."""
    digits = list(range(_FIRST, _FIRST + n))
    out = [_MINUS] if neg else []
    d = cls + _PLAIN_MIN
    if d <= _PLAIN_MAX:
        if d <= 0:
            return out + [_ZERO, _DOT] + [_ZERO] * -d + digits
        if d < n:
            return out + digits[:d] + [_DOT] + digits[d:]
        return out + digits + [_ZERO] * (d - n) + ([_DOT, _ZERO] if json_rule else [])
    positive, three = divmod(cls - (_PLAIN_MAX - _PLAIN_MIN + 1), 2)
    mantissa = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
    return out + mantissa + [_E, _PLUS if positive else _MINUS] + \
        list(range(_EXP + 1 - three, _EXP + 3))


@cache
def _layout(json_rule: bool) -> np.ndarray:
    """(2 * _DIGITS * _CLASSES, WIDTH) uint8 source columns per layout key
    (sign, trailing zeros of the 17 digits, class), NUL-padded."""
    table = np.full((2, _DIGITS, _CLASSES, WIDTH), _NUL, dtype=np.uint8)
    for neg in (0, 1):
        for n in range(1, _DIGITS + 1):
            for cls in range(_CLASSES):
                entry = _layout_entry(neg, n, cls, json_rule)
                table[neg, _DIGITS - n, cls, :len(entry)] = entry
    return table.reshape(-1, WIDTH)


@cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The four-character strings 0000..9999 as uint32 words, and the number
    of trailing zero digits of each."""
    text = b"".join(b"%04d" % i for i in range(10_000))
    zeros = [4 - len(text[i:i + 4].rstrip(b"0")) for i in range(0, len(text), 4)]
    return np.frombuffer(text, dtype=np.uint32), np.array(zeros)


def _product(a: np.ndarray, b: np.ndarray, b0: np.ndarray, b1: np.ndarray):
    """Low and high 64-bit words of a * b for uint64 arrays below 2^63, where
    b0 and b1 are b's low and high 32-bit limbs; no sum below wraps."""
    a0, a1 = a & _M32, a >> 32
    mid = a0 * b1 + a1 * b0 + (a0 * b0 >> 32)
    return a * b, a1 * b1 + (mid >> 32)


def _end(high, low, x0, g1, g0, s, up: bool) -> np.ndarray:
    """The rop of g (cp + 2^s), or of g (cp - 2^s) unless up, from high and
    low, the words of w for g cp, and x0, the low word of g0 cp; 1 <= s <= 63.
    w moves by floor(g 2^s / 2^64) = d_high 2^63 + d_low, and by the carry or
    borrow out of x0 as the low word of g0 2^s is added or subtracted."""
    shifted, r = g0 << s, 63 - s
    d_low, d_high = ((g1 << s) | (g0 >> r)) >> 1, g1 >> r >> 1
    if up:
        low = low + d_low + (x0 + shifted < x0)
        high = high + d_high + (low >> 63)
    else:
        low = low - d_low - (x0 < shifted)
        high = high - d_high - (low >> 63)
    return high | ((low & _M63) != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits f and exponent k of the shortest round-trip decimal f 10^k of
    each normal double whose bits are given, trailing zeros included
    (Schubfach, with the closest candidate and the even one on a tie)."""
    bq = (bits >> 52 & 0x7FF).view(np.int64)
    t = bits & _T_MASK
    c = t | _C_MIN
    q = bq - 1075
    # The lower neighbour is half as far below a power of two, except below
    # the smallest normal, whose neighbours are subnormals at the same step;
    # k is floor(log10 of 2^q), or of 3/4 2^q there.
    asym = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - asym * 274_743_187_321) >> 41
    g1, g0, shift = (x.take(k - _K_MIN) for x in _g_table())
    h1 = (q + shift).astype(np.uint64)  # Schubfach's h + 1
    # The value and the ends of its rounding interval in units of 10^k / 4,
    # rounded to odd (Schubfach's rop): w / 2^63, its lowest bit set when the
    # remainder is nonzero, for w = floor(g1 cp / 2) + floor(g0 cp / 2^64),
    # with cp = c 2^(h+2), or cp + 2^(h+1) and cp - 2^(h+1-asym) for the ends
    # (g = g1 2^63 + g0, cp below 2^63; arrays only, where products wrap).
    # An end belongs to the interval when c is even.
    cp = c << h1 + 1
    cp0, cp1 = cp & _M32, cp >> 32
    (x0, x1), (y0, y1) = (_product(g, cp, cp0, cp1) for g in (g0, g1))
    z = (y0 >> 1) + x1
    high, low = y1 + (z >> 63), z & _M63
    vb = high | (low != 0)
    vbl = _end(high, low, x0, g1, g0, h1 - asym, False)
    vbr = _end(high, low, x0, g1, g0, h1, True)
    odd = c & 1
    vbl += odd
    vbr -= odd
    # The multiples of ten just below and above the value first (one digit
    # shorter), then the integers s and s + 1 either side of it.
    s = vb >> 2
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl <= sp10 << 2
    wpin = tp10 << 2 <= vbr
    s4 = s << 2
    uin = vbl <= s4
    win = s4 + 4 <= vbr
    # vb's low two bits place it against s + 1/2, 2 in vb's units
    up = np.where(uin != win, win, (vb & 3) + (s & 1) > 2)
    return np.where(upin != wpin, np.where(wpin, tp10, sp10), s + up), k


def spell(values, json_rule: bool = False) -> np.ndarray:
    """Each value as float.__repr__ spells it, in a NUL-padded S24 array of
    the values' size, flattened: with a trailing ".0" dropped by default, or
    with json_rule as json.dumps spells a float."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if x.size > _CHUNK:
        return np.concatenate([spell(x[lo:lo + _CHUNK], json_rule)
                               for lo in range(0, x.size, _CHUNK)])
    bits = x.view(np.uint64)
    bq = (bits >> 52) & np.uint64(0x7FF)
    zero = (bits << 1) == 0
    special = ((bq == 0) | (bq == 0x7FF)) & ~zero
    f, e = _shortest(np.where(zero | special, _STAND_IN, bits))
    # f has 16 or 17 digits, trailing zeros included: scaled to 17, with its
    # decimal point where it was
    big = f >= 10 ** 16
    point = e + 16 + big
    f = np.where(big, f, f * 10).view(np.int64)
    f[zero] = 0
    exp = np.abs(point - 1)

    rows = np.empty((x.size, _ROW_WIDTH), dtype=np.uint8)
    quads, (text, zeros) = rows.view(np.uint32), _quads()
    groups = []
    for i in range(_EXP // 4 - 1, 0, -1):
        head = f // 10_000
        groups.append(f - head * 10_000)
        quads[:, i] = text.take(groups[-1])
        f = head
    quads[:, 0] = text.take(f)
    quads[:, _EXP // 4] = text.take(exp)
    rows.view(np.uint64)[:, _MINUS // 8] = _CONSTANTS
    # the spelling takes the digits before the trailing zeros: those of the
    # lowest four, and of the next four while all four are zeros
    trailing = zeros.take(groups[-1])
    for group in groups[-2::-1]:
        trailing = zeros.take(group) + (group == 0) * trailing
    key = (bits >> 63).view(np.int64) * (_DIGITS * _CLASSES) + trailing * _CLASSES
    key += _CLASS_OF_POINT.take(point + _POINT_MAX)
    at = _layout(json_rule).take(key, axis=0).astype(np.intp)
    at += np.arange(0, rows.size, _ROW_WIDTH)[:, None]
    out = rows.ravel().take(at)
    spelled = out.view(f"S{WIDTH}").ravel()
    if special.any():
        spelled[special] = [_rule(float.__repr__(v), json_rule)
                            for v in x[special].tolist()]
    return spelled


def _rule(text: str, json_rule: bool) -> str:
    if json_rule:
        return _JSON_SPECIAL.get(text, text)
    return text[:-2] if text.endswith(".0") else text
