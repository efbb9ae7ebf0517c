"""Shortest round-trip spelling of float64 arrays, byte for byte as float.__repr__.

`spell(values, json_rule)` returns one NUL-padded `S24` entry per value.  The
digits are Schubfach's (Giulietti, "The Schubfach way to render doubles",
2020): the shortest decimal in the value's rounding interval, the one nearest
the value among several, the even one on a tie, which is what the shortest
mode of Python's dtoa returns.  The scaled value is bounded by
round-to-odd products with a 126-bit table entry of 10^-k, taken here from
32-bit limb products, so every normal double is spelled by fixed-width
integer arithmetic on whole arrays.  The characters come from one gather
through a layout table keyed by sign, digit count and where the decimal point
falls, which encodes float.__repr__'s choice between plain and exponent
notation: exponent notation when the shortest digits put the value below
1e-4 or at 1e16 and above.

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
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
# Bits of 0.30000000000000004, a normal double whose shortest digits end in a
# nonzero digit: zeros and specials take its place in the arithmetic.
_STAND_IN = 0x3FD3333333333334
# Columns of a value's source row, written two digits at a time: its digits
# right-aligned in 0..17 (column 0 is always a zero digit), NUL, the three
# digits of its decimal exponent in 19..21, then constant characters.
_NUL, _EXP, _MINUS, _DOT, _ZERO, _E, _PLUS = 18, 19, 22, 23, 24, 25, 26
_CONSTANTS = np.frombuffer(b"-.0e+\0", dtype=np.uint8)
_ROW_WIDTH = 28
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
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
def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """For each k in [_K_MIN, _K_MAX], g = floor(10^-k 2^-r) + 1 with
    r = floor(-k log2 10) - 125, so 2^125 <= g < 2^126; as its high and low
    63-bit limbs."""
    high, low = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _floor_log2_pow10(-k) - 125
        num = 10 ** max(-k, 0) << max(-r, 0)
        den = 10 ** max(k, 0) << max(r, 0)
        g = num // den + 1
        high.append(g >> 63)
        low.append(g & ((1 << 63) - 1))
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


def _layout_entry(neg: int, n: int, cls: int, json_rule: bool) -> list[int]:
    """Source-row columns that spell a value of sign neg, n digits and
    decimal-point class cls, in order."""
    digits = list(range(_NUL - n, _NUL))
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
    """(2 * _DIGITS * _CLASSES, WIDTH) uint8 source columns per layout key,
    NUL-padded."""
    table = np.full((2, _DIGITS, _CLASSES, WIDTH), _NUL, dtype=np.uint8)
    for neg in (0, 1):
        for n in range(1, _DIGITS + 1):
            for cls in range(_CLASSES):
                entry = _layout_entry(neg, n, cls, json_rule)
                table[neg, n - 1, cls, :len(entry)] = entry
    return table.reshape(-1, WIDTH)


def _high64(a: np.ndarray, b0: np.ndarray, b1: np.ndarray):
    """High 64 bits of a * b for uint64 arrays below 2^63, where b0 and b1
    are b's low and high 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _round_to_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127), its lowest bit set when the remainder is nonzero,
    for g = g1 2^63 + g0 and cp below 2^63 (Schubfach's rop).  Arrays only:
    numpy scalars would warn where the products below wrap."""
    cp0, cp1 = cp & _M32, cp >> 32
    z = (g1 * cp >> 1) + _high64(g0, cp0, cp1)
    return (_high64(g1, cp0, cp1) + (z >> 63)) | ((z & _M63) != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits f and exponent k of the shortest round-trip decimal f 10^k of
    each normal double whose bits are given, trailing zeros included
    (Schubfach, with the closest candidate and the even one on a tie)."""
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    t = bits & _T_MASK
    c = t | _C_MIN
    q = bq - 1075
    # The lower neighbour is half as far below a power of two, except below
    # the smallest normal, whose neighbours are subnormals at the same step;
    # k is floor(log10 of 2^q), or of 3/4 2^q there.
    asym = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - asym * 274_743_187_321) >> 41
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    g1, g0 = (limb.take(k - _K_MIN) for limb in _g_table())
    # The value and the ends of its rounding interval in units of 10^k / 4,
    # rounded to odd; an end belongs to the interval when c is even.
    cb = c << 2
    cp = np.stack([cb - 2 + asym, cb, cb + 2])
    cp <<= h
    vbl, vb, vbr = _round_to_odd(g1, g0, cp)
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
    uin = vbl <= s << 2
    win = s + 1 << 2 <= vbr
    mid = s + s + 1 << 1        # s + 1/2 in vb's units
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & ((s & 1) == 1)))
    return np.where(upin != wpin, np.where(wpin, tp10, sp10), s + up), k


def _strip_zeros(f: np.ndarray, e: np.ndarray) -> None:
    """Move f's trailing decimal zeros into e, in place; f is nonzero and
    below 10^32."""
    ends = np.flatnonzero(f % 10 == 0)
    if ends.size:
        g, d = f[ends], e[ends]
        for p in (16, 8, 4, 2, 1):
            head = g // _POW10[p]
            whole = head * _POW10[p] == g
            g = np.where(whole, head, g)
            d += whole * p
        f[ends], e[ends] = g, d


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
    _strip_zeros(f, e)
    f[zero], e[zero] = 0, 0
    n = np.searchsorted(_POW10[1:_DIGITS], f, side="right") + 1
    point = e + n
    exp = np.abs(point - 1)
    key = (bits >> 63).view(np.int64) * (_DIGITS * _CLASSES) + (n - 1) * _CLASSES
    key += _CLASS_OF_POINT.take(point + _POINT_MAX)

    rows = np.empty((x.size, _ROW_WIDTH), dtype=np.uint8)
    pairs = rows.view(np.uint16)
    for i in range(_NUL // 2 - 1, -1, -1):
        head = f // 100
        pairs[:, i] = _PAIRS.take((f - head * 100).view(np.int64))
        f = head
    head = exp // 100
    rows[:, _EXP] = head + ord("0")
    pairs[:, (_EXP + 1) // 2] = _PAIRS.take(exp - head * 100)
    rows[:, _NUL] = 0
    rows[:, _MINUS:] = _CONSTANTS
    at = _layout(json_rule).take(key, axis=0) + \
        np.arange(0, rows.size, _ROW_WIDTH)[:, None]
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
