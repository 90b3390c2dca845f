"""The digits ``float.__repr__`` prints, for a whole float64 column at once.

``repr`` writes the shortest decimal that reads back as the same double,
and of several such, the one nearest to it.  ``shortest`` finds those
digits for every value of an array with a few 64-bit integer products
per value, by the Schubfach method (R. Giulietti, "The Schubfach way to
render doubles", 2020; the same digits as Ryu, U. Adams, "Ryu: fast
float-to-string conversion", PLDI 2018):

A finite double v = c 2^q has the rounding interval R_v of the reals
that read back as v: half the spacing 2^q either side, closed when c is
even (a read ties to even), but only a quarter of it below where c =
2^52 starts a binade above the least normal one.  With k = floor(log10
of the interval's width), R_v holds at most one multiple of 10^(k+1) and
at least one multiple of 10^k, so the shortest decimal in R_v is the
multiple of 10^(k+1) there if there is one, else the multiple of 10^k in
R_v (of at most two) nearest to v, ties to even digits.  The candidates
and the interval ends are read off 4 v 10^-k and its two ends scaled
alike, each a 64-bit integer rounded to odd, which is exact enough to
decide every comparison.  Each scaled value is the product of a 126-bit
table entry g(k) = floor(10^-k 2^r) + 1 (r putting g(k) in [2^125,
2^126)), built exactly with Python ints at import, and a 64-bit multiple
of c.  numpy has no 128-bit integers, so the three products of each
value are one ``(3, n)`` array cut into 32-bit limbs, multiplied on
``uint64``, where array products wrap without a warning.

``repr`` writes fixed notation for 0 and for 1e-4 <= |x| < 1e16, and
``fixed`` tells whether it does so for every value of an array;
``texts`` spells such values as ``repr`` does, as a uint8 matrix of
ASCII whose digits come four at a time from a table of 10,000 groups.
Exponent notation and non-finite values have no spelling here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fixed", "shortest", "texts"]

# the decimal exponents k of the spacing of finite doubles, 2^-1074 to 2^971
K_MIN, K_MAX = -324, 292


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _table():
    """g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 for k from
    K_MIN to K_MAX, as its high bits g >> 63 and low 63 bits."""
    high, low = [], []
    for k in range(K_MIN, K_MAX + 1):
        r = 125 - _flog2pow10(-k)
        # 10^-k 2^r = 5^-k 2^(r - k), and r > k when k > 0
        if k > 0:
            g = (1 << (r - k)) // 5**k + 1
        elif r >= k:
            g = (5**-k << (r - k)) + 1
        else:
            g = (5**-k >> (k - r)) + 1
        high.append(g >> 63)
        low.append(g & ((1 << 63) - 1))
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


_G1, _G0 = _table()
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _high(g, c0, c1, hi, mid, t, u):
    """Write floor(g c / 2^64) into ``hi``: ``g`` (n,) below 2^63, c =
    c1 2^32 + c0 (3, n); ``mid``, ``t`` and ``u`` are scratch."""
    g0 = g & _LOW32
    g1 = g >> _32
    np.multiply(g0, c0, out=mid)
    np.right_shift(mid, _32, out=mid)
    np.multiply(g0, c1, out=t)
    np.multiply(g1, c0, out=u)
    np.multiply(g1, c1, out=hi)
    mid += t & _LOW32
    mid += u & _LOW32
    t >>= _32
    u >>= _32
    mid >>= _32
    hi += t
    hi += u
    hi += mid


def _round_to_odd(g1, g0, cp):
    """floor(cp g / 2^127) with its lowest bit set when the product's
    bits below are not all zero (as Giulietti's ``rop``), g = g1 2^63 +
    g0 per value and ``cp`` (3, n), all ``uint64``; ``cp`` is used up."""
    y0 = g1 * cp  # the low word of g1 cp, wrapped
    c0 = cp & _LOW32
    c1 = cp >> _32
    mid, t, u = np.empty_like(cp), np.empty_like(cp), np.empty_like(cp)
    x1 = np.empty_like(cp)
    _high(g0, c0, c1, x1, mid, t, u)
    _high(g1, c0, c1, cp, mid, t, u)
    y0 >>= np.uint64(1)
    y0 += x1
    cp += y0 >> np.uint64(63)
    y0 <<= np.uint64(1)
    cp |= y0 != 0
    return cp


def shortest(x: np.ndarray):
    """The digits of each value of the float64 array ``x`` as
    ``float.__repr__`` prints them, sign left out: an int64 significand
    without trailing zeros and an int64 decimal exponent, so that |x| =
    significand 10^exponent in its shortest round-trip decimal (0 and 0
    for a zero).  Every value must be finite."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64) & 0x7FFFFFFFFFFFFFFF
    biased = bits >> 52
    c = bits & ((1 << 52) - 1)
    irregular = (c == 0) & (biased > 1)  # c = 2^52 above the least normal binade
    normal = biased != 0
    c[normal] |= 1 << 52
    q = biased - 1075
    q[~normal] = -1074
    k = q * 661971961083  # floor(log10(2^q)), or of 3/4 2^q where irregular
    k[irregular] -= 274743187321
    k >>= 41
    h = _flog2pow10(-k) + q + 2
    cb = c << 2
    cp = np.empty((3, len(cb)), dtype=np.int64)
    np.left_shift(cb, h, out=cp[0])
    np.left_shift(cb - 2 + irregular, h, out=cp[1])
    np.left_shift(cb + 2, h, out=cp[2])
    i = k - K_MIN
    vb, lo, hi = _round_to_odd(_G1[i], _G0[i], cp.view(np.uint64)).view(np.int64)
    # R_v scaled by 4 10^-k is [lo, hi] once an odd c opens both ends
    odd = c & 1
    lo += odd
    hi -= odd
    s = vb >> 2  # floor(v 10^-k)
    edge = vb & -4
    inside_s = lo <= edge
    edge += 4
    inside_t = edge <= hi
    # of s and s + 1 both in R_v, the nearer to v, ties to even
    nearer_t = (vb & 3) + (s & 1) > 2
    digits = s + np.where(inside_s != inside_t, inside_t, nearer_t)
    s10 = s // 10
    edge = s10 * 40
    inside_s10 = lo <= edge
    edge += 40
    inside_t10 = edge <= hi
    # a multiple of 10^(k+1) in R_v is the shortest; only these digits can
    # end in a zero, at most 15 of them, as s10 < 10^16
    ten = np.flatnonzero(inside_s10 != inside_t10)
    d, e = s10[ten] + inside_t10[ten], k[ten] + 1
    for p in (8, 4, 2, 1):
        strip = d % _POW10[p] == 0
        d[strip] //= _POW10[p]
        e[strip] += p
    digits[ten] = d
    exponent = k
    exponent[ten] = e
    zero = c == 0
    digits[zero] = 0
    exponent[zero] = 0
    return digits, exponent


def fixed(x: np.ndarray) -> bool:
    """Whether ``repr`` writes every value of ``x`` in fixed notation:
    each is finite and 0 or of magnitude in [1e-4, 1e16)."""
    m = np.abs(x)
    return bool(((m < 1e16) & ((m >= 1e-4) | (m == 0))).all())


# the four ASCII digits of 0000..9999, each group read as one uint32 so
# that a gather moves four digits; the value is never read as a number
_GROUPS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000).T + 48
_GROUPS = np.ascontiguousarray(_GROUPS).view(np.uint32).ravel()


def _digits(v: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The last ``width`` digits of each value of the int64 ``v`` (used
    up), right-aligned with NUL before them in a uint8 matrix."""
    widest = int(width.max(initial=1))
    groups = -(-widest // 4)
    out = np.empty((len(v), groups), dtype=np.uint32)
    for j in range(groups - 1, -1, -1):
        high = v // 10000  # a scalar divisor is a multiply, np.divmod is not
        v -= high * 10000
        out[:, j] = _GROUPS[v]
        v = high
    # row k of ``kept``: k bytes 0, then bytes 0xFF
    kept = np.arange(4 * groups) >= np.arange(4 * groups + 1)[:, None]
    out &= (kept * np.uint8(255)).view(np.uint32)[4 * groups - width]
    return out.view(np.uint8)[:, 4 * groups - widest :]


def texts(x: np.ndarray) -> np.ndarray:
    """The text ``repr`` writes for each value of ``x``, all of which
    ``fixed`` accepts, as ASCII in a uint8 array of shape ``x.shape +
    (w,)``: the sign, the integer part, "." and the fraction, each padded
    with NUL before it.  Leaving out the NULs gives each text."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    digits, exponent = shortest(flat)
    integer, fraction = np.divmod(digits, _POW10[np.clip(-exponent, 0, 18)])
    integer *= _POW10[np.clip(exponent, 0, 18)]
    sign = (np.signbit(flat) * np.uint8(ord("-")))[:, None]
    point = np.full_like(sign, ord("."))
    whole = _digits(integer, np.searchsorted(_POW10[1:], integer, side="right") + 1)
    part = _digits(fraction, np.maximum(-exponent, 1))
    chars = np.concatenate([sign, whole, point, part], axis=1)
    return chars.reshape(*np.shape(x), chars.shape[1])
