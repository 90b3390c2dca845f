"""The vectorized shortest digits against ``float.__repr__``: every text
the digits and repr's layout give must be repr's, on random bit patterns
of every finite class, uniform draws, binade edges, the bounds of fixed
notation, integers and zeros; the 126-bit table is checked exactly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamdp import floattext
from teamdp.floattext import fixed, shortest, texts


def _text(negative: bool, digits: int, exponent: int) -> str:
    """The text repr writes for the value -(digits 10^exponent) or
    digits 10^exponent: fixed notation where the decimal point falls
    after at most 16 digits and before at most 4 zeros, else exponent
    notation."""
    sign = "-" if negative else ""
    if digits == 0:
        return sign + "0.0"
    s = str(digits)
    point = len(s) + exponent
    if -4 < point <= 16:
        if exponent >= 0:
            return sign + s + "0" * exponent + ".0"
        if point <= 0:
            return sign + "0." + "0" * -point + s
        return sign + s[:point] + "." + s[point:]
    mantissa = s[0] + ("." + s[1:] if len(s) > 1 else "")
    return f"{sign}{mantissa}e{point - 1:+03d}"


def _spelled(x: np.ndarray) -> list:
    """The text of each value of ``x`` in ``texts``, its NULs left out."""
    return [bytes(row[row != 0]).decode("ascii") for row in texts(x)]


def _assert_repr(x: np.ndarray) -> None:
    """The kernel's text equals repr's for every value of ``x``, and
    where repr writes fixed notation, so does ``texts``."""
    x = np.asarray(x, dtype=np.float64)
    digits, exponent = shortest(x)
    assert digits.dtype == exponent.dtype == np.int64
    reprs = list(map(float.__repr__, x.tolist()))
    got = list(map(_text, np.signbit(x).tolist(), digits.tolist(), exponent.tolist()))
    bad = [(t, g) for t, g in zip(reprs, got) if t != g]
    assert not bad, bad[:5]
    inside = np.array(["e" not in t for t in reprs], dtype=bool)
    assert all(fixed(x[i : i + 1]) == inside[i] for i in range(min(len(x), 2000)))
    if inside.any():
        kept = x[inside]
        assert fixed(kept)
        assert _spelled(kept) == [t for t, i in zip(reprs, inside) if i]


@pytest.mark.slow
def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, size=10**6, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    # subnormals, zeros' neighbourhood and normals all drawn
    assert (np.abs(x) < 2.0**-1022).sum() > 100
    _assert_repr(x)


@pytest.mark.slow
def test_uniform_draws():
    _assert_repr(np.random.default_rng(20202).random(10**6))


def test_powers_of_two_and_their_neighbours():
    """Significand 2^52 has a lower neighbour half as far as the upper
    one: the asymmetric rounding interval."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    _assert_repr(np.concatenate([powers, below, above[np.isfinite(above)], -powers]))


def test_smallest_subnormals():
    _assert_repr(np.arange(1, 5001) * 5e-324)


def test_bounds_of_fixed_notation():
    edges = np.array([1e-4, 1e16, 2.0**53])
    x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    _assert_repr(np.concatenate([x, -x]))
    assert fixed(np.array([1e-4, np.nextafter(1e16, 0.0)]))
    assert not fixed(np.array([np.nextafter(1e-4, 0.0)]))
    assert not fixed(np.array([1e16]))


def test_integers_and_zeros():
    x = np.concatenate([np.arange(-1000.0, 1001.0), [0.0, -0.0, 1e15, 123456789012345.0]])
    _assert_repr(x)
    _assert_repr(np.array([2.0**k - 1 for k in range(1, 54)]))
    _assert_repr(np.array([10.0**k for k in range(-30, 31)]))
    assert _spelled(np.array([0.0, -0.0, 1.0, -2.5])) == ["0.0", "-0.0", "1.0", "-2.5"]
    assert not fixed(np.array([0.0, np.nan]))
    assert not fixed(np.array([np.inf]))


@pytest.mark.slow
@settings(max_examples=2000)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_float(x):
    _assert_repr(np.array([x]))


def _floor_log2(f: Fraction) -> int:
    n = f.numerator.bit_length() - f.denominator.bit_length()
    return n if Fraction(2) ** n <= f else n - 1


def test_table_entries_are_exact():
    high, low = floattext._G1, floattext._G0
    assert len(high) == len(low) == floattext.K_MAX - floattext.K_MIN + 1
    for k, g1, g0 in zip(range(floattext.K_MIN, floattext.K_MAX + 1), high.tolist(), low.tolist()):
        assert g0 < 2**63
        g = g1 << 63 | g0
        scaled = Fraction(10) ** -k
        r = 125 - _floor_log2(scaled)
        assert g == math.floor(scaled * Fraction(2) ** r) + 1
        assert 2**125 <= g < 2**126
