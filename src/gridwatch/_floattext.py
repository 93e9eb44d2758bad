"""Cell texts as NUL-padded byte matrices, a whole column at a time.

`float_cells` gives each float's ``repr``: the shortest decimal that reads back
as the float, of those the one closest to it, ties to even (D. M. Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", 1990).  For
±0.0 and every finite ``|x|`` in ``[1e-4, 2**50)``, the values ``repr`` writes
in fixed notation, it finds the digits with Ryū's digit search on ``uint64``
arrays (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018); every
other float (exponent form, subnormal, ``>= 2**50``, inf, nan) takes ``repr``
one value at a time.  `int_cells` writes integers' digits.  A row's text is its
bytes with the NULs dropped, wherever they fall: digits go in four at a time,
from a table of ``"0000"`` to ``"9999"``, masked to NUL where a number is
shorter than its column.

The search, for ``x = m2·2**e`` with a 53-bit ``m2``: the reals that read back as
``x`` lie between ``mm·2**e2`` and ``mp·2**e2`` around ``mv·2**e2 = x``
(``e2 = e - 2``, ``mv = 4·m2``, ``mp = mv + 2``, ``mm = mv - 2``, or ``mv - 1`` at a
power of two, whose lower neighbour is nearer).  Ryū's ``q`` puts the three at
the decimal scale ``10**(q + e2)``, where ``v = ⌊m·5**i / 2**q⌋`` (``i = -e2 - q``)
are integers of at most 19 digits.  Here ``-e2`` is 5 to 68, so ``i <= 22`` and
``mv·5**i < 2**107`` is exact, from `_pcg64._mul_add`; ``vp`` and ``vm`` follow
from its low ``q`` bits.  Digits are then removed while ``vp`` and ``vm`` still
differ above them, and the result rounds up when the last removed digit is 5 or
more (exactly 5 over an exact ``vr`` rounds to even), or when it would fall on
``vm``, below the interval.

Over these exponents ``q >= 2``, and ``mp`` and ``mm`` hold at most one factor 2,
so neither bound is an integer at that scale and no bound is ever the result:
whether a bound reads back as ``x`` (Ryū's ``acceptBounds``) never matters, and
``vm`` is never exact.  ``vr`` often ends on ``vm``, but with a last removed digit
below 5 only at a power of two, whose lower bound is a quarter ulp away rather
than a half: random bits never reach the round-up that only ``vm`` decides, and
none of the 63 powers in range (``2**-13`` to ``2**49``) does either; the tests'
edge list holds each of them.
"""

from __future__ import annotations

import numpy as np

from ._pcg64 import _ZERO, _mul_add, _words

_SIGN, _MANT, _HIDDEN = np.uint64(1 << 63), np.uint64((1 << 52) - 1), np.uint64(1 << 52)
_1, _2, _52, _64, _10K = (np.uint64(k) for k in (1, 2, 52, 64, 10_000))
_POW5 = np.array([5**i for i in range(23)], np.uint64)
_POW10 = np.array([10**i for i in range(20)], np.uint64)
# "0000" to "9999", four ASCII bytes to a uint32, and masks that keep the last 0 to 4 of them
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0")))
_QUADS = _QUADS.view(np.uint32).ravel()
_SHOWN = ((np.arange(4) >= 4 - np.arange(5)[:, None]) * np.uint8(255)).view(np.uint32).ravel()
_DOT, _MINUS = np.uint8(ord(".")), np.uint8(ord("-"))


def padded(texts: list[str]) -> np.ndarray:
    """``texts`` UTF-8 encoded, one row each, NUL-padded to the longest."""
    cells = np.array([t.encode("utf-8") for t in texts], dtype=bytes)
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)


def _field(out: np.ndarray, v: np.ndarray, shown: np.ndarray) -> None:
    """Write the last ``4·k`` digits of each ``uint64`` into the ``k`` columns of the
    ``uint32`` view ``out``, four to a column, NUL but for the row's last ``shown``."""
    for column in range(out.shape[1] - 1, -1, -1):
        rest = v // _10K
        quad = _QUADS[(v - rest * _10K).view(np.int64)]
        np.bitwise_and(quad, _SHOWN[np.maximum(np.minimum(shown, 4), 0)], out=out[:, column])
        shown = shown - 4
        v = rest


def _width(count: np.ndarray) -> int:
    """Bytes for the most of ``count`` digits, four to a column."""
    return -(-int(count.max(initial=1)) // 4) * 4


def _count(v: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each ``uint64``, 1 for 0."""
    return np.maximum(np.searchsorted(_POW10, v, side="right"), 1)


def int_cells(x: np.ndarray) -> np.ndarray:
    """``str`` of each integer, one NUL-padded row each."""
    magnitude = np.abs(x).astype(np.uint64)  # abs(-2**63) wraps to 2**63
    count = _count(magnitude)
    text = np.empty((len(x), 1 + _width(count)), np.uint8)
    np.multiply(x < 0, _MINUS, out=text[:, 0])
    _field(text[:, 1:].view(np.uint32), magnitude, count)
    return text


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(digits, exponent)``: the shortest round-trip decimal ``digits·10**exponent`` of
    each positive double in ``[1e-4, 2**50)``, given as its bits."""
    mantissa = bits & _MANT
    e2 = (bits >> _52).astype(np.int64) - (1023 + 52 + 2)
    q = (-e2 * 732923 >> 20) - 1  # Ryū's log10Pow5(-e2) - 1, for -e2 > 1
    shift = q.astype(np.uint64)
    pow5 = _POW5[-e2 - q]
    hi, lo = _mul_add(*_words(_ZERO, (mantissa | _HIDDEN) << _2), *_words(_ZERO, pow5))
    vr = (lo >> shift) | (hi << (_64 - shift))
    below = ((lo << (_64 - shift)) >> (_64 - shift)).view(np.int64)  # mv·5**i mod 2**q
    exact = below == 0
    gap = (pow5 << _1).view(np.int64)  # (mp - mv)·5**i, and (mv - mm)·5**i but at a power of two
    vp = vr + ((below + gap) >> q).view(np.uint64)
    vm = vr + ((below - (gap >> (mantissa == 0))) >> q).view(np.uint64)
    # Digits to remove: the most that leave vp above vm.  The test is monotone in
    # their number (at most 19), so it is found a power of two at a time.
    removed = np.zeros(len(bits), np.int64)
    for step in (16, 8, 4, 2, 1):
        up, down = vp // _POW10[step], vm // _POW10[step]
        more = up > down
        vp -= (vp - up) * more
        vm -= (vm - down) * more
        removed += step * more
    scale = _POW10[removed]
    digits = vr // scale
    dropped = vr - digits * scale
    place = _POW10[np.maximum(removed - 1, 0)]  # of the last removed digit
    last = dropped // place
    half_to_even = exact & (dropped == last * place) & (last == 5) & (digits & _1 == 0)
    digits += (digits == vm) | ((last >= 5) & ~half_to_even)
    return digits, q + e2 + removed


def float_cells(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float, one NUL-padded row each."""
    x = np.asarray(x, np.float64)
    bits = x.view(np.uint64)
    size = np.abs(x)
    fixed = (size >= 1e-4) & (size < 2.0**50)
    digits = np.zeros(len(x), np.uint64)
    exponent = np.zeros(len(x), np.int64)
    digits[fixed], exponent[fixed] = _shortest(bits[fixed] & ~_SIGN)
    # ``±whole.part``, with ``places`` digits after the point
    places = np.maximum(-exponent, 1)
    value = digits * _POW10[places + exponent]
    unit = _POW10[np.minimum(places, 19)]  # value < 10**17, so 10**19 leaves no whole part, as 10**20 would
    whole = value // unit
    count = _count(whole)
    point = 1 + _width(count)
    text = np.empty((len(x), point + 1 + _width(places)), np.uint8)
    np.multiply(bits >= _SIGN, _MINUS, out=text[:, 0])
    _field(text[:, 1:point].view(np.uint32), whole, count)
    text[:, point] = _DOT
    _field(text[:, point + 1 :].view(np.uint32), value - whole * unit, places)
    other = ~fixed & (size != 0)
    if other.any():
        reprs = padded([repr(v) for v in x[other].tolist()])
        if reprs.shape[1] > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, reprs.shape[1] - text.shape[1])))
        text[other] = 0
        text[other, : reprs.shape[1]] = reprs
    return text
