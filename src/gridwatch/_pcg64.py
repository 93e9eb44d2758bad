"""Jump-ahead reads of the uniforms a ``PCG64`` generator would draw next.

numpy's ``PCG64`` is a 128-bit LCG, ``s_{k+1} = MULT·s_k + inc (mod 2**128)``,
and draw ``k`` of ``Generator.random`` is ``(xsl_rr(s_{k+1}) >> 11)·2**-53``.
Any later state has the closed form ``s_k = A_k·s_0 + G_k·inc`` with
``A_k = MULT**k`` and ``G_k = Σ_{i<k} MULT**i``, and neither depends on the
seed (M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014; F. Brown,
"Random Number Generation with Arbitrary Strides", 1994).  `skip_uniforms`
moves a generator past a ``periods × n`` block of ``random()`` draws and
returns a reader that computes any of the block's entries from cached
tables of ``A`` and ``G``, so a caller pays only for the entries it reads.

A 128-bit number is a ``(hi, lo)`` pair of ``uint64`` values or arrays; products
wrap mod 2**64 as numpy integer arithmetic does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD = 1 << 128
_LOW = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# Rows per pass.  Whole-window temporaries (276 KB each at 34,560 rows) go back to
# the OS and are faulted in again on every trial; 32 KB ones are reused.
_BLOCK = 4096


def _jump(k: int) -> tuple[int, int]:
    """``(A_k, G_k)`` by square and multiply."""
    a, g, step_a, step_g = 1, 0, MULT, 1
    while k:
        if k & 1:
            a, g = a * step_a % _MOD, (g * step_a + step_g) % _MOD
        step_a, step_g = step_a * step_a % _MOD, (step_g * step_a + step_g) % _MOD
        k >>= 1
    return a, g


def _pairs(values) -> np.ndarray:
    """The Python ints ``values`` as a ``(2, len(values))`` array of ``(hi, lo)``."""
    return np.array([[v >> 64 for v in values], [v & 0xFFFFFFFFFFFFFFFF for v in values]], np.uint64)


def _mul(a, b):
    """``a·b mod 2**128``: the low halves' full product, plus the cross terms mod 2**64."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & _LOW, a_lo >> _32, b_lo & _LOW, b_lo >> _32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _32) + (p01 & _LOW) + (p10 & _LOW)
    hi = a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32) + a_hi * b_lo + a_lo * b_hi
    return hi, a_lo * b_lo


def _add(a, b):
    """``a + b mod 2**128``: the low halves carry when their sum wraps."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _uniforms(s) -> np.ndarray:
    """``Generator.random``'s double from each state: XSL-RR output, top 53 bits."""
    x, rot = s[0] ^ s[1], s[0] >> np.uint64(58)
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (x >> np.uint64(11)) * 2.0**-53


@lru_cache(maxsize=8)
def _cached_tables(n: int) -> list[np.ndarray]:
    """``[row_a, row_g, step_a, step_g]`` for rows of ``n`` draws: ``A`` and ``G``
    at row starts ``t·n`` (grown by `_tables`) and at in-row steps ``j <= n``."""
    steps = [(1, 0)]
    for _ in range(n):
        a, g = steps[-1]
        steps.append((a * MULT % _MOD, (g * MULT + 1) % _MOD))
    return [_pairs([1]), _pairs([0]), *map(_pairs, zip(*steps))]


def _tables(periods: int, n: int) -> list[np.ndarray]:
    """The tables for ``periods`` rows: a shorter window reads a prefix of a longer one's."""
    tables = _cached_tables(n)
    # Rows m.. from rows 0..: A_{t+m} = A_t·A_m and G_{t+m} = A_t·G_m + G_t.
    while (m := tables[0].shape[1]) < periods:
        head_a, head_g = (t[:, : min(m, periods - m)] for t in tables[:2])
        a_m, g_m = _pairs(_jump(m * n)).T
        tables[0] = np.concatenate([tables[0], _mul(head_a, a_m)], axis=1)
        tables[1] = np.concatenate([tables[1], _add(_mul(head_a, g_m), head_g)], axis=1)
    return [tables[0][:, :periods], tables[1][:, :periods], tables[2], tables[3]]


def _blocks(periods: int):
    return (slice(r, r + _BLOCK) for r in range(0, periods, _BLOCK))


def skip_uniforms(
    bit_generator: np.random.BitGenerator, periods: int, n: int
) -> Callable[[int | np.ndarray], np.ndarray]:
    """Move ``bit_generator`` past its next ``periods × n`` ``random()`` draws.

    Returns ``read(cols)``: the draws ``block[t, cols]`` for every row ``t``,
    where ``cols`` is one column or an array of one column per row, bit for
    bit what ``Generator.random((periods, n))`` would have put there.  The
    generator ends in the state that draw leaves, its buffered uint32 kept.
    """
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(f"jump-ahead draws need a PCG64 generator, got {type(bit_generator).__name__}")
    state = bit_generator.state
    s0, inc = state["state"]["state"], state["state"]["inc"]
    row_a, row_g, step_a, step_g = _tables(periods, n)
    s0_pair, inc_pair = _pairs([s0, inc]).T
    starts = np.empty((2, periods), np.uint64)  # s_{t·n}
    for rows in _blocks(periods):
        starts[:, rows] = _add(_mul(row_a[:, rows], s0_pair), _mul(row_g[:, rows], inc_pair))
    step_inc = np.array(_mul(step_g, inc_pair))  # G_j·inc
    a_end, g_end = _jump(periods * n)
    state["state"]["state"] = (a_end * s0 + g_end * inc) % _MOD
    bit_generator.state = state  # unlike advance(), keeps has_uint32 and uinteger

    def read(cols):
        after = np.asarray(cols) + 1  # draw j of a row comes from state s_{t·n + j + 1}
        out = np.empty(periods)
        for rows in _blocks(periods):
            step = after if after.ndim == 0 else after[rows]
            a, g = (np.take(table, step, axis=1) for table in (step_a, step_inc))
            out[rows] = _uniforms(_add(_mul(a, starts[:, rows]), g))
        return out

    return read
