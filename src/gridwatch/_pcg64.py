"""Jump-ahead reads of the uniforms a ``PCG64`` generator would draw next.

numpy's ``PCG64`` is a 128-bit LCG, ``s_{k+1} = MULT·s_k + inc (mod 2**128)``,
and draw ``k`` of ``Generator.random`` is ``(xsl_rr(s_{k+1}) >> 11)·2**-53``.
Any later state has the closed form ``s_k = A_k·s_0 + G_k·inc`` with
``A_k = MULT**k`` and ``G_k = Σ_{i<k} MULT**i``, and neither depends on the
seed (M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014; F. Brown,
"Random Number Generation with Arbitrary Strides", 1994).  `UniformBlock`
computes any entry of the ``periods × n`` block of ``random()`` draws that a
generator makes next, from its saved state and cached tables of ``A`` and
``G``, so a caller pays only for the entries it reads; `UniformBlock.skip`
moves a generator past the block.

The block is drawn period-major, so the block of a shorter window from the
same state is a prefix of a longer one's.  Monte-Carlo cells (attack cases
and durations) seed trial ``i`` alike, so one block per trial index serves
them all: its row starts and each column it is asked for are computed once,
and every cell reads prefixes.  No stream changes: each cell still moves its
own generator past its own rows, draws its own offsets and sampled positions
after them, and reads its own sampled entries, if it reads any.

A 128-bit number is a ``(hi, lo)`` pair of ``uint64`` values or arrays; products
wrap mod 2**64 as numpy integer arithmetic does.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD = 1 << 128
_LOW = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# Rows per pass.  Whole-window temporaries (276 KB each at 34,560 rows) go back to
# the OS and are faulted in again on every trial; 32 KB ones are reused.
_BLOCK = 4096


@lru_cache(maxsize=64)
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
    return (slice(r, min(r + _BLOCK, periods)) for r in range(0, periods, _BLOCK))


def _row_starts(s0: int, inc: int, periods: int, n: int) -> np.ndarray:
    """The states ``s_{t·n}`` that rows ``t < periods`` start from, as ``(hi, lo)`` rows."""
    row_a, row_g = _tables(periods, n)[:2]
    s0_pair, inc_pair = _pairs([s0, inc]).T
    starts = np.empty((2, periods), np.uint64)
    for rows in _blocks(periods):
        starts[:, rows] = _add(_mul(row_a[:, rows], s0_pair), _mul(row_g[:, rows], inc_pair))
    return starts


class UniformBlock:
    """The ``periods × n`` block of ``random()`` draws that a ``PCG64`` generator in
    ``state`` makes next, computed only where it is read.

    The row starts are computed once, and each column once, the first time it
    is read.  The first ``p`` rows are the block that ``random((p, n))`` from
    the same state draws, so windows of any length up to ``periods`` from one
    seed share one block: each reads prefixes of it and `skip` moves its own
    generator past its own rows.
    """

    def __init__(self, state: dict, periods: int, n: int):
        if state["bit_generator"] != "PCG64":
            raise TypeError(f"jump-ahead draws need a PCG64 generator, got {state['bit_generator']}")
        self.state, self.periods, self.n = state, periods, n
        self._s0, self._inc = state["state"]["state"], state["state"]["inc"]
        self._starts = _row_starts(self._s0, self._inc, periods, n)
        self._step_a, step_g = _cached_tables(n)[2:]
        self._step_inc = np.array(_mul(step_g, _pairs([self._inc])[:, 0]))  # G_j·inc
        self._columns: dict[int, np.ndarray] = {}

    def column(self, col: int) -> np.ndarray:
        """``block[:, col]``, every row, read-only: copy it before scaling."""
        if col not in self._columns:
            self._columns[col] = self.read(col)
            self._columns[col].flags.writeable = False
        return self._columns[col]

    def read(self, cols: int | np.ndarray) -> np.ndarray:
        """``block[t, cols]`` for every row, or ``block[t, cols[t]]`` for rows ``t < len(cols)``."""
        after = np.asarray(cols) + 1  # draw j of a row comes from state s_{t·n + j + 1}
        periods = self.periods if after.ndim == 0 else len(after)
        out = np.empty(periods)
        for rows in _blocks(periods):
            step = after if after.ndim == 0 else after[rows]
            a, g = (np.take(table, step, axis=1) for table in (self._step_a, self._step_inc))
            out[rows] = _uniforms(_add(_mul(a, self._starts[:, rows]), g))
        return out

    def skip(self, bit_generator: np.random.BitGenerator, periods: int) -> None:
        """Put ``bit_generator`` in the state that ``random((periods, n))`` from
        ``state`` leaves, its buffered uint32 kept (unlike ``advance``)."""
        if periods > self.periods:
            raise ValueError(f"a {periods}-row window does not fit in a {self.periods}-row block")
        a_end, g_end = _jump(periods * self.n)
        end = (a_end * self._s0 + g_end * self._inc) % _MOD
        bit_generator.state = {**self.state, "state": {"state": end, "inc": self._inc}}
