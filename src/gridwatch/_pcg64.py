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
``G``, so a caller pays only for the entries it reads; `UniformBlock.generator`
is the generator that the draw of a prefix of the block leaves.

The block is drawn period-major, so the block of a shorter window from the
same state is a prefix of a longer one's: one block serves windows of every
length up to its own, and each draws on from the `generator` after its rows.

A 128-bit number is a ``(hi, lo)`` pair of ``uint64`` values or arrays; products
wrap mod 2**64 as numpy integer arithmetic does.  Each numpy operation is one
pass over a chunk of ``_BLOCK`` rows, so `_mul_add` takes the 32-bit halves of
the low words split once (in the tables, cached per row length; per block for
the row starts) and sums the high word in place: Warren's multiply-high
(*Hacker's Delight*, 2nd ed., §8-2), the cross terms and the addend.  The
tables hold one chunk's row starts; later chunks are the chunk before them
jumped ``_BLOCK`` rows on.  The first block of a process checks a `read` of one
entry in each of its first rows, from the first column to the last, against
``Generator.random``, and the first ``integers`` and ``uniform`` draws of a fixed seed
(the sampled positions and random offsets) against numpy 2.4.6's, so a numpy whose
draws differ fails with one `GridwatchError`.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

from .errors import GridwatchError

MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD = 1 << 128
_LOW = np.uint64(0xFFFFFFFF)
_ZERO, _11, _32, _58, _64 = (np.uint64(k) for k in (0, 11, 32, 58, 64))
# Rows per pass, so each operation's temporaries are 32 KB.  Whole-window arrays (276 KB at
# 34,560 rows) are reused from the heap where `harness._keep_freed_heap` set the thresholds.
_BLOCK = 4096
_checked = False  # whether a block of this process has matched numpy's own draws
# ``integers(0, 100, 8)``, then ``uniform(0, 0.7, 4)``, of ``default_rng(0)`` on numpy 2.4.6.
_RECORDED_DRAWS = ([85, 63, 51, 26, 30, 4, 7, 1],
                   [0.5692891674401906, 0.6389289040944052, 0.4246450430370259, 0.5106475926887989])


@lru_cache(maxsize=1)
def _no_entropy() -> np.random.bit_generator.ISeedSequence:
    """A seed for bit generators whose state is set next: zero words, with no OS entropy
    and no hashing.  Built on first use, as importing ``numpy.random`` takes about 10 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class NoEntropy(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return NoEntropy()


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


def _words(hi, lo) -> tuple:
    """``(hi, lo)`` as ``(hi, lo, lo & 0xFFFFFFFF, lo >> 32)``: `_mul_add` multiplies
    the 32-bit halves of the low words."""
    return hi, lo, lo & _LOW, lo >> _32


def _mul_add(a_hi, a_lo, a0, a1, b_hi, b_lo, b0, b1, c_hi=_ZERO, c_lo=_ZERO):
    """``a·b + c mod 2**128`` as ``(hi, lo)``, from `_words` of ``a`` and ``b``.

    The high word sums the low words' multiply-high (Warren's form: no partial
    sum can wrap), the cross terms mod 2**64, ``c``'s high word and the carry
    out of the low word.  Each partial sum is taken in place, which saves a new
    array per term."""
    lo = a_lo * b_lo
    lo += c_lo
    t = a0 * b0
    t >>= _32
    t += a1 * b0
    w = t & _LOW
    w += a0 * b1
    t >>= _32
    w >>= _32
    hi = a1 * b1
    hi += t
    hi += w
    hi += a_hi * b_lo
    hi += a_lo * b_hi
    hi += c_hi
    hi += lo < c_lo
    return hi, lo


def _to_unit(hi, lo, out=None) -> np.ndarray:
    """``Generator.random``'s double from each state ``(hi, lo)``, which it overwrites:
    XSL-RR output, top 53 bits.  A rotation by 0 shifts left by 64, which numpy
    defines as 0."""
    rot = hi >> _58
    hi ^= lo
    lo = hi >> rot
    lo |= hi << (_64 - rot)
    lo >>= _11
    return np.multiply(lo, 2.0**-53, out=out)


def _strided(stride: int, count: int) -> list[np.ndarray]:
    """`_words` rows of ``A_{k·stride}`` and ``G_{k·stride}``, ``k < count``.  Rows ``m..``
    come from rows ``0..``: ``A_{k+m} = A_k·A_m`` and ``G_{k+m} = A_k·G_m + G_k``, in strides."""
    a, g = _pairs([1]), _pairs([0])
    while (m := a.shape[1]) < count:
        head_a, head_g = a[:, : count - m], g[:, : count - m]
        a_m, g_m = (_words(*pair) for pair in _pairs(_jump(m * stride)).T)
        a = np.concatenate([a, _mul_add(*_words(*head_a), *a_m)], axis=1)
        g = np.concatenate([g, _mul_add(*_words(*head_a), *g_m, *head_g)], axis=1)
    return [np.array(_words(*pairs)) for pairs in (a, g)]


@lru_cache(maxsize=8)
def _tables(n: int) -> tuple[np.ndarray, ...]:
    """``(row_a, row_g, step_a, step_g)`` for rows of ``n`` draws: at the row starts
    ``t·n``, ``t < _BLOCK`` (all that `_row_starts` reads), and the in-row steps ``j <= n``."""
    return (*_strided(n, _BLOCK), *_strided(1, n + 1))


def _blocks(periods: int) -> list[slice]:
    return [slice(r, min(r + _BLOCK, periods)) for r in range(0, periods, _BLOCK)]


def _row_starts(s0: int, inc: int, periods: int, n: int) -> np.ndarray:
    """The states ``s_{t·n}`` that rows ``t < periods`` start from, as `_words` rows.

    The first chunk of rows is ``A_{t·n}·s0 + G_{t·n}·inc`` from the tables; each
    later chunk is the one before it jumped ``_BLOCK`` rows on,
    ``s_{(t+B)·n} = A_{B·n}·s_{t·n} + G_{B·n}·inc``: one product a row, not two."""
    chunks = _blocks(periods)
    row_a, row_g = (words[:, : chunks[0].stop] for words in _tables(n)[:2])
    s0_words, inc_words = (_words(*pair) for pair in _pairs([s0, inc]).T)
    a_jump, g_jump = _jump(_BLOCK * n)
    jump_words, jump_add = _words(*_pairs([a_jump])[:, 0]), _pairs([g_jump * inc % _MOD])[:, 0]
    starts = np.empty((4, periods), np.uint64)
    hi_lo = _mul_add(*row_a, *s0_words, *_mul_add(*row_g, *inc_words))
    for rows in chunks:
        if rows.start:
            hi_lo = _mul_add(*starts[:, rows.start - _BLOCK : rows.stop - _BLOCK], *jump_words, *jump_add)
        starts[0, rows], starts[1, rows] = hi_lo
        np.bitwise_and(hi_lo[1], _LOW, out=starts[2, rows])
        np.right_shift(hi_lo[1], _32, out=starts[3, rows])
    return starts


class UniformBlock:
    """The ``periods × n`` block of ``random()`` draws that a ``PCG64`` generator in
    ``state`` makes next, computed only where it is read.

    The row starts are computed once, and each column once, the first time it
    is read.  The first ``p`` rows are the block that ``random((p, n))`` from
    the same state draws, so windows of any length up to ``periods`` from one
    seed share one block: each reads prefixes of it and draws on from the
    `generator` after its own rows.
    """

    def __init__(self, state: dict, periods: int, n: int):
        if state["bit_generator"] != "PCG64":
            raise TypeError(f"jump-ahead draws need a PCG64 generator, got {state['bit_generator']}")
        self.state, self.periods, self.n = state, periods, n
        self._s0, self._inc = state["state"]["state"], state["state"]["inc"]
        self._starts = _row_starts(self._s0, self._inc, periods, n)
        # Step j's words of A_j, then G_j·inc: one take gathers a read's factors.
        step_a, step_g = _tables(n)[2:]
        self._steps = np.concatenate([step_a, _mul_add(*step_g, *_words(*_pairs([self._inc])[:, 0]))])
        self._columns: dict[int, np.ndarray] = {}
        if not _checked:
            self._check_numpy()

    @classmethod
    def of_seed(cls, seed, periods: int, n: int) -> UniformBlock:
        """The block of ``PCG64(seed)``."""
        return cls(np.random.PCG64(seed).state, periods, n)

    def _check_numpy(self) -> None:
        """Compare `read` with ``Generator.random`` from ``state`` on up to 16 first rows, row
        ``t`` at a column spread from 0 to ``n - 1``, drawn a row at a time: O(n) memory; and
        the first ``integers`` and ``uniform`` draws of a fixed seed with `_RECORDED_DRAWS`."""
        global _checked
        cols = np.linspace(0, self.n - 1, min(self.periods, 16)).astype(np.intp)
        generator = self.generator(0)
        expected = np.array([generator.random(self.n)[col] for col in cols])
        fixed = np.random.default_rng(0)
        drawn = fixed.integers(0, 100, 8).tolist(), fixed.uniform(0.0, 0.7, 4).tolist()
        if self.read(cols).tobytes() != expected.tobytes() or drawn != _RECORDED_DRAWS:
            raise GridwatchError(
                f"numpy {np.__version__}: Generator.random from a PCG64 state differs from the "
                "jump-ahead reads of that state, or integers or uniform from numpy 2.4.6's draws, "
                "so seeded results would not be its draws"
            )
        _checked = True

    def column(self, col: int) -> np.ndarray:
        """``block[:, col]``, every row, read-only."""
        if col not in self._columns:
            self._columns[col] = self.read(col)
            self._columns[col].flags.writeable = False
        return self._columns[col]

    def read(self, cols: int | np.ndarray) -> np.ndarray:
        """``block[t, cols]`` for every row, or ``block[t, cols[t]]`` for rows
        ``t < len(cols)``: unit draws, each in a new array."""
        after = np.asarray(cols) + 1  # draw j of a row comes from state s_{t·n + j + 1}
        periods = self.periods if after.ndim == 0 else len(after)
        out = np.empty(periods)
        for rows in _blocks(periods):
            steps = self._steps[:, after] if after.ndim == 0 else self._steps.take(after[rows], axis=1)
            _to_unit(*_mul_add(*steps[:4], *self._starts[:, rows], *steps[4:]), out=out[rows])
        return out

    def generator(self, rows: int) -> np.random.Generator:
        """The generator that ``random((rows, n))`` from ``state`` leaves, its buffered
        uint32 kept (unlike ``advance``)."""
        if rows > self.periods:
            raise ValueError(f"a {rows}-row window does not fit in a {self.periods}-row block")
        a_end, g_end = _jump(rows * self.n)
        end = (a_end * self._s0 + g_end * self._inc) % _MOD
        bits = np.random.PCG64(_no_entropy())
        bits.state = {**self.state, "state": {"state": end, "inc": self._inc}}
        return np.random.Generator(bits)
