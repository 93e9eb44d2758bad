"""numpy's ``PCG64`` stream, pinned, and the jump-ahead arithmetic built on it.

`gridwatch._pcg64` computes usage uniforms from a generator's saved state
instead of drawing them, so it relies on three things numpy could change:
the ``PCG64`` step and XSL-RR output function, ``Generator.random``'s
``(raw >> 11)·2**-53`` conversion, and ``advance``.  The hard-coded values
below were drawn from numpy's own ``PCG64``; a numpy that changes any of
them fails here by name, not only through the golden digests (NEP 19).
"""

import tracemalloc

import numpy as np
import pytest
from numpy.random import bit_generator

from gridwatch import _pcg64
from gridwatch.errors import GridwatchError

MASK = (1 << 128) - 1

# (state, inc) -> the first three random() draws (float.hex) and the state after advance(10**6)
PINNED = [
    (0, 1, ["0x0.0p+0", "0x1.c4c1ca64c3001p-1", "0x1.a9fd69cb4979fp-1"],
     0x774EDD0A5964514B56145ACBC8B23DC0),
    (MASK, MASK, ["0x1.94c986002aaf8p-1", "0x1.692f3f82753eap-1", "0x1.373742d3c7038p-2"],
     0x744F8B95BDC9402C530EB2D42B9EDB3F),
    (0x0123456789ABCDEFFEDCBA9876543210, 0xDEADBEEF00000000CAFEBABE12345679,
     ["0x1.deb9a5b943c74p-1", "0x1.699ea20cd3397p-1", "0x1.3673796856364p-2"],
     0x17B0CD5295957C576DE03F88EE5E51D0),
]


def pcg64_at(state, inc):
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return bits


@pytest.mark.parametrize("state, inc, draws, advanced", PINNED)
def test_random_draws_are_pinned(state, inc, draws, advanced):
    assert [x.hex() for x in np.random.Generator(pcg64_at(state, inc)).random(3).tolist()] == draws


@pytest.mark.parametrize("state, inc, draws, advanced", PINNED)
def test_advance_is_pinned_and_matches_the_closed_form(state, inc, draws, advanced):
    bits = pcg64_at(state, inc).advance(10**6)
    assert bits.state["state"] == {"state": advanced, "inc": inc}
    a, g = _pcg64._jump(10**6)
    assert (a * state + g * inc) & MASK == advanced


@pytest.mark.parametrize("state, inc, draws, advanced", PINNED)
def test_random_is_the_raw_output_shifted_to_53_bits(state, inc, draws, advanced):
    raw = pcg64_at(state, inc).random_raw(3)
    assert [(int(r) >> 11) * 2.0**-53 for r in raw] == [float.fromhex(x) for x in draws]


@pytest.mark.parametrize("state, inc, draws, advanced", PINNED)
def test_one_row_block_reads_the_pinned_draws(state, inc, draws, advanced):
    block = _pcg64.UniformBlock(pcg64_at(state, inc).state, 1, 3)
    assert [block.column(c)[0].hex() for c in range(3)] == draws


def test_jump_is_the_lcg_iterated():
    a, g = 1, 0
    for k in range(40):
        assert _pcg64._jump(k) == (a, g)
        a, g = a * _pcg64.MULT & MASK, (g * _pcg64.MULT + 1) & MASK


def test_tables_hold_every_row_start_and_in_row_step():
    n = 5
    row_a, row_g, step_a, step_g = _pcg64._tables(n)

    def ints(words):
        hi, lo, lo_low, lo_high = words
        assert lo_low.tolist() == (lo & 0xFFFFFFFF).tolist() and lo_high.tolist() == (lo >> 32).tolist()
        return [int(h) << 64 | int(low) for h, low in zip(hi, lo)]

    rows = _pcg64._BLOCK  # all that a block's row starts read; later rows jump from these
    assert list(zip(ints(row_a), ints(row_g))) == [_pcg64._jump(t * n) for t in range(rows)]
    assert list(zip(ints(step_a), ints(step_g))) == [_pcg64._jump(j) for j in range(n + 1)]


@pytest.mark.parametrize("warmup", [0, 1, 2])
def test_generator_is_in_the_state_a_full_draw_leaves(warmup):
    # One 0..9 integer leaves half a raw draw buffered; a second one uses it.
    full, used = (np.random.default_rng([42, 3]) for _ in range(2))
    for rng in (full, used):
        rng.integers(0, 10, size=warmup)
    assert full.bit_generator.state["has_uint32"] == warmup % 2
    matrix = full.random((50, 7))
    block = _pcg64.UniformBlock(used.bit_generator.state, 50, 7)
    skipped = block.generator(50)
    assert skipped.bit_generator.state == full.bit_generator.state
    assert skipped.integers(0, 10, size=9).tolist() == full.integers(0, 10, size=9).tolist()
    cols = np.arange(50) % 7
    assert block.read(cols).tobytes() == matrix[np.arange(50), cols].tobytes()
    assert block.column(6).tobytes() == matrix[:, 6].tobytes()


@pytest.mark.parametrize("periods", [1, 20, 50])
def test_a_shorter_window_reads_a_prefix_of_the_block(periods):
    # a window of the same seed and fewer rows: the same entries, and its
    # generator where its own shorter draw leaves it
    full = np.random.default_rng([7, 1])
    block = _pcg64.UniformBlock(full.bit_generator.state, 50, 7)
    matrix = full.random((periods, 7))
    assert block.generator(periods).bit_generator.state == full.bit_generator.state
    cols = np.arange(periods) * 3 % 7
    assert block.read(cols).tobytes() == matrix[np.arange(periods), cols].tobytes()
    assert block.column(2)[:periods].tobytes() == matrix[:, 2].tobytes()
    with pytest.raises(ValueError, match="does not fit"):
        block.generator(51)


def test_a_generator_draws_no_os_entropy(monkeypatch):
    # its state is set as soon as it is built, so it takes no seed from the OS
    monkeypatch.setattr(bit_generator, "randbits", lambda bits: pytest.fail("OS entropy drawn"))
    block = _pcg64.UniformBlock(np.random.PCG64(3).state, 4, 2)
    assert block.generator(4).bit_generator.state["state"]["inc"] == block.state["state"]["inc"]


def test_block_columns_are_read_only():
    block = _pcg64.UniformBlock(np.random.PCG64(3).state, 4, 2)
    assert block.column(1) is block.column(1)
    with pytest.raises(ValueError):
        block.column(1)[0] = 0.0


def test_a_numpy_whose_draws_differ_fails_at_the_first_block(monkeypatch):
    # the first block of a process checks a read of its first rows against Generator.random
    monkeypatch.setattr(_pcg64, "_checked", False)
    monkeypatch.setattr(_pcg64, "_to_unit", lambda hi, lo, out=None: np.multiply(hi ^ lo, 2.0**-64, out=out))
    for _ in range(2):  # a failed check is made again by the next block
        with pytest.raises(GridwatchError, match=f"numpy {np.__version__}"):
            _pcg64.UniformBlock(np.random.PCG64(3).state, 4, 2)
    monkeypatch.undo()
    monkeypatch.setattr(_pcg64, "_checked", False)
    _pcg64.UniformBlock(np.random.PCG64(3).state, 1, 2)
    assert _pcg64._checked


@pytest.mark.parametrize("recorded", [0, 1], ids=["integers", "uniform"])
def test_a_numpy_whose_integers_or_uniform_differ_fails_at_the_first_block(monkeypatch, recorded):
    # the sampled positions and the random offsets come from these two methods, not from a read
    draws = list(_pcg64._RECORDED_DRAWS)
    draws[recorded] = draws[recorded][::-1]
    monkeypatch.setattr(_pcg64, "_RECORDED_DRAWS", tuple(draws))
    monkeypatch.setattr(_pcg64, "_checked", False)
    with pytest.raises(GridwatchError, match=f"numpy {np.__version__}"):
        _pcg64.UniformBlock(np.random.PCG64(3).state, 4, 2)
    assert not _pcg64._checked


def test_the_numpy_check_reads_the_last_column_and_holds_one_row(monkeypatch):
    # a 2,000 x 2,000 block: the check draws one row at a time, never the
    # (rows, n) matrix, and its entries reach the last in-row step
    n = 2000
    block = _pcg64.UniformBlock(np.random.PCG64(5).state, n, n)
    monkeypatch.setattr(_pcg64, "_checked", False)
    tracemalloc.start()
    try:
        block._check_numpy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _pcg64._checked and peak < 4 * 8 * n  # a few rows of n doubles
    _pcg64._checked = False
    block._steps[:, n] = block._steps[:, n - 1]  # step j = n - 1 now reads draw n - 2
    with pytest.raises(GridwatchError, match=f"numpy {np.__version__}"):
        block._check_numpy()
