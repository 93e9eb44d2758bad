"""numpy's ``PCG64`` stream, pinned, and the jump-ahead arithmetic built on it.

`gridwatch._pcg64` computes usage uniforms from a generator's saved state
instead of drawing them, so it relies on three things numpy could change:
the ``PCG64`` step and XSL-RR output function, ``Generator.random``'s
``(raw >> 11)·2**-53`` conversion, and ``advance``.  The hard-coded values
below were drawn from numpy's own ``PCG64``; a numpy that changes any of
them fails here by name, not only through the golden digests (NEP 19).
"""

import numpy as np
import pytest

from gridwatch import _pcg64

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
    read = _pcg64.skip_uniforms(pcg64_at(state, inc), 1, 3)
    assert [read(c)[0].hex() for c in range(3)] == draws


def test_jump_is_the_lcg_iterated():
    a, g = 1, 0
    for k in range(40):
        assert _pcg64._jump(k) == (a, g)
        a, g = a * _pcg64.MULT & MASK, (g * _pcg64.MULT + 1) & MASK


def test_tables_hold_every_row_start_and_in_row_step():
    n = 5
    _pcg64._cached_tables.cache_clear()
    _pcg64._tables(3, n)  # grown again below from a 3-row table
    row_a, row_g, step_a, step_g = _pcg64._tables(37, n)

    def ints(pairs):
        return [int(hi) << 64 | int(lo) for hi, lo in pairs.T]

    assert list(zip(ints(row_a), ints(row_g))) == [_pcg64._jump(t * n) for t in range(37)]
    assert list(zip(ints(step_a), ints(step_g))) == [_pcg64._jump(j) for j in range(n + 1)]


@pytest.mark.parametrize("warmup", [0, 1, 2])
def test_skip_leaves_the_state_a_full_draw_leaves(warmup):
    # One 0..9 integer leaves half a raw draw buffered; a second one uses it.
    full, skipped = (np.random.default_rng([42, 3]) for _ in range(2))
    for rng in (full, skipped):
        rng.integers(0, 10, size=warmup)
    assert full.bit_generator.state["has_uint32"] == warmup % 2
    matrix = full.random((50, 7))
    read = _pcg64.skip_uniforms(skipped.bit_generator, 50, 7)
    assert skipped.bit_generator.state == full.bit_generator.state
    assert skipped.integers(0, 10, size=9).tolist() == full.integers(0, 10, size=9).tolist()
    cols = np.arange(50) % 7
    assert read(cols).tobytes() == matrix[np.arange(50), cols].tobytes()
    assert read(6).tobytes() == matrix[:, 6].tobytes()
