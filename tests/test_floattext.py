"""The cell-text kernel against Python: `float_cells` against ``repr`` and
`int_cells` against ``str``, cell for cell.

The kernel writes ±0.0 and every finite ``|x|`` in ``[1e-4, 2**50)`` itself and
hands every other float to ``repr``, so the draws are raw bit patterns (mostly
outside that range) and bit patterns whose exponent is the range's, with either
sign, plus the edges in `EDGES`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch._floattext import float_cells, int_cells
from test_csvio import EDGES

DRAWS = 10_000  # of each kind, per example: at least 60,000 values a run


def texts(cells: np.ndarray) -> list[str]:
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


def assert_reprs(values: np.ndarray) -> None:
    expected = [repr(v) for v in values.tolist()]
    wrong = [(e, g) for e, g in zip(expected, texts(float_cells(values))) if e != g]
    assert not wrong, f"{len(wrong)} of {len(values)} differ from repr, e.g. {wrong[:3]}"


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=3, deadline=None)
def test_floats_are_their_repr(seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, DRAWS, dtype=np.uint64)
    # biased exponents 1009..1072: 2**-14 (partly below 1e-4) to 2**49, either sign
    exponent = rng.integers(1023 - 14, 1023 + 50, DRAWS).astype(np.uint64)
    sign = rng.integers(0, 2, DRAWS).astype(np.uint64)
    mantissa = rng.integers(0, 2**52, DRAWS, dtype=np.uint64)
    in_range = sign << np.uint64(63) | exponent << np.uint64(52) | mantissa
    assert_reprs(np.concatenate([raw, in_range]).view(np.float64))


def test_edges_are_their_repr():
    # 0.0078144073486328125 is a tie at its 16th digit, which rounds to even (...2812)
    values = np.array([*EDGES, 0.0078144073486328125, 0.0, np.nan, np.inf, 5e-324, 1e16, 1e-5])
    assert_reprs(np.concatenate([values, -values]))


def test_ints_are_their_str():
    powers = [10**k + d for k in range(19) for d in (-1, 0)]
    signed = np.array([-(2**63), -(2**63) + 1, 2**63 - 1, *powers, *(-p for p in powers)], np.int64)
    assert texts(int_cells(signed)) == [str(v) for v in signed.tolist()]
    unsigned = np.array([0, 2**63, 2**64 - 1], np.uint64)
    assert texts(int_cells(unsigned)) == [str(v) for v in unsigned.tolist()]
