"""The vectorized spelling kernel against float.__repr__.

`tscale.spelling.spell` must give exactly the characters of the loop in
`references.numbers`, under the CSV rule (a trailing ".0" dropped) and the
JSON rule (NaN, Infinity, -Infinity), on drawn floats, raw bit patterns and a
sweep of the values where shortest round-trip digits are hardest to get right:
powers of two and their neighbours, powers of ten and the doubles up to four
steps either side of them, the integers around 2^53, zeros, subnormals, the
largest double and the non-finite values.  One report block's call stays
within its memory budget, and importing the CLI builds no table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from tscale.spelling import WIDTH, spell


def assert_spelled_as_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for json_rule in (False, True):
        spelled = spell(values, json_rule)
        assert spelled.dtype == np.dtype(f"S{WIDTH}") and spelled.shape == (values.size,)
        assert spelled.astype(str).tolist() == ref.numbers(values, json_rule)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_spelling_matches_repr_on_drawn_floats(values):
    assert_spelled_as_repr(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_spelling_matches_repr_on_raw_bit_patterns(bits):
    assert_spelled_as_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def neighbours(values: np.ndarray, steps: int) -> np.ndarray:
    """The doubles 1 to steps steps below and above each of values."""
    out, down, up = [], values, values
    for _ in range(steps):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
POWERS_OF_TEN = np.array([float(f"1e{n}") for n in range(-323, 309)])
SWEEP = {
    "powers of two and neighbours": np.concatenate([POWERS_OF_TWO,
                                                    neighbours(POWERS_OF_TWO, 1)]),
    "powers of ten": POWERS_OF_TEN,
    # where the shortest digits carry from 99...9 to 10...0
    "1 to 4 steps from powers of ten": neighbours(POWERS_OF_TEN, 4),
    "2^53 +- k": 2.0 ** 53 + np.arange(-2000.0, 2001.0),
    "edges": np.array([0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max,
                       np.inf, np.nan, 6.0, 0.1, 1e16, 1e-4, 1e-5, 123456789012345680.0]),
    "random bit patterns": np.random.default_rng(20201).integers(
        0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64),
}


@pytest.mark.parametrize("values", SWEEP.values(), ids=SWEEP.keys())
def test_spelling_matches_repr_on_the_sweep(values):
    assert_spelled_as_repr(np.concatenate([values, -values]))


def test_spelling_an_empty_array_gives_an_empty_array():
    assert spell(np.empty(0)).shape == (0,)


def test_a_report_block_peaks_within_its_memory_budget():
    """One spell call on a report block's 6 144 values (witness, bound and
    slack of 2048 points), its tables built: at most 396 B per value at the
    tracemalloc peak."""
    values = np.random.default_rng(6144).standard_normal(6144) * \
        10.0 ** np.random.default_rng(2048).integers(-20, 20, 6144)
    spell(values)
    tracemalloc.start()
    try:
        spell(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / values.size <= 396


def test_importing_the_cli_builds_no_spelling_table():
    probe = ("import json, tscale.cli, tscale.spelling as s; print(json.dumps("
             "{k: f.cache_info().currsize for k, f in vars(s).items() if hasattr(f, 'cache_info')}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env=env).stdout
    assert json.loads(out) == {"_g_table": 0, "_layout": 0, "_quads": 0}
