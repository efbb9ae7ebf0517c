"""The vectorized spelling kernel against float.__repr__.

`tscale.spelling.spell` must give exactly the characters of the loop in
`references.numbers`, under the CSV rule (a trailing ".0" dropped) and the
JSON rule (NaN, Infinity, -Infinity), on drawn floats, raw bit patterns and a
sweep of the values where shortest round-trip digits are hardest to get right:
powers of two and their neighbours, powers of ten, the integers around 2^53,
zeros, subnormals, the largest double and the non-finite values.
"""

from __future__ import annotations

import os
import subprocess
import sys

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


def powers_of_two() -> np.ndarray:
    p2 = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([p2, np.nextafter(p2, 0.0), np.nextafter(p2, np.inf)])


SWEEP = {
    "powers of two and neighbours": powers_of_two(),
    "powers of ten": np.array([float(f"1e{n}") for n in range(-323, 309)]),
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


def test_importing_the_cli_builds_no_spelling_table():
    probe = ("import tscale.cli, tscale.spelling as s; "
             "print(s._g_table.cache_info().currsize, s._layout.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env=env).stdout
    assert out.split() == ["0", "0"]
