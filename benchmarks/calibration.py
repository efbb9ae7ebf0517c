"""A fixed reference loop that measures how fast the host runs right now.

On a shared host, contention comes in phases of a minute or more that slow
tscale by up to 1.8x, longer than a run lasts, so no statistic over one run's
wall times cancels them.  This loop, math.fsum over growing slices of a fixed
array (the inner pattern of tscale's witnesses), slows with those phases:
over 200 s of phases that moved the median time of a 20-operation window by
33%, the median ratio of operation time to loop time moved by 6%.  The loop
is part of the benchmark, not of tscale, so a change to tscale leaves it
alone.

Times in reference seconds are wall seconds divided by slowdown() measured
next to them: the seconds a host would take on which the loop runs in
NOMINAL_S.
"""

import math
from time import perf_counter

import numpy as np

# About the loop's time on an uncontended 2.0 GHz Xeon vCPU.
NOMINAL_S = 0.1

_rng = np.random.default_rng(0)
_ARRAY = _rng.random((48, 48)) * np.exp(40.0 * _rng.random((48, 48)))


def slowdown() -> float:
    """Wall time of one run of the reference loop, in units of NOMINAL_S."""
    start = perf_counter()
    for i in range(1, 49):
        for j in range(1, 49):
            math.fsum(_ARRAY[:i, :j].ravel())
    return (perf_counter() - start) / NOMINAL_S
