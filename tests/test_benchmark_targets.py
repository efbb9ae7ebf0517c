"""Every function the benchmark tracer wraps still exists in tscale, and its
counting hooks still find the attributes they read.

The tracer (benchmarks/tracer.py) names its targets as (module, attribute)
strings and skips a target it cannot find, so a renamed function would only
drop its span and the per-layer numbers built on it would read 0.  Its hooks
read ProductLadder.log_mode and KernelOracle._table, so a removed attribute
would crash a traced run or count every table as a build.  The file is
compiled from its source here and never imported, so the check writes
nothing under benchmarks/.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import numpy as np

from tscale import TimeScale2D, integer_segment
from tscale.exponential import ProductLadder
from tscale.grid2d import KernelOracle

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _tracer_module() -> types.ModuleType:
    module = types.ModuleType("benchmark_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr, *_ in _tracer_module().SPANS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"tracer targets missing from tscale: {missing}"


def test_counting_hooks_read_live_attributes():
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer()
    in_range, doubling = ProductLadder(np.full(20, 1.5)), ProductLadder(np.full(1200, 2.0))
    assert not in_range.log_mode and doubling.log_mode
    for ladder in (in_range, doubling):
        tracer_mod._count_ladder(tracer, (ladder,), lambda: None)
    assert tracer.counts["exponential.ladder.builds"] == 2
    assert tracer.counts["exponential.ladder.log_mode"] == 1

    d = TimeScale2D(integer_segment(0, 2), integer_segment(0, 2))
    oracle = KernelOracle.from_table(d, np.ones(d.shape * 2))
    assert oracle._table is oracle.table()
    tracer_mod._count_table(tracer, (oracle,), oracle.table)
    assert tracer.counts["grid2d.kernel_table.builds"] == 0
    assert tracer.counts["grid2d.kernel_table.bytes"] == oracle.table().nbytes
