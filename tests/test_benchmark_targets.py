"""Every function the benchmark tracer wraps still exists in tscale, and its
counting hooks still find the attributes they read.

The tracer (benchmarks/tracer.py) names its targets as (module, attribute)
strings and skips a target it cannot find, so a renamed function would only
drop its span and the per-layer numbers built on it would read 0.  Its hooks
read ProductLadder.log_mode and KernelOracle._table, so a removed attribute
would crash a traced run or count every table as a build.  Its
config.realize.calls counts one realizer call per function per verify
stack, which realizes that function for all the stack's instances at once.
The file is compiled from its source here and never imported, so the check
writes nothing under benchmarks/.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import numpy as np

import tscale
from tscale import (BoundCase, GridFn1, TimeScale2D, config, dense_mesh, grid2d,
                    integer_segment, verify)
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


def test_one_variable_sums_count_their_elements():
    """core.neumaier_cumsum.elements adds the size of what neumaier_cumsum
    returns, so antiderivative and comparison_bound must call the public
    function and get back the whole run they summed: n - 1 terms for an
    antiderivative anchored inside the scale, in two calls, and the window
    [a, n - 1) for the comparison bound."""
    s = dense_mesh(0.0, 1.0, 0.01)
    n = len(s)
    f = GridFn1(s, np.linspace(0.5, 1.5, n))
    runs = [(lambda: tscale.antiderivative(f, 40, 1.0), n - 1, 2),
            (lambda: tscale.comparison_bound(1.5, f, f, 30), n - 1 - 30, 1)]
    for call, elements, calls in runs:
        tracer = _tracer_module().Tracer()
        with tracer.installed():
            call()
        assert tracer.counts["core.neumaier_cumsum.elements"] == elements
        assert tracer.calls["core.neumaier_cumsum"] == calls


REALIZERS = ("realize_1d", "realize_2d", "realize_kernel", "realize_scalar")


def test_one_realizer_call_per_realized_function(monkeypatch):
    """The tracer's config.realize.calls counts one call per realized function
    and stack, so no realizer may reach another through its module name.  Each
    is patched where the tracer wraps it: on tscale.config and on
    tscale.verify.  A batch of five instances is one stack, or three under a
    limit of two instances per stack, and each stack realizes each function
    once."""
    calls = []
    for name in REALIZERS:
        def counted(*args, _fn=getattr(config, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        for module in (config, verify):
            monkeypatch.setattr(module, name, counted)
    expected = {
        BoundCase.INTEGRODYNAMIC: ["realize_1d", "realize_1d", "realize_2d"],
        BoundCase.SYSTEM: ["realize_scalar"] * 2 + ["realize_2d"] * 4,
        BoundCase.KERNEL: ["realize_2d", "realize_2d", "realize_kernel"],
    }
    for case, names in expected.items():
        calls.clear()
        verify.run_verification(verify.InstanceSpec(
            case=case, scale1=config.parse_scale("integer:0..3"),
            scale2=config.parse_scale("q:2,2"), rng_seed=5, count=1))
        assert calls == names
    for count, limit, stacks in ((5, None, 1), (5, 2 * 12, 3)):
        if limit is not None:
            monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", limit)
        for case, names in expected.items():
            calls.clear()
            verify.run_verification(verify.InstanceSpec(
                case=case, scale1=config.parse_scale("integer:0..3"),
                scale2=config.parse_scale("q:2,2"), rng_seed=5, count=count))
            assert calls == names * stacks
