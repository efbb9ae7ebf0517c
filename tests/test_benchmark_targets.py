"""Every function the benchmark tracer wraps still exists in tscale.

The tracer (benchmarks/tracer.py) names its targets as (module, attribute)
strings and skips a target it cannot find, so a renamed function would only
drop its span and the per-layer numbers built on it would read 0.  The file
is compiled from its source here and never imported, so the check writes
nothing under benchmarks/.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

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
