"""Spans around calls into tscale's modules, recorded from outside the package.

`Tracer.installed()` puts a timing wrapper in every tscale namespace that holds
a traced function, so a call is seen whether its caller looks the function up
on its home module or imported it by name (`verify.compute_bound`,
`bounds.running_integral`, `grid2d.neumaier_cumsum`, the package itself).
Methods are wrapped on their class.  Calls routed through `bounds._DISPATCH`
would bypass wrappers on `bounds.bound_*`, so that layer is timed at
`compute_bound`.

A span's self time is its duration minus the durations of its direct
children.  The program runs on one thread and spans nest, so self times add up
to the time covered by root spans without double counting.  Each span records
its root span's index, which identifies the operation (one `cli.main` call or
one 1-D call) that caused it.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter


def _count_cells(tracer: "Tracer", args, call):
    out = call()
    first = out[0] if isinstance(out, tuple) else out
    tracer.counts["witnesses.cells"] += first.values.size
    return out


def _count_elements(tracer: "Tracer", args, call):
    out = call()
    tracer.counts["core.neumaier_cumsum.elements"] += out.size
    return out


def _count_table(tracer: "Tracer", args, call):
    # A call builds the table when the oracle held none before it.
    cached = getattr(args[0], "_table", None) is not None
    table = call()
    if table is not None:
        tracer.counts["grid2d.kernel_table.builds"] += not cached
        if id(table) not in tracer.tables:
            tracer.tables[id(table)] = table
            tracer.counts["grid2d.kernel_table.bytes"] += table.nbytes
    return table


def _count_ladder(tracer: "Tracer", args, call):
    call()
    tracer.counts["exponential.ladder.builds"] += 1
    tracer.counts["exponential.ladder.log_mode"] += bool(args[0].log_mode)


# (module, attribute, span name, counting hook).  A span name is
# "<layer>.<function>"; entries sharing a name are one span kind.
SPANS = [
    ("tscale.cli", "main", "cli.main", None),
    ("tscale.config", "parse_scale", "config.parse", None),
    ("tscale.config", "parse_fn", "config.parse", None),
    ("tscale.config", "ScaleSpec.build", "config.build", None),
    ("tscale.config", "realize_1d", "config.realize", None),
    ("tscale.config", "realize_2d", "config.realize", None),
    ("tscale.config", "realize_kernel", "config.realize", None),
    ("tscale.config", "realize_scalar", "config.realize", None),
    ("tscale.verify", "run_verification", "verify.run_verification", None),
    ("tscale.witnesses", "witness_pointwise", "witnesses.pointwise", _count_cells),
    ("tscale.witnesses", "witness_kernel", "witnesses.kernel", _count_cells),
    ("tscale.witnesses", "witness_system", "witnesses.system", _count_cells),
    ("tscale.witnesses", "witness_integrodynamic", "witnesses.integrodynamic",
     _count_cells),
    ("tscale.witnesses", "witness_comparison", "witnesses.comparison", _count_cells),
    ("tscale.bounds", "compute_bound", "bounds.compute_bound", None),
    ("tscale.bounds", "check_hypotheses", "bounds.check_hypotheses", None),
    ("tscale.bounds", "gronwall_2d", "bounds.gronwall_2d", None),
    ("tscale.grid2d", "running_integral", "grid2d.running_integral", None),
    ("tscale.grid2d", "KernelOracle.table", "grid2d.kernel_table", _count_table),
    ("tscale.core", "neumaier_cumsum", "core.neumaier_cumsum", _count_elements),
    ("tscale.core", "antiderivative", "core.antiderivative", None),
    ("tscale.core", "delta_derivative", "core.delta_derivative", None),
    ("tscale.core", "cauchy_integral", "core.cauchy_integral", None),
    ("tscale.exponential", "exp_fn", "exponential.exp_fn", None),
    ("tscale.exponential", "comparison_bound", "exponential.comparison_bound", None),
    # counted, not timed: its time stays with the caller
    ("tscale.exponential", "ProductLadder.__init__", None, _count_ladder),
]


class Tracer:
    """Accumulates self time, calls and counts per span name while installed."""

    def __init__(self):
        self.spans: list = []        # (root index, name, start, end, parent index)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.tables = weakref.WeakValueDictionary()  # kernel tables counted, by id
        self.missing: set[str] = set()   # targets the package no longer has
        self._stack: list[list] = []     # [span index, root index, child seconds]

    def _timed(self, fn, name: str, hook):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else None
            frame = [index, parent[1] if parent else index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, args, lambda: fn(*args, **kwargs))
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if parent is None:
                    tracer.root_s += duration
                else:
                    parent[2] += duration
                tracer.spans[index] = (frame[1], name, start, end,
                                       parent[0] if parent else -1)

        return traced

    def _counted(self, fn, hook):
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            return hook(tracer, args, lambda: fn(*args, **kwargs))

        return counted

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        patched = []
        try:
            for module_name, attr, name, hook in SPANS:
                module = importlib.import_module(module_name)
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, member, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                wrapper = self._counted(original, hook) if name is None \
                    else self._timed(original, name, hook)
                if owner_name:
                    holders = [owner]
                else:
                    holders = [mod for key, mod in list(sys.modules.items())
                               if (key == "tscale" or key.startswith("tscale."))
                               and getattr(mod, member, None) is original]
                for holder in holders:
                    setattr(holder, member, wrapper)
                    patched.append((holder, member, original))
            yield self
        finally:
            for holder, member, original in reversed(patched):
                setattr(holder, member, original)

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV; times are seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,operation,name,start_s,end_s,parent\n")
            for i, (root, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{root},{name},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent}\n")
