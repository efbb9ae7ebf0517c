"""Print a sha256 of every report that the benchmark's pool configs write.

    python3 tests/pool_bytes.py > digests.txt

Runs every verify job of benchmarks/workloads.py, for each config seed of its
POOL, and the jobs of MULTI_BLOCK below for seeds 0-2, in both report
formats, through tscale.cli.main into a temporary directory, and prints one
line `<workload>/<job>/<seed>/<format> <file> <sha256>` per file written, or
`<workload>/<job>/<seed>/<format> exit N` for a config that exits nonzero.
It then prints one line `kernel-paths/<kernel>/<seed>/<variant> <sha256>`
of the bound and witness bytes and the diagnostics of each
bound_kernel_variants report of KERNEL_PATHS, kernels that no config
builds, then one line `calculus-1d/<scale>/<call>/<seed> <sha256>` per
one-variable call of the calculus-1d workload on each of its scales, seeds
0-2, and exits 1 if a config exited nonzero.  Run it on two trees and
diff the outputs: equal outputs mean the change kept every report byte.
It runs the tscale of the tree it sits in.  workloads.py is compiled from
its source and never imported, so the script writes nothing under
benchmarks/; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tscale import (GridFn1, GridFn2, KernelInputs, KernelOracle,  # noqa: E402
                    TimeScale2D, bound_kernel_variants, cli, integer_segment, q_grid,
                    witness_kernel)

WORKLOADS = ROOT / "benchmarks" / "workloads.py"
# Reports that span many spelling blocks: one 199x199 kappa lattice (39 601
# rows); 40 system reports of 80 rows whose blocks cross report bounds; and
# three 150x150 kappa lattices that verify checks in stacks of 2 and 1, so
# that block 21 (rows 43 008-45 055) crosses the stack bound at row 45 000.
MULTI_BLOCK = [
    ("pointwise-200x200", {"theorem": "pointwise", "scale1": "h:0.005,0..0.995",
                           "scale2": "h:0.005,0..0.995", "output": {}}),
    ("system-40x11x9", {"theorem": "system", "scale1": "integer:0..10",
                        "scale2": "q:2,8", "count": 40, "output": {}}),
    ("pointwise-3x151x151", {"theorem": "pointwise", "scale1": "h:0.01,0..1.5",
                             "scale2": "h:0.01,0..1.5", "count": 3, "output": {}}),
]

# Kernels that no config builds, each drawn with some negative values so that
# diagnostics fire: a dense table, a two-term factored kernel and a stack of
# three one-term kernels (shape of the stack, then the kernel).
KERNEL_PATHS = {
    "dense": lambda d, rng: ((), KernelOracle.from_table(d, rng.uniform(-0.05, 1.0, d.shape * 2))),
    "two-term": lambda d, rng: ((), KernelOracle.separable(
        d, *rng.uniform(-0.05, 1.0, (2, 2, *d.shape)))),
    "one-term-stack": lambda d, rng: ((3,), KernelOracle.separable(
        d, *rng.uniform(-0.05, 1.0, (2, 1, 3, *d.shape)))),
}


def _kernel_lines() -> list[str]:
    """One line per bound_kernel_variants report of each KERNEL_PATHS kernel,
    seeds 0-2, on a 7x6 lattice with the kernel's witness at feedback 0.5."""
    d = TimeScale2D(q_grid(1.5, 6), integer_segment(0, 5))
    lines = []
    for name, build in KERNEL_PATHS.items():
        for seed in range(3):
            rng = np.random.Generator(np.random.PCG64(seed))
            stack, kernel = build(d, rng)
            p, q = (GridFn2(d, rng.uniform(0.1, 1.0, (*stack, *d.shape))) for _ in "pq")
            u = witness_kernel(p, q, kernel, 0.5)
            for variant, report in bound_kernel_variants(KernelInputs(p, q, kernel, u)).items():
                digest = hashlib.sha256(report.bound.values.tobytes())
                digest.update(report.witness.values.tobytes())
                digest.update(json.dumps(report.hypothesis_diagnostics).encode())
                lines.append(f"kernel-paths/{name}/{seed}/{variant.value} {digest.hexdigest()}")
    return lines


def _calculus_lines(workloads: types.ModuleType) -> list[str]:
    """One line per call of a calculus-1d pass, seeds 0-2, with its inputs
    built as the workload builds them: the sha256 of the output's points,
    tags and values, or of the integral's float, or the error raised."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(3):
            work = workloads.CalculusWorkload(seed, Path(tmp))
            for case, outcome in zip(work.cases, work.run_pass()):
                for call, value in outcome.items():
                    if isinstance(value, Exception):
                        digest = f"raised {value!r}"
                    elif isinstance(value, GridFn1):
                        digest = hashlib.sha256(value.scale.points.tobytes())
                        digest.update(value.scale.dense.tobytes())
                        digest.update(value.values.tobytes())
                        digest = digest.hexdigest()
                    else:
                        digest = hashlib.sha256(np.float64(value).tobytes()).hexdigest()
                    lines.append(f"calculus-1d/{case.label}/{call}/{seed} {digest}")
    return lines


def _workloads() -> types.ModuleType:
    module = types.ModuleType("benchmark_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module    # its dataclasses look their module up
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
         module.__dict__)
    return module


def main() -> int:
    workloads = _workloads()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        pools = [(workload, jobs, workloads.POOL[workload])
                 for workload, jobs in workloads.TEMPLATES.items()]
        for workload, jobs, pool in pools + [("multi-block", MULTI_BLOCK, 3)]:
            for job_name, template in jobs:
                for seed in range(pool):
                    for fmt in ("csv", "json"):
                        cfg = workloads.job_config(template, seed, work / "report")
                        cfg["output"]["format"] = fmt
                        config = work / "config.json"
                        config.write_text(json.dumps(cfg))
                        code = cli.main(["verify", str(config)])
                        config.unlink()
                        where = f"{workload}/{job_name}/{seed}/{fmt}"
                        if code != 0:
                            failed = True
                            print(f"{where} exit {code}")
                        for path in sorted(work.iterdir()):
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            print(f"{where} {path.name} {digest}", flush=True)
                            path.unlink()
    print("\n".join(_kernel_lines()))
    print("\n".join(_calculus_lines(workloads)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
