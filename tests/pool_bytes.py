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
0-2, then one line `fallback/<case>/<call>/<seed> <sha256>` per call of
FALLBACK_CASES, seeds 0-2, and exits 1 if a config exited nonzero.  Run it on two trees and
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
                    TimeScale2D, bound_kernel_variants, cli, comparison_bound, exp_fn,
                    integer_segment, q_grid, witness_comparison, witness_kernel)

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


def _digest(value) -> str:
    """The sha256 of a GridFn1's points, tags and values, or of a float, or
    the error raised."""
    if isinstance(value, Exception):
        return f"raised {value!r}"
    if isinstance(value, GridFn1):
        digest = hashlib.sha256(value.scale.points.tobytes())
        digest.update(value.scale.dense.tobytes())
        digest.update(value.values.tobytes())
        return digest.hexdigest()
    return hashlib.sha256(np.float64(value).tobytes()).hexdigest()


def _calculus_lines(workloads: types.ModuleType) -> list[str]:
    """One line per call of a calculus-1d pass, seeds 0-2, with its inputs
    built as the workload builds them."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(3):
            work = workloads.CalculusWorkload(seed, Path(tmp))
            for case, outcome in zip(work.cases, work.run_pass()):
                for call, value in outcome.items():
                    lines.append(f"calculus-1d/{case.label}/{call}/{seed} {_digest(value)}")
    return lines


def _through_tiny(rng) -> dict:
    """32 factors 1 + mu*p near 1e-11, then 32 near 1e11: the running product
    passes through about 1e-346 and comes back.  20 factors near 1e-10, then
    10 near 1e35: every prefix from index 0 is normal, but the reciprocal
    products back from the last point pass below 1e-308.  Factors 1 + mu*g near 1e-5 take e_g through about 1e-315,
    and f near 1e-10 keeps the bound's quotients finite."""
    s = integer_segment(0, 64)
    mags = np.concatenate((rng.uniform(1.0, 2.0, 32) * 1e-11, rng.uniform(1.0, 2.0, 32) * 1e11))
    p = GridFn1(s, np.append(mags - 1.0, 0.0))
    mags = np.concatenate((rng.uniform(1.0, 2.0, 20) * 1e-10, rng.uniform(1.0, 2.0, 10) * 1e35))
    p_ratio = GridFn1(integer_segment(0, 30), np.append(mags - 1.0, 0.0))
    g = GridFn1(s, rng.uniform(0.9e-5, 1.1e-5, len(s)) - 1.0)
    f = GridFn1(s, rng.uniform(0.5, 1.5, len(s)) * 1e-10)
    x_a, slack = rng.uniform(1.0, 2.0), rng.uniform(0.0, 1e-10)
    return {"exp_fn": lambda: exp_fn(p, 0),
            "exp_fn_anchored": lambda: exp_fn(p, 16),
            "exp_fn_ratio": lambda: exp_fn(p_ratio, 30),
            "comparison_bound": lambda: comparison_bound(x_a, f, g, 1),
            "witness_comparison": lambda: witness_comparison(f, g, x_a, 0),
            "witness_comparison_slack": lambda: witness_comparison(f, g, x_a, 0, slack)}


def _through_huge(rng) -> dict:
    """31 factors 1 + mu*g near 1e10, then 29 near 1e-10: the comparison
    witness's products pass 1e308 while x, from near 1e-300, stays finite;
    factors near 2 take products from index 0 past 2**1500, while exp_fn's,
    outward from the middle, stay within 2**±800."""
    s = integer_segment(0, 60)
    g = GridFn1(s, np.concatenate((rng.uniform(1.0, 2.0, 31) * 1e10,
                                   rng.uniform(1.0, 2.0, 30) * 1e-10)) - 1.0)
    f = GridFn1(s, rng.uniform(-1.0, 1.0, len(s)) * 1e-300)
    p = GridFn1(integer_segment(0, 1600), rng.uniform(0.5, 1.5, 1601))
    x_a = rng.uniform(1.0, 2.0) * 1e-300
    return {"exp_fn": lambda: exp_fn(p, 800),
            "witness_comparison": lambda: witness_comparison(f, g, x_a, 0),
            "witness_comparison_slack": lambda: witness_comparison(f, g, x_a, 0, 1e-300)}


# One-variable calls whose running products, or the prefixes from index 0 of
# their factors, leave the normal doubles.
FALLBACK_CASES = {"through-tiny": _through_tiny, "through-huge": _through_huge}


def _fallback_lines() -> list[str]:
    """One line per call of each FALLBACK_CASES case, seeds 0-2."""
    lines = []
    for name, case in FALLBACK_CASES.items():
        for seed in range(3):
            for call, run in case(np.random.Generator(np.random.PCG64(seed))).items():
                try:
                    value = run()
                except Exception as exc:    # its repr is the digest
                    value = exc
                lines.append(f"fallback/{name}/{call}/{seed} {_digest(value)}")
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
    print("\n".join(_fallback_lines()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
