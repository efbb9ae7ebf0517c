"""tscale benchmark: one workload, measured for a fixed time, outputs checked.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; tscale is imported from the `src/` directory next to this
one, never from an installed copy.  The load is a closed loop: one process,
one client, one operation at a time.  A pass runs every operation of the
workload once; after one untimed warm-up pass, passes repeat until S seconds
have gone by, and each pass yields one points-per-second sample.  Every
pass's outputs are checked after its timing stops.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json:
set-up time (median over fresh processes), the median points per second and
the peak resident set.  Set-up time and points per second are in reference
seconds (see calibration.py): each set-up, and each pass, is paired with runs
of a fixed reference loop, which takes out the host's phases of contention.  With --trace 1 passes alternate between untraced and
traced, and the result carries the per-layer metrics: self time per pass of
each span kind, call and work counts per pass, and the tracing overhead.
Report files and the span trace go under `.bench_work/` at the root.

The text lines before the last give quartiles, sample counts, the base of
every ratio and the run's context; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("lattice-large", "kernel", "batch-small", "calculus-1d")
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LAYERS = ("cli", "config", "verify", "witnesses", "bounds", "grid2d", "core",
          "exponential")
# Span kinds whose self time is reported under a layer-wide name.
SELF_NAMES = {"cli.main": "cli.self", "verify.run_verification": "verify.self"}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    untraced: list[float] = field(default_factory=list)   # points per reference second
    traced: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)       # untraced points per wall second
    slowdown: list[float] = field(default_factory=list)   # host slowdown, per pass
    traced_s: float = 0.0
    report_bytes: int = 0                                  # over traced passes


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _cap_threads() -> dict:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: nproc for var in THREAD_VARS}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def _one_pass(wl, tally: Tally, tracer=None) -> tuple[float, int]:
    """Run and check one pass; return its time and the report bytes written."""
    with tracer.installed() if tracer else nullcontext():
        start = perf_counter()
        outcomes = wl.run_pass()
        elapsed = perf_counter() - start
    errors, report_bytes = wl.check(outcomes)
    bad = [e for e in errors if e]
    tally.attempted += len(errors)
    tally.failed += len(bad)
    tally.errors.extend(bad)
    return elapsed, report_bytes


def _measure(wl, seconds: float, slowdown, tracer) -> Tally:
    """Warm-up pass, then passes until `seconds` have elapsed; with a tracer,
    passes alternate untraced/traced and at least one of each runs.

    `slowdown` times the reference loop.  It runs between passes, and each
    pass is scaled by the mean of the runs just before and just after it.
    """
    tally = Tally()
    _one_pass(wl, tally)
    before = slowdown()
    deadline = perf_counter() + seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        elapsed, report_bytes = _one_pass(wl, tally, tracer if traced else None)
        after = slowdown()
        factor = (before + after) / 2
        before = after
        tally.slowdown.append(factor)
        rate = wl.points / elapsed
        (tally.traced if traced else tally.untraced).append(rate * factor)
        if traced:
            tally.traced_s += elapsed
            tally.report_bytes += report_bytes
        else:
            tally.wall.append(rate)
        k += 1
        if perf_counter() >= deadline and (tracer is None or k >= 2):
            return tally


def _probe_setup(files: list[Path]) -> list[tuple[float, float]]:
    """(set-up wall seconds, host slowdown) from each fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, files)]
    out = []
    for _ in range(SETUP_PROBES):
        setup_s, factor = subprocess.run(cmd, check=True, capture_output=True, text=True,
                                         timeout=120).stdout.split()
        out.append((float(setup_s), float(factor)))
    return out


def _layer_metrics(tracer, tally: Tally, wl) -> dict[str, float]:
    """Per-pass means over the traced passes, keyed by metric name."""
    n = len(tally.traced)
    out: dict[str, float] = {}
    for _, _, name, _ in SPANS:
        if name:
            stem = SELF_NAMES.get(name, name)
            out[f"{stem}.s"] = tracer.self_s.get(name, 0.0) / n
            out[f"{stem}.calls"] = tracer.calls.get(name, 0) / n
    for name in ("witnesses.cells", "core.neumaier_cumsum.elements",
                 "grid2d.kernel_table.builds", "grid2d.kernel_table.bytes",
                 "exponential.ladder.builds", "exponential.ladder.log_mode"):
        out[name] = tracer.counts.get(name, 0.0) / n
    calls = out["bounds.compute_bound.calls"]
    out["bounds.compute_bound.per_instance"] = calls / wl.instances if wl.instances else 0.0
    tables = out["grid2d.kernel_table.calls"]
    out["grid2d.kernel_table.hit_ratio"] = \
        (tables - out["grid2d.kernel_table.builds"]) / tables if tables else 0.0
    out["cli.report_bytes"] = tally.report_bytes / n
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = sum(s for name, s in tracer.self_s.items()
                                      if name.split(".")[0] == layer) / n
    out["layer.harness.s"] = (tally.traced_s - tracer.root_s) / n
    out["trace.pass.s"] = tally.traced_s / n
    out["wall.points_per_s"] = statistics.median(tally.wall)
    out["host.slowdown"] = statistics.median(tally.slowdown)
    out["trace.overhead_points_per_s"] = \
        statistics.median(tally.traced) - statistics.median(tally.untraced)
    return out


def _spans_consistent(tracer, tally: Tally) -> bool:
    """Self times must add up to the root spans, which fit in the passes."""
    total = sum(tracer.self_s.values())
    return abs(total - tracer.root_s) <= 1e-9 * max(1.0, tracer.root_s) \
        and tracer.root_s <= tally.traced_s


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tscale" / "__init__.py").is_file():
        print(f"error: no tscale sources at {SRC}", file=sys.stderr)
        return 2
    caps = _cap_threads()
    sys.path.insert(0, str(SRC))
    # numpy reads the thread caps when it loads, so import after setting them.
    import numpy as np
    import tscale
    from calibration import slowdown
    from workloads import make_workload

    if not Path(tscale.__file__).resolve().is_relative_to(SRC):
        print(f"error: tscale imported from {tscale.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        setup = [] if args.trace else _probe_setup(wl.setup_files)
        tracer = Tracer() if args.trace else None
        tally = _measure(wl, args.seconds, slowdown, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"seconds {args.seconds:g}: 1 warm-up pass, {len(tally.untraced)} untraced "
             f"and {len(tally.traced)} traced passes"]
    for label, samples in (("points_per_s", tally.untraced),
                           ("traced points_per_s", tally.traced),
                           ("wall-clock points_per_s", tally.wall),
                           ("host slowdown", tally.slowdown)):
        if samples:
            q1, q2, q3 = _quartiles(samples)
            lines.append(f"{label}: median {q2:.6g} p25 {q1:.6g} p75 {q3:.6g} n {len(samples)}")
    if args.trace:
        values = _layer_metrics(tracer, tally, wl)
        kind = "per_layer"
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.csv.gz")
        if not _spans_consistent(tracer, tally):
            correct = False
            lines.append("error: span self times do not add up to the traced time")
        if tracer.missing:
            lines.append(f"warning: not traced, missing from tscale: {sorted(tracer.missing)}")
        lines.append(f"tracing overhead: {values['trace.overhead_points_per_s']:.6g} points/s "
                     f"(traced minus untraced median)")
    else:
        values = {
            "setup_s": statistics.median(s / factor for s, factor in setup),
            "points_per_s": statistics.median(tally.untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        kind = "end_to_end"
        lines.append(f"setup_s: median {values['setup_s']:.6g} over {len(setup)} fresh "
                     f"processes; wall-clock s and host slowdown: "
                     f"{[(round(s, 4), round(factor, 3)) for s, factor in setup]}")
        lines.append(f"peak_rss_mb: {values['peak_rss_mb']:.6g}")
    lines.append(f"failed_ratio: {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    lines.extend(f"failure: {e}" for e in tally.errors[:10])
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "thread_caps": caps,
        "per_pass": {"points": wl.points, "instances": wl.instances, "calls": wl.ops},
        "passes": {"warmup": 1, "untraced": len(tally.untraced),
                   "traced": len(tally.traced)},
    }
    lines.append("context " + json.dumps(context, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[kind]}
    lines.append(json.dumps({"correct": correct, "attempted": tally.attempted,
                             "failed": tally.failed, "metrics": metrics}))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
