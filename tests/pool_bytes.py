"""Print a sha256 of every report that the benchmark's pool configs write.

    python3 tests/pool_bytes.py > digests.txt

Runs every verify job of benchmarks/workloads.py, for each config seed of its
POOL, and the jobs of MULTI_BLOCK below for seeds 0-2, in both report
formats, through tscale.cli.main into a temporary directory, and prints one
line `<workload>/<job>/<seed>/<format> <file> <sha256>` per file written, or
`<workload>/<job>/<seed>/<format> exit N` for a config that exits nonzero,
and then exits 1 itself.  Run it on two trees and diff the outputs: equal
outputs mean the change kept every report byte.  It runs the tscale of the
tree it sits in.  workloads.py is compiled from its source and never
imported, so the script writes nothing under benchmarks/; pytest does not
collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tscale import cli  # noqa: E402

WORKLOADS = ROOT / "benchmarks" / "workloads.py"
# Reports that span many spelling blocks: one 199x199 kappa lattice (39 601
# rows), and 40 system reports of 80 rows whose blocks cross report bounds.
MULTI_BLOCK = [
    ("pointwise-200x200", {"theorem": "pointwise", "scale1": "h:0.005,0..0.995",
                           "scale2": "h:0.005,0..0.995", "output": {}}),
    ("system-40x11x9", {"theorem": "system", "scale1": "integer:0..10",
                        "scale2": "q:2,8", "count": 40, "output": {}}),
]


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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
