"""Record the verify summaries that the benchmark checks its outputs against.

    python3 benchmarks/record_reference.py

Runs every job of every 2-D workload for each config seed of its POOL through
`tscale verify` and writes the compared part of each report (see
`workloads.read_report`) to reference.json.  Record on a version of tscale whose outputs are trusted, and
again whenever a job template in workloads.py changes.  A job that fails,
counts a violation or misses the re-check tolerance stops the recording, so
the benchmark never runs an operation that is expected to fail.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tscale import cli  # noqa: E402
from workloads import (POOL, REFERENCE, TEMPLATES, job_config, read_report,  # noqa: E402
                       summary_problem)


def main() -> None:
    workdir = ROOT / ".bench_work" / "record"
    reference: dict = {}
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        for workload, jobs in TEMPLATES.items():
            for job_name, template in jobs:
                by_seed = reference.setdefault(workload, {}).setdefault(job_name, {})
                for config_seed in range(POOL[workload]):
                    stem = workdir / job_name
                    cfg = job_config(template, config_seed, stem)
                    path = workdir / f"{job_name}.json"
                    path.write_text(json.dumps(cfg))
                    where = f"{workload}/{job_name} seed {config_seed}"
                    code = cli.main(["verify", str(path)])
                    if code != 0:
                        raise SystemExit(f"{where}: exit code {code}")
                    report, _, _ = read_report(stem, cfg["output"]["format"])
                    problem = summary_problem(report["summary"])
                    if problem:
                        raise SystemExit(f"{where}: {problem}")
                    by_seed[str(config_seed)] = report
                print(f"{workload}/{job_name}: {POOL[workload]} seeds recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
