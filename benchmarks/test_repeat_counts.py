"""Two traced runs of one seed must report the same work counts, exactly.

    python3 -m pytest benchmarks/test_repeat_counts.py

The counts depend only on the inputs, which the seed fixes, so any difference
means the inputs or the counting are not deterministic.  Each run is short
(one second of passes) but still runs every operation of its workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().with_name("run.py")
COUNTS = ("grid2d.kernel_table.bytes", "bounds.compute_bound.per_instance",
          "core.neumaier_cumsum.elements", "witnesses.cells")
# The counts each workload must do some of.
NONZERO = {
    "lattice-large": COUNTS[1:],
    "kernel": COUNTS,
    "batch-small": COUNTS[1:],
    "calculus-1d": COUNTS[2:],
}


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_counts_repeat_exactly(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    for name in COUNTS:
        assert first[name] == second[name], name
    for name in NONZERO[workload]:
        assert first[name] > 0, name
