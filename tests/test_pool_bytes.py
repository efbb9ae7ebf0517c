"""Every report the benchmark's pool configs write keeps the bytes recorded in
pool_bytes.txt.

tests/pool_bytes.py prints one sha256 per report file (see its docstring).
pool_bytes.txt holds its output under one header line that names numpy's
version, the machine and the SIMD targets numpy dispatches to on this CPU,
which decide the bits of its vector loops (exp, log, power); the test skips
on a host whose header differs.  A change that alters report bytes
regenerates the file with

    python3 tests/test_pool_bytes.py

and lists the changed digests in CHANGES.md.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:     # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "pool_bytes.py"
DIGESTS = HERE / "pool_bytes.txt"


def _header() -> str:
    simd = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    return f"# numpy {np.__version__} on {platform.machine()}, SIMD targets: {simd}"


def _run_script() -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=900)


def test_pool_reports_keep_their_recorded_bytes():
    header, *want = DIGESTS.read_text(encoding="utf-8").splitlines()
    if header != _header():
        pytest.skip(f"digests recorded under '{header}', this host is '{_header()}'")
    run = _run_script()
    got = run.stdout.splitlines()
    for line, (new, old) in enumerate(zip(got, want), 2):
        assert new == old, f"pool_bytes.txt line {line}: recorded {old!r}, printed {new!r}"
    assert run.returncode == 0, run.stderr
    assert len(got) == len(want), f"printed {len(got)} digest lines, recorded {len(want)}"


if __name__ == "__main__":
    run = _run_script()
    sys.stderr.write(run.stderr)
    if run.returncode:
        raise SystemExit(run.returncode)
    DIGESTS.write_text(f"{_header()}\n{run.stdout}", encoding="utf-8")
