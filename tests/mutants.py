"""Mutation probe: does tier-1 notice a small edit of the source?

    python3 tests/mutants.py [NAME ...]

Each mutant in MUTANTS is one string edit of one file of src/tscale, and
every edit must match its file exactly once, or the probe stops before it
runs anything.  The probe copies src/, tests/, benchmarks/, README.md and
pyproject.toml into a temporary directory, applies one mutant at a time
there, runs the test files mapped to it with `pytest -x`, and prints
`killed` or `survived` per mutant with the seconds it took.  The mapped
files run once without a mutant first, and must pass, so that a failure
under a mutant (a failed test, or an error while collecting one) is the
mutant's doing.  The working tree is never written.  EQUIVALENT names the
mutants that no test can kill, each with its reason; the probe exits 1 if
any other mutant survives, or if a run ends in neither a pass nor a
failure.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file in src/tscale, text, its replacement, test files that should kill it)
MUTANTS = {
    # tolerance constants
    "regressivity-tol": ("exponential.py", "REGRESSIVITY_TOL = 1e-12",
                         "REGRESSIVITY_TOL = 1e-10", ["test_exponential.py"]),
    "product-block": ("exponential.py", "PRODUCT_BLOCK = 1000", "PRODUCT_BLOCK = 2000",
                      ["test_exponential.py", "test_reference_agreement.py"]),
    "violation-tol": ("bounds.py", "VIOLATION_TOL = 1e-9", "VIOLATION_TOL = 1e-7",
                      ["test_bounds.py"]),
    "hypothesis-slack": ("bounds.py", "HYPOTHESIS_SLACK = 1e-12", "HYPOTHESIS_SLACK = 1e-10",
                         ["test_bounds.py"]),
    # comparison operators and their thresholds
    "violation-over-2tol": ("bounds.py", "over = excess > tol", "over = excess > 2 * tol",
                            ["test_bounds.py"]),
    "nonneg-2slack": ("bounds.py", "~(worst >= -HYPOTHESIS_SLACK)",
                      "~(worst >= -2 * HYPOTHESIS_SLACK)", ["test_bounds.py"]),
    "band-edge-positive": ("exponential.py", "(factors <= band) if positive",
                           "(factors < band) if positive", ["test_exponential.py"]),
    "band-edge-both": ("exponential.py", "else (np.abs(factors) <= band)",
                       "else (np.abs(factors) < band)", ["test_exponential.py"]),
    # off-by-one windows: the first-variable exponential over 0 < s <= i in
    # place of 0 <= s < i, and mu2 dropped from the pointwise second-axis sum
    "exp-window": ("bounds.py", "mu[: c_ax.shape[-2] - 1, None] * c_ax[..., :-1, :]",
                   "mu[1: c_ax.shape[-2], None] * c_ax[..., 1:, :]",
                   ["test_bounds.py", "test_acceptance.py"]),
    "mu2-dropped": ("bounds.py", "exclusive_sums(k * q * mu2, -1)", "exclusive_sums(k * q, -1)",
                    ["test_bounds.py"]),
    # config key tables: no unknown-key check, and integer_segment reading h
    "unknown-keys-read": ("config.py", "        if key not in table:\n",
                          "        if False:\n", ["test_cli.py", "test_config_fuzz.py"]),
    "integer-segment-h": ("config.py", '"integer_segment": {"start": _GIVEN, "end": _GIVEN}',
                          '"integer_segment": {"start": _GIVEN, "end": _GIVEN, "h": _GIVEN}',
                          ["test_cli.py"]),
}

# Mutants no test can kill, and why.
EQUIVALENT = {
    "band-edge-positive": "no double mu*p puts 1 + mu*p exactly on its band's edge "
                          "(test_exponential.py::test_no_factor_lies_on_its_band_edge)",
    "band-edge-both": "the same: no factor lies on the edge of its band, on either side",
}


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "benchmarks"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)


def main(names: list[str]) -> int:
    chosen = names or list(MUTANTS)
    for name in chosen:
        file, old, _, _ = MUTANTS[name]
        found = (ROOT / "src" / "tscale" / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            sys.exit(f"{name}: {old!r} matches {found} times in {file}, not once")
    unexpected = []
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _copy_tree(work)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")

        def pytest(tests) -> int:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *(f"tests/{test}" for test in tests)],
                cwd=work, env=env, capture_output=True).returncode

        files = sorted({test for name in chosen for test in MUTANTS[name][3]})
        if pytest(files):
            sys.exit(f"{', '.join(files)} fail without a mutant")
        print(f"{', '.join(files)} pass without a mutant, in "
              f"{time.monotonic() - started:.0f} s", flush=True)
        for name in chosen:
            file, old, new, tests = MUTANTS[name]
            path = work / "src" / "tscale" / file
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(old, new), encoding="utf-8")
            begun = time.monotonic()
            code = pytest(tests)
            path.write_text(source, encoding="utf-8")
            # pytest exits 1 when a test fails, 2 when collecting one fails
            verdict = {0: "survived", 1: "killed", 2: "killed"}.get(
                code, f"error (pytest exit {code})")
            note = f"  equivalent: {EQUIVALENT[name]}" if name in EQUIVALENT else ""
            print(f"{name:22} {verdict:9} {time.monotonic() - begun:6.1f} s{note}", flush=True)
            if verdict != "killed" and not (verdict == "survived" and name in EQUIVALENT):
                unexpected.append(name)
    print(f"{len(chosen)} mutants in {time.monotonic() - started:.0f} s; "
          f"unexpected: {', '.join(unexpected) or 'none'}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
