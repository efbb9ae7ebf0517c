"""The benchmark's four workloads: inputs made from a seed, one pass, output checks.

A 2-D workload is a list of verify jobs, each run as `tscale verify` through
`cli.main`; one job is one operation.  Each job is a config template.  Before
every pass a generator seeded with the workload seed draws each job's config
seed from a pool whose summaries `reference.json` records, so every summary is
checked against a reference.  The witnesses' cost depends on the data (math.fsum
slows as the magnitudes it sums spread out, and the slack factor sets how far
they spread), so fresh inputs per pass keep one run's median from resting on
one draw.  calculus-1d draws its coefficient arrays from the workload seed and
checks calculus identities that need no reference; there each call is one
operation.

Both workload classes offer the same surface: `setup_files` (what a fresh
process parses and builds for `setup_s`), the per-pass bases `points`,
`instances` and `ops`, `run_pass()` (the timed part) and `check(outcomes)`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tscale
from tscale import cli
from tscale.config import parse_scale

# Config seeds recorded per job in reference.json.  batch-small's 50 instances
# per job already mix many draws, and its digests make the file's bulk.
POOL = {"lattice-large": 32, "kernel": 32, "batch-small": 8}
REFERENCE = Path(__file__).resolve().with_name("reference.json")

# Report rows compared with the reference, evenly spaced over each report.
SAMPLED_ROWS = 8
# Largest hypothesis_residual accepted; tscale's own re-check tolerance.
RECHECK_TOL = 1e-10
# A summary number matches its reference when
# |value - reference| <= SUMMARY_TOL * (1 + |reference|).
SUMMARY_TOL = 1e-9
# Tolerance of the 1-D calculus identities, relative to the operands' size.
IDENTITY_TOL = 1e-12


def _same(family: str, *names: str) -> dict:
    return {name: {"family": family} for name in names}


_CSV = {"format": "csv"}
_JSON = {"format": "json"}
_KERNEL_LATTICE = {"theorem": "kernel", "scale1": "integer:0..30",
                   "scale2": "q:1.05,30", "count": 2, "exponent_variant": "both",
                   "witness_mode": "strict_slack", "output": _CSV}


def _batch_small() -> list[tuple[str, dict]]:
    """pointwise, system and integrodynamic on 11x11 (CSV, equality witnesses)
    and 11x9 (JSON, slack witnesses), 50 instances each, families sampled."""
    jobs = []
    for theorem in ("pointwise", "system", "integrodynamic"):
        jobs.append((f"{theorem}-11x11", {
            "theorem": theorem, "scale1": "integer:0..10", "scale2": "integer:0..10",
            "count": 50, "witness_mode": "equality", "output": _CSV}))
        jobs.append((f"{theorem}-11x9", {
            "theorem": theorem, "scale1": "integer:0..10", "scale2": "q:2,8",
            "count": 50, "witness_mode": "strict_slack", "output": _JSON}))
    return jobs


# Workload -> [(job name, verify config without seed and output path)].
# Tabulated coefficients keep the spread of magnitudes that math.fsum sums
# alike from one config seed to the next.
TEMPLATES = {
    "lattice-large": [
        ("pointwise", {
            "theorem": "pointwise", "scale1": "integer:0..80", "scale2": "q:1.05,80",
            "functions": _same("tabulated", "p", "q", "k"),
            "witness_mode": "strict_slack", "output": _CSV}),
        ("system", {
            "theorem": "system", "scale1": "integer:0..63", "scale2": "integer:0..63",
            "functions": _same("tabulated", "h1", "h2", "h3", "h4"),
            "witness_mode": "strict_slack", "output": _CSV}),
        ("integrodynamic", {
            "theorem": "integrodynamic", "scale1": "integer:0..64",
            "scale2": {"kind": "union", "of": ["integer:0..32", "q:1.1,32"]},
            "functions": {**_same("polynomial", "a", "b"), "c": {"family": "tabulated"}},
            "witness_mode": "strict_slack", "output": _CSV}),
    ],
    "kernel": [
        ("constant", {**_KERNEL_LATTICE, "functions": {
            **_same("tabulated", "p", "q"), "k": {"family": "constant"}}}),
        ("affine_product", {**_KERNEL_LATTICE, "functions": {
            **_same("tabulated", "p", "q"), "k": {"family": "affine_product"}}}),
    ],
    "batch-small": _batch_small(),
}

# calculus-1d: a 1e5-point dense mesh and a mixed integer-then-dense scale.
SCALES_1D = [
    {"kind": "dense_mesh", "start": 0, "end": 1000, "h": 0.01},
    {"kind": "union", "of": ["integer:0..2000", "dense:0.01,2000..2500"]},
]
# Integral of exp_fn's coefficient over each scale.  e^800 leaves the float
# range, so the product ladder must switch to log space; anchoring at the
# midpoint of the integral keeps every value within e^400.
EXP_INTEGRAL = 800.0
# Integral of comparison_bound's coefficient: large, but representable.
COMPARISON_INTEGRAL = 200.0
CALLS_1D = ("antiderivative", "delta_derivative", "cauchy_integral", "exp_fn",
            "comparison_bound", "witness_comparison", "witness_comparison_slack")


def job_config(template: dict, config_seed: int, stem: Path) -> dict:
    """The verify config of one job: template plus seed and report path."""
    cfg = json.loads(json.dumps(template))
    cfg["seed"] = config_seed
    cfg["output"] = {**cfg["output"], "path": str(stem)}
    return cfg


def _attempt(fn, *args):
    """fn(*args), or the exception it raised; an exception argument (a failed
    earlier call) is passed through without calling fn."""
    for arg in args:
        if isinstance(arg, Exception):
            return arg
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def _mismatch(got, ref, where: str) -> str | None:
    """Path of the first entry where got differs from ref, or None.  Keys that
    ref lacks are not compared, so a summary may gain fields."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or not ref.keys() <= got.keys():
            return where
        for key in ref:
            bad = _mismatch(got[key], ref[key], f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return where
        for i, (g, r) in enumerate(zip(got, ref)):
            bad = _mismatch(g, r, f"{where}[{i}]")
            if bad:
                return bad
        return None
    numbers = (int, float)
    if isinstance(ref, numbers) and isinstance(got, numbers) \
            and not isinstance(ref, bool) and not isinstance(got, bool):
        if got == ref or (math.isnan(got) and math.isnan(ref)):
            return None
        return None if abs(got - ref) <= SUMMARY_TOL * (1.0 + abs(ref)) else where
    return None if got == ref and type(got) is type(ref) else where


@dataclass(frozen=True)
class Job:
    name: str
    configs: list[Path]     # indexed by config seed
    stem: Path
    fmt: str
    references: dict        # config seed (as text) -> recorded summary
    instances: int
    points: int             # lattice points verified, n1 * n2 * count
    rows: int               # report rows, kappa points * count


class LatticeWorkload:
    """Verify jobs through cli.main; work is lattice points verified."""

    def __init__(self, name: str, seed: int, workdir: Path):
        reference = json.loads(REFERENCE.read_text())[name]
        self.rng = np.random.default_rng(seed)
        self.jobs: list[Job] = []
        for job_name, template in TEMPLATES[name]:
            stem = workdir / "out" / job_name
            configs = []
            for config_seed in range(POOL[name]):
                cfg = job_config(template, config_seed, stem)
                configs.append(workdir / f"{job_name}-{config_seed}.json")
                configs[-1].write_text(json.dumps(cfg, indent=1))
            n1 = len(parse_scale(cfg["scale1"]).build())
            n2 = len(parse_scale(cfg["scale2"]).build())
            count = cfg.get("count", 1)
            self.jobs.append(Job(
                job_name, configs, stem, cfg["output"]["format"], reference[job_name],
                count, count * n1 * n2, count * (n1 - 1) * (n2 - 1)))
        self._draw()
        self.setup_files = [job.configs[s] for job, s in zip(self.jobs, self.seeds)]
        self.points = sum(job.points for job in self.jobs)
        self.instances = sum(job.instances for job in self.jobs)
        self.ops = len(self.jobs)

    def _draw(self) -> None:
        """Config seeds of the next pass, one per job."""
        self.seeds = [int(self.rng.integers(len(job.configs))) for job in self.jobs]

    def run_pass(self) -> list:
        return [_attempt(cli.main, ["verify", str(job.configs[s])])
                for job, s in zip(self.jobs, self.seeds)]

    def check(self, outcomes: list) -> tuple[list[str | None], int]:
        """Per-job error (None when correct) and the bytes of reports written;
        then draws the next pass's config seeds."""
        errors, report_bytes = [], 0
        for job, config_seed, outcome in zip(self.jobs, self.seeds, outcomes):
            error, size = _check_job(job, job.references.get(str(config_seed)), outcome)
            errors.append(error)
            report_bytes += size
        self._draw()
        return errors, report_bytes


def read_report(stem: Path, fmt: str) -> tuple[dict, int, int]:
    """The part of a verify report compared with the reference, the report's
    row count and its size in bytes.

    The compared part is the summary without inlined points, plus
    SAMPLED_ROWS rows (t1, t2, witness, bound) spread evenly over the report.
    The summary's numbers hardly move when a bound or witness is off (the
    slack is 0 on the axes); the rows do.
    """
    files = [stem.with_suffix(".json")]
    if fmt == "csv":
        files.append(stem.with_suffix(".csv"))
    summary = json.loads(files[0].read_text())
    points = summary.pop("points", None)
    if fmt == "csv":
        rows = [line.split(",") for line in files[1].read_text().splitlines()[1:]]
    else:
        rows = [[p["t1"], p["t2"], p["witness"], p["bound"]] for p in points]
    picks = np.linspace(0, len(rows) - 1, SAMPLED_ROWS).round().astype(int) if rows else ()
    sample = [[float(v) for v in rows[i][:4]] for i in picks]
    size = sum(path.stat().st_size for path in files)
    return {"summary": summary, "rows": sample}, len(rows), size


def summary_problem(summary: dict) -> str | None:
    """Why a summary fails whatever the reference says, or None."""
    if summary["instances_with_violation"] != 0:
        return f"{summary['instances_with_violation']} instances violate their bound"
    residual = max(d["hypothesis_residual"] for d in summary["digests"])
    if not residual <= RECHECK_TOL:
        return f"hypothesis residual {residual!r}"
    return None


def _check_job(job: Job, reference: dict | None, outcome) -> tuple[str | None, int]:
    if isinstance(outcome, Exception):
        return f"{job.name}: raised {outcome!r}", 0
    if outcome != 0:
        return f"{job.name}: exit code {outcome}", 0
    report, rows, size = read_report(job.stem, job.fmt)
    if rows != job.rows:
        return f"{job.name}: {rows} report rows, expected {job.rows}", size
    problem = summary_problem(report["summary"])
    if problem:
        return f"{job.name}: {problem}", size
    if reference is None:
        return f"{job.name}: no reference recorded for this config", size
    bad = _mismatch(report, reference, "report")
    if bad:
        return f"{job.name}: {bad} differs from the reference", size
    return None, size


@dataclass(frozen=True)
class Case1D:
    label: str
    f: tscale.GridFn1
    g: tscale.GridFn1
    p: tscale.GridFn1
    f_anchor: int       # antiderivative anchor index
    f_start: float      # antiderivative value there
    p_anchor: int       # exp_fn anchor, the midpoint of the integral of p
    a: int              # comparison start index
    x_a: float
    slack: float


def _coefficient(rng, mu: np.ndarray, integral: float) -> np.ndarray:
    """Positive random values whose delta integral over the scale is `integral`."""
    vals = rng.random(len(mu) + 1) + 0.5
    return vals * (integral / float(np.dot(mu, vals[:-1])))


class CalculusWorkload:
    """One-variable calls through the package namespace; work is scale points."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        path = workdir / "scales.json"
        path.write_text(json.dumps({"scales": SCALES_1D}, indent=1))
        self.setup_files = [path]
        self.cases: list[Case1D] = []
        for desc in SCALES_1D:
            scale = parse_scale(desc).build()
            n = len(scale)
            mu = np.diff(scale.points)
            p = _coefficient(rng, mu, EXP_INTEGRAL)
            p_anchor = int(np.searchsorted(np.cumsum(mu * p[:-1]), EXP_INTEGRAL / 2))
            self.cases.append(Case1D(
                label=desc["kind"],
                f=tscale.GridFn1(scale, rng.random(n) + 0.5),
                g=tscale.GridFn1(scale, _coefficient(rng, mu, COMPARISON_INTEGRAL)),
                p=tscale.GridFn1(scale, p),
                f_anchor=int(rng.integers(n)),
                f_start=float(rng.standard_normal()),
                p_anchor=p_anchor,
                a=int(rng.integers(n // 10)),
                x_a=1.0 + float(rng.random()),
                slack=0.1 + float(rng.random())))
        self.points = len(CALLS_1D) * sum(len(c.f) for c in self.cases)
        self.instances = 0
        self.ops = len(CALLS_1D) * len(self.cases)

    def run_pass(self) -> list[dict]:
        out = []
        for c in self.cases:
            big_f = _attempt(tscale.antiderivative, c.f, c.f_anchor, c.f_start)
            out.append({
                "antiderivative": big_f,
                "delta_derivative": _attempt(tscale.delta_derivative, big_f),
                "cauchy_integral": _attempt(tscale.cauchy_integral, c.f, 0, len(c.f) - 1),
                "exp_fn": _attempt(tscale.exp_fn, c.p, c.p_anchor),
                "comparison_bound": _attempt(tscale.comparison_bound, c.x_a, c.f, c.g, c.a),
                "witness_comparison": _attempt(tscale.witness_comparison,
                                               c.f, c.g, c.x_a, c.a),
                "witness_comparison_slack": _attempt(tscale.witness_comparison,
                                                     c.f, c.g, c.x_a, c.a, c.slack),
            })
        return out

    def check(self, outcomes: list[dict]) -> tuple[list[str | None], int]:
        errors: list[str | None] = []
        for c, res in zip(self.cases, outcomes):
            failed = {name: f"{c.label}: {name} raised {val!r}"
                      for name, val in res.items() if isinstance(val, Exception)}
            for names, message in _identities(c, res, failed):
                for name in names:
                    failed.setdefault(name, f"{c.label}: {message}")
            errors.extend(failed.get(name) for name in CALLS_1D)
        return errors, 0


def _identities(c: Case1D, res: dict, failed: dict):
    """Yield (operations blamed, message) for each identity that does not hold."""
    mu = np.diff(c.f.scale.points)
    f = c.f.values
    if not {"antiderivative", "delta_derivative"} & failed.keys():
        big_f = res["antiderivative"].values
        d = res["delta_derivative"].values
        # rounding in F is amplified by 1/mu in the difference quotient
        tol = IDENTITY_TOL * (np.abs(f[:-1]) + (np.abs(big_f[:-1]) + np.abs(big_f[1:])) / mu)
        if big_f[c.f_anchor] != c.f_start or not np.all(np.abs(d - f[:-1]) <= tol):
            yield ("antiderivative", "delta_derivative"), \
                "delta_derivative(antiderivative(f)) differs from f"
        if "cauchy_integral" not in failed:
            diff = res["cauchy_integral"] - (big_f[-1] - big_f[0])
            if not abs(diff) <= IDENTITY_TOL * (1.0 + abs(big_f[-1]) + abs(big_f[0])):
                yield ("cauchy_integral",), \
                    "cauchy_integral over the scale differs from the antiderivative's increase"
    if "exp_fn" not in failed:
        e = res["exp_fn"].values
        step = e[:-1] * (1.0 + mu * c.p.values[:-1])
        if e[c.p_anchor] != 1.0 or not np.all(
                np.abs(e[1:] - step) <= IDENTITY_TOL * (np.abs(e[1:]) + np.abs(step))):
            yield ("exp_fn",), "exp_fn does not solve x^delta = p x with x(t0) = 1"
    if "comparison_bound" not in failed:
        bound = res["comparison_bound"].values
        tol = IDENTITY_TOL * (1.0 + np.abs(bound))
        for name in ("witness_comparison", "witness_comparison_slack"):
            if name not in failed and not np.all(res[name].values <= bound + tol):
                yield ("comparison_bound", name), f"{name} exceeds comparison_bound"


def make_workload(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "calculus-1d":
        return CalculusWorkload(seed, workdir)
    return LatticeWorkload(name, seed, workdir)
