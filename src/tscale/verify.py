"""Seeded instance generation and empirical bound verification.

Each instance draws coefficient functions from one PCG64 stream in a fixed
order, builds an extremal witness (exact equality, or strictly slack with a
feedback factor drawn from [0, 1)), evaluates the matching bound, and then
re-checks on every lattice point that the witness actually satisfies the
inequality's hypothesis.  The re-check takes every rectangle sum at once from
plain 2-D block cumsums (cumsum along rows, then along columns), a different
evaluation order than the compensated row sweep that builds the witness, so
it is an independent confirmation rather than a replay.  Every kernel verify
builds is factored, k(t, s) = sum over r of alpha_r(t) * beta_r(s), and the
pointwise kernel k(s) is the one term (1, k), so one re-check serves both:
the right-hand side is p + q * sum over r of alpha_r * S_r, where S_r holds
the block sums of beta_r * u * mu1 * mu2 (the summed-area table of each
term), in O(r N) work without expanding the kernel.

A batch runs as stacks of at most grid2d.MAX_STACK_POINTS lattice points:
the random parts of a stack's instances are drawn in stream order, each
function realized once (a stack even of one), and the witness, the bound and
the re-check run once per stack, each instance with its own bits.  When a
stacked pass raises, its instances run again one at a time, so the error
names the lowest failing instance once those before it have passed.  Each
stack's report stays whole: the report writers take it as it is, and
VerifySummary.reports splits the stacks only when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping

import numpy as np

from . import grid2d, witnesses
from .bounds import (BoundCase, BoundReport, ExponentVariant, IntegrodynamicInputs,
                     KernelInputs, PointwiseInputs, SystemInputs, _larger,
                     bound_kernel_variants, compute_bound)
from .config import FnSpec, ScaleSpec, draw, draw_kernel, draw_scalar, realize_1d, \
    realize_2d, realize_kernel, realize_scalar
from .core import check_lattice_points
from .errors import ConfigError, TscaleError
from .grid2d import GridFn2, TimeScale2D, _cell_weights

# Each case's functions in draw order and their kind (1 or 2: monotone 1-D on that axis).
_CASE_FUNCTIONS = {
    BoundCase.POINTWISE: (("p", "2d"), ("q", "2d"), ("k", "2d")),
    BoundCase.KERNEL: (("p", "2d"), ("q", "2d"), ("k", "kernel")),
    BoundCase.SYSTEM: (("c1", "scalar"), ("c2", "scalar"), ("h1", "2d"), ("h2", "2d"),
                       ("h3", "2d"), ("h4", "2d")),
    BoundCase.INTEGRODYNAMIC: (("a", 1), ("b", 2), ("c", "2d")),
}

_ANY = FnSpec("any")


class WitnessMode(Enum):
    EQUALITY = "equality"
    STRICT_SLACK = "strict_slack"


@dataclass(frozen=True)
class InstanceSpec:
    """A batch of random verification instances on one product scale."""

    case: BoundCase
    scale1: ScaleSpec
    scale2: ScaleSpec
    functions: Mapping[str, FnSpec] = field(default_factory=dict)
    rng_seed: int = 0
    count: int = 1
    witness_mode: WitnessMode = WitnessMode.EQUALITY
    exponent_variant: ExponentVariant = ExponentVariant.FIRST_VARIABLE

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("count must be at least 1")
        unknown = set(self.functions) - {name for name, _ in _CASE_FUNCTIONS[self.case]}
        if unknown:
            raise ConfigError(
                f"unexpected function entries for the {self.case.value} case: "
                f"{', '.join(sorted(unknown))}")


@dataclass
class VerifySummary:
    """Aggregated outcome of a verification batch.

    stacks carries the full grids, one report per stack as it was checked
    (see BoundReport), in instance order, for callers that want to write
    per-point rows; reports splits them into one report per instance on
    first access.  Both are deliberately left out of to_dict().
    """

    instances_run: int
    instances_with_violation: int
    worst_relative_violation: float
    digests: list[dict]
    variant_comparison: dict | None
    stacks: list[BoundReport] = field(default_factory=list, repr=False)

    @cached_property
    def reports(self) -> list[BoundReport]:
        """One report per instance, in instance order: each stack split once."""
        return [part for stack in self.stacks for part in stack.unstack()]

    def to_dict(self) -> dict:
        return {name: value for name, value in vars(self).items()
                if name not in ("stacks", "reports")}


def _feedback(rng, mode: WitnessMode) -> float:
    if mode is WitnessMode.STRICT_SLACK:
        return float(rng.uniform(0.0, 1.0))
    return 1.0


def _block_sums(cells: np.ndarray) -> np.ndarray:
    """out[..., i, j] = sum of cells[..., :i, :j], one row and one column larger
    than cells in its last two axes; leading axes are stacked lattices."""
    out = np.zeros((*cells.shape[:-2], cells.shape[-2] + 1, cells.shape[-1] + 1))
    out[..., 1:, 1:] = cells.cumsum(axis=-2).cumsum(axis=-1)
    return out


def _excess(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Largest (lhs - rhs) / (1 + |rhs|) over the lattice, per instance."""
    return ((lhs - rhs) / (1.0 + np.abs(rhs))).max(axis=(-2, -1))


def _recheck_kernel(p: GridFn2, q: GridFn2, factors, u: GridFn2) -> np.ndarray:
    """u's excess over p + q * ii(k u) for k(t, s) = sum over r of
    alpha[r](t) * beta[r](s), from factors (alpha, beta) of shape (r, count, n1, n2)."""
    alpha, beta = factors
    fed = beta[..., :-1, :-1] * u.values[..., :-1, :-1] * _cell_weights(u.domain)
    return _excess(u.values, p.values + q.values * (alpha * _block_sums(fed)).sum(axis=0))


def _recheck_system(c1, c2, hs, u: GridFn2, v: GridFn2) -> np.ndarray:
    h1, h2, h3, h4 = (h.values[..., :-1, :-1] for h in hs)
    uk, vk = u.values[..., :-1, :-1], v.values[..., :-1, :-1]
    wmu = _cell_weights(u.domain)
    su, sv = _block_sums(np.stack(((h1 * uk + h2 * vk) * wmu, (h3 * uk + h4 * vk) * wmu)))
    c1, c2 = (np.asarray(c, dtype=float)[..., None, None] for c in (c1, c2))
    return _larger(_excess(u.values, c1 + su), _excess(v.values, c2 + sv))


def _recheck_integrodynamic(a, b, c: GridFn2, u: GridFn2, w: GridFn2) -> np.ndarray:
    uv = u.values
    off_axes = np.any(uv[..., 0, :] != 0.0, axis=-1) | np.any(uv[..., :, 0] != 0.0, axis=-1)
    wmu = _cell_weights(u.domain)
    wk = w.values[..., :-1, :-1]
    fed, u_ref = _block_sums(np.stack((c.values[..., :-1, :-1] * (uv[..., :-1, :-1] + wk) * wmu,
                                       wk * wmu)))
    rhs_w = a.values[..., :, None] + b.values[..., None, :] + fed
    residual = _larger(_excess(w.values, rhs_w),
                       (np.abs(uv - u_ref) / (1.0 + np.abs(u_ref))).max(axis=(-2, -1)))
    return np.where(off_axes, math.inf, residual)


def run_verification(spec: InstanceSpec) -> VerifySummary:
    """Run spec.count seeded instances and aggregate dominance statistics.

    A fixed rng_seed reproduces the summary bit for bit: one sequential
    PCG64 stream drives every draw, instances are generated in index order,
    and each case realizes its functions in a documented fixed order before
    drawing the slack factor.  Instances are checked in stacks (see the
    module docstring) with the bits of one instance at a time.  For the
    kernel case both exponent variants are evaluated on every instance; the
    variant named by the spec is the primary one whose violations are counted.
    """
    dom = TimeScale2D(spec.scale1.build(), spec.scale2.build())
    points = dom.shape[0] * dom.shape[1]
    check_lattice_points(points, "product lattice")
    rng = np.random.Generator(np.random.PCG64(spec.rng_seed))
    per_stack = max(1, grid2d.MAX_STACK_POINTS // points)

    functions = _functions(spec, dom)
    stacks, digests = [], []
    for start in range(0, spec.count, per_stack):
        drawn = [_draw(functions, rng, spec.witness_mode)
                 for _ in range(start, min(start + per_stack, spec.count))]
        stack_reports, stack_digests = _check_instances(spec, functions, drawn, start)
        stacks += stack_reports
        digests += stack_digests

    comparison = None
    if spec.case is BoundCase.KERNEL:
        comparison = {f"{name}_variable": {"instances_with_violation": sum(
            not d[f"{name}_variable_dominates"] for d in digests)} for name in ("first", "second")}
    return VerifySummary(
        instances_run=spec.count,
        instances_with_violation=sum(d["violation_count"] > 0 for d in digests),
        worst_relative_violation=max(d["relative_violation"] for d in digests),
        digests=digests,
        variant_comparison=comparison,
        stacks=stacks,
    )


def _functions(spec: InstanceSpec, dom: TimeScale2D) -> list[tuple]:
    """(name, descriptor, draw(fn, rng), realize(fn, draws)) of each function of
    spec's instances, in the case's fixed order; system constants default to
    a drawn constant, every other function to family 'any'."""
    kinds = {"2d": (lambda fn, rng, shape=dom.shape: draw(fn, shape, rng),
                    lambda fn, d: realize_2d(fn, dom, draws=d)),
             "scalar": (draw_scalar, lambda fn, d: realize_scalar(fn, draws=d)),
             "kernel": (draw_kernel, lambda fn, d: realize_kernel(fn, dom, draws=d))}
    for axis, scale in ((1, dom.scale1), (2, dom.scale2)):
        kinds[axis] = (lambda fn, rng, n=len(scale): draw(fn, (n,), rng, True),
                       lambda fn, d, s=scale: realize_1d(fn, s, monotone_positive=True, draws=d))
    return [(name, spec.functions.get(name, FnSpec("constant") if kind == "scalar" else _ANY),
             *kinds[kind]) for name, kind in _CASE_FUNCTIONS[spec.case]]


def _draw(functions: list[tuple], rng, mode: WitnessMode) -> tuple:
    """One instance's random parts, one per function, then its feedback factor."""
    return (*(draw_one(fn, rng) for _, fn, draw_one, _ in functions), _feedback(rng, mode))


def _realize(functions: list[tuple], drawn: list[tuple]) -> tuple:
    """The functions of the drawn instances, each realized once for all of them
    (stacked first), then their feedback factors; a ConfigError names the function."""
    *columns, rho = (list(column) for column in zip(*drawn))
    fields = []
    for (name, fn, _, realize), draws in zip(functions, columns):
        try:
            fields.append(realize(fn, draws))
        except ConfigError as exc:
            raise ConfigError(f"function '{name}': {exc}") from None
    return (*fields, np.array(rho))


def _check_instances(spec: InstanceSpec, functions: list[tuple], drawn: list[tuple],
                     first: int) -> tuple[list[BoundReport], list[dict]]:
    """The reports and the digests of the drawn instances, numbered from
    first: one report for the stack, from one stacked pass.  If the pass
    raises, the instances are realized and checked again one at a time, so
    the lowest failing one raises its own error, prefixed with its number,
    and each has a report of its own, a stack of one; a stack of one runs
    that way from the start."""
    if len(drawn) > 1:
        try:
            report, digests = _check_stack(spec, _realize(functions, drawn), first)
            return [report], digests
        except TscaleError:
            pass
    reports, digests = [], []
    for idx, one in enumerate(drawn, first):
        try:
            one_report, one_digest = _check_stack(spec, _realize(functions, [one]), idx)
        except TscaleError as exc:
            raise type(exc)(f"instance {idx}: {exc}") from exc
        reports.append(one_report)
        digests += one_digest
    return reports, digests


def _check_stack(spec: InstanceSpec, fields: tuple,
                 first: int) -> tuple[BoundReport, list[dict]]:
    """Witness, bound and re-check of one stack of instances, numbered from
    first: the stack's report, whole, and one digest per instance, each
    digest column read from that report at once."""
    case = spec.case
    *coeffs, rho = fields
    variant_columns = {}
    if case is BoundCase.POINTWISE:
        p, q, k = coeffs
        u = witnesses.witness_pointwise(p, q, k, rho)
        report = compute_bound(PointwiseInputs(p, q, k, u))
        residual = _recheck_kernel(p, q, witnesses._unit_factors(k), u)
    elif case is BoundCase.KERNEL:
        p, q, kernel = coeffs
        u = witnesses.witness_kernel(p, q, kernel, rho)
        by_variant = bound_kernel_variants(KernelInputs(p, q, kernel, u))
        first_v, second_v = (by_variant[variant] for variant in ExponentVariant)
        variant_columns = {"first_variable_dominates": (first_v.violation_count == 0).tolist(),
                           "second_variable_dominates": (second_v.violation_count == 0).tolist(),
                           "second_variable_max_violation": second_v.max_violation.tolist()}
        report = by_variant[spec.exponent_variant]
        residual = _recheck_kernel(p, q, kernel.factors, u)
    elif case is BoundCase.SYSTEM:
        c1, c2, *hs = coeffs
        u, v = witnesses.witness_system(c1, c2, *hs, feedback_scale=rho)
        combined = GridFn2(u.domain, u.values + v.values)
        report = compute_bound(SystemInputs(c1, c2, *hs, u=combined))
        residual = _recheck_system(c1, c2, hs, u, v)
    else:
        a, b, c = coeffs
        u, w = witnesses.witness_integrodynamic(a, b, c, rho)
        report = compute_bound(IntegrodynamicInputs(a, b, c, u))
        residual = _recheck_integrodynamic(a, b, c, u, w)
    count = len(report.violation_count)
    columns = {"instance": range(first, first + count),
               "case": [case.value] * count,
               "max_violation": report.max_violation.tolist(),
               "min_slack": report.min_slack.tolist(),
               "violation_count": report.violation_count.tolist(),
               "relative_violation": _larger(0.0, _excess(report.witness.values,
                                                          report.bound.values)).tolist(),
               "hypothesis_residual": residual.tolist(),
               "diagnostics": [list(d) for d in report.hypothesis_diagnostics],
               **variant_columns}
    return report, [dict(zip(columns, row)) for row in zip(*columns.values())]
