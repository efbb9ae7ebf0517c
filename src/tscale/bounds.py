"""Explicit a-priori bounds for two-variable integral and integro-dynamic
inequalities on product scales.

Four shapes of hypothesis are covered, each by one frozen input type:

* PointwiseInputs: u <= p + q * ii(k(s1, s2) u)          (k a grid function)
* KernelInputs:    u <= p + q * ii(k(t1, t2, s1, s2) u)  (k a KernelOracle)
* SystemInputs:    coupled pair u <= c1 + ii(h1 u + h2 v), v <= c2 + ii(h3 u + h4 v)
* IntegrodynamicInputs: mixed-derivative relation with feedback through u + u^{d1 d2}

where ii is the double delta integral over [0, t1) x [0, t2).  An input type
checks its structure once, at construction, and has its own check_hypotheses()
and bound(), to which check_hypotheses and compute_bound delegate.  A bound
computes only the kappa x kappa values it reports, so a value in the last row
or column cannot overflow it: it assembles the intermediate functions (A, c,
H, p, q, h) there by compensated lattice sums, forms the dominating function
with a product exponential, checks once that it is finite, and compares a
witness against it pointwise; a default witness is swept on kappa x kappa
too.  The kernel case takes A and c straight from the kernel integral, a
separable kernel from its factors in O(r N) and a dense table one row of
slabs at a time; bound_kernel_variants finishes both exponent variants.  Its
hypothesis checks take a one-term kernel's minimum and difference minima
from the factors in O(N), and any other kernel's from its row slabs, each
built once.

Input types hold one instance or a stack (grid2d._common_stack); the bodies
run on stacks only, one instance as a stack of one whose result is taken out.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .core import GridFn1, _trusted
from .errors import DomainError, ScaleMismatchError
from .exponential import ProductLadder
from .grid2d import (GridFn2, KernelOracle, TimeScale2D, _common_stack, _double_sums,
                     exclusive_sums, mixed_partial, running_integral)
from . import witnesses

log = logging.getLogger(__name__)

# Witness excess beyond this relative tolerance counts as a violation.
VIOLATION_TOL = 1e-9
# Nonnegativity hypothesis checks accept values down to this far below zero.
HYPOTHESIS_SLACK = 1e-12


class ExponentVariant(Enum):
    """Which variable the exponential factor of the kernel-case bound runs in.

    The first-variable form is the one the dominance argument constructs;
    the second-variable form is selectable for comparison runs.
    """

    FIRST_VARIABLE = "first"
    SECOND_VARIABLE = "second"


class BoundCase(Enum):
    """The four inequality shapes this module bounds."""

    POINTWISE = "pointwise"
    KERNEL = "kernel"
    SYSTEM = "system"
    INTEGRODYNAMIC = "integrodynamic"


@dataclass
class BoundReport:
    """Bound evaluation on kappa x kappa plus witness comparison statistics.

    max_violation is the largest witness excess over the bound, clamped at
    zero; min_slack the smallest bound-minus-witness gap.  Without a witness
    max_violation is 0 and min_slack is +inf.  violation_count counts the
    points whose excess crosses the relative tolerance
    VIOLATION_TOL * (1 + |bound|), and violation_at holds their flat indices
    into bound.values, in row order; violations lists them as
    (i, j, witness, bound) tuples, built on first access.

    A stack's report holds one entry per instance in each grid, number and
    list; unstack() splits it.
    """

    bound: GridFn2
    witness: GridFn2 | None
    max_violation: float
    min_slack: float
    violation_count: int
    violation_at: np.ndarray
    hypothesis_diagnostics: list[str] = field(default_factory=list)
    exponent_variant: ExponentVariant = ExponentVariant.FIRST_VARIABLE

    @cached_property
    def violations(self) -> list:
        """(i, j, witness, bound) of each violating point in row order; on a
        stack, one such list per instance."""
        at = np.unravel_index(self.violation_at, self.bound.values.shape)
        found = [] if self.witness is None else list(zip(
            *(x.tolist() for x in (*at[-2:], self.witness.values[at], self.bound.values[at]))))
        if self.bound.values.ndim == 2:
            return found
        ends = np.cumsum(self.violation_count).tolist()
        return [found[start:end] for start, end in zip([0, *ends], ends)]

    def unstack(self) -> list["BoundReport"]:
        """One report per instance, in stack order; [self] for one instance."""
        if self.bound.values.ndim == 2:
            return [self]
        witnesses = [None] * len(self.violation_count) if self.witness is None \
            else self.witness.instances()
        ats = np.split(self.violation_at % self.bound.values[0].size,
                       np.cumsum(self.violation_count)[:-1])
        return [BoundReport(b, w, mv, ms, n, at, diags, self.exponent_variant)
                for b, w, mv, ms, n, at, diags in zip(
                    self.bound.instances(), witnesses, self.max_violation.tolist(),
                    self.min_slack.tolist(), self.violation_count.tolist(), ats,
                    self.hypothesis_diagnostics)]


def _restrict_witness(witness: GridFn2, target: TimeScale2D) -> GridFn2:
    m1, m2 = target.shape
    d = witness.domain
    if d.same_points(target):
        return witness
    if np.array_equal(d.scale1.points[:m1], target.scale1.points) \
            and np.array_equal(d.scale2.points[:m2], target.scale2.points):
        return GridFn2(target, witness.values[..., :m1, :m2])
    raise ScaleMismatchError("witness does not cover the bound's evaluation domain")


def _larger(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(a, b) elementwise, as Python's max takes it: a unless b > a."""
    return np.where(b > a, b, a)


def _finish(values: np.ndarray, domain: TimeScale2D, case: BoundCase,
            witness: GridFn2 | Callable[[], GridFn2] | None, diags: list,
            variant: ExponentVariant = ExponentVariant.FIRST_VARIABLE) -> BoundReport:
    """The report of a stack of bound values on the kappa x kappa domain, or
    DomainError naming the first point, in row order, where they leave the
    float range; a callable witness builds the default witness once they are
    known to be finite."""
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0][-2:]
        at = (domain.scale1.points[i].item(), domain.scale2.points[j].item())
        raise DomainError(f"{case.value} bound overflowed at (t1, t2) = {at}")
    bound = GridFn2(domain, values)
    b = bound.values
    if callable(witness):
        witness = witness()
    w = None if witness is None else _restrict_witness(witness, domain)
    if w is None:
        count, at = np.zeros(len(b), np.int64), np.zeros(0, np.int64)
        max_violation, min_slack = np.zeros(len(b)), np.full(len(b), math.inf)
    else:
        excess = w.values - b
        tol = np.abs(b)
        tol += 1.0
        tol *= VIOLATION_TOL
        over = excess > tol
        count, at = np.count_nonzero(over, axis=(1, 2)), np.flatnonzero(over)
        max_violation = _larger(0.0, excess.max(axis=(1, 2)))
        min_slack = np.negative(excess, out=excess).min(axis=(1, 2))
    return BoundReport(bound, w, max_violation, min_slack, count, at, diags, variant)


def _check_nonneg(stack: np.ndarray, name: str, diags: list[list[str]],
                  where: str = "at index") -> None:
    """Append to diags[k] where instance k of a stack of lattice values dips
    below -HYPOTHESIS_SLACK or holds NaN, naming the first index of its
    minimum (of a NaN, if any)."""
    flat = stack.reshape(len(stack), -1)
    if not flat.shape[1]:
        return
    at = flat.argmin(axis=1)
    worst = flat[np.arange(len(flat)), at]
    for k in np.flatnonzero(~(worst >= -HYPOTHESIS_SLACK)):
        idx = tuple(int(i) for i in np.unravel_index(at[k], stack.shape[1:]))
        diags[k].append(f"{name} negative {where} {idx}: {float(worst[k]):.6g}")


@np.errstate(over="ignore", invalid="ignore")
def _kernel_checks(kernel: KernelOracle) -> tuple[list, np.ndarray]:
    """What KernelInputs.check_hypotheses reports of a stack of kernels: the
    smallest value of each instance and its first index in row order, or
    (inf, ()) where no value is below +inf, and the (3, count, n1 - 1, n2 - 1)
    minima at [:, k, i, j] of kernel k's second-variable, first-variable and
    mixed lattice differences at (i + 1, j + 1), over the arguments
    (i, b < j), (a < i, j) and (a < i, b < j) that the bound formulas touch;
    +inf for none; a mixed difference of 0 stays 0 where mu1 * mu2
    underflows.  A one-term factored kernel takes _rank_one_checks, any
    other kernel _swept_checks, one instance after another."""
    if kernel.factors is not None and len(kernel.factors[0]) == 1:
        return _rank_one_checks(kernel)
    mins, lows = zip(*map(_swept_checks, kernel.instances()))
    return list(mins), np.stack(lows, axis=1)


def _rank_one_checks(kernel: KernelOracle) -> tuple[list, np.ndarray]:
    """_kernel_checks of a stack of one-term kernels alpha(t) * beta(s), from
    the factors alone in O(N) each.

    Rounding is monotone in each factor, so the smallest product over s at a
    row t is alpha(t) times beta's minimum, or its maximum where alpha(t) < 0,
    and the smallest of those rows is the kernel's minimum, one of its four
    corner products.  The first t in row order whose row minimum equals it,
    then the first s where its product does, is where a slab sweep finds it,
    ties in rounding included.  Likewise each difference is c * beta with c a
    difference of alpha, so its minimum over a rectangle of beta is c times
    beta's minimum or maximum there, taken from running extremes; c * beta
    counts as 0 where beta is 0, as the kernel's own difference there is,
    even where c overflowed.  The mixed c is taken from alpha itself, in the
    sweep's order, so two overflowed first differences give no inf - inf.
    """
    n1, n2 = kernel.domain.shape
    alpha, beta = (x[0].reshape(-1, n1, n2) for x in kernel.factors)
    count = len(alpha)
    a, b = alpha.reshape(count, -1), beta.reshape(count, -1)
    rows = np.where(a < 0, a * b.max(axis=1, keepdims=True), a * b.min(axis=1, keepdims=True))
    worst = rows.min(axis=1, keepdims=True)
    t = (rows == worst).argmax(axis=1)
    at = a[np.arange(count), t, None]
    s = (at * b == worst).argmax(axis=1)
    mins = []
    for k, value in enumerate((at[:, 0] * b[np.arange(count), s]).tolist()):
        where = np.unravel_index(t[k], (n1, n2)) + np.unravel_index(s[k], (n1, n2))
        mins.append((value, tuple(map(int, where))) if value < math.inf else (math.inf, ()))
    mu1, mu2 = kernel.domain.mu1[:-1], kernel.domain.mu2[:-1]
    lows = np.full((3, count, n1 - 1, n2 - 1), np.inf)
    alpha_d1 = np.diff(alpha, axis=-2) / mu1[:, None]
    alpha_d2 = np.diff(alpha, axis=-1) / mu2
    alpha_d12 = np.diff(alpha[..., 1:, :], axis=-1) - alpha[..., :-1, 1:] + alpha[..., :-1, :-1]
    np.divide(alpha_d12, mu1[:, None] * mu2, out=alpha_d12, where=alpha_d12 != 0)
    beta = beta[..., :-1, :-1]
    for low, c, axes in ((lows[0, ..., :, 1:], alpha_d2[..., 1:, 1:], (-1,)),
                         (lows[1, ..., 1:, :], alpha_d1[..., 1:, 1:], (-2,)),
                         (lows[2, ..., 1:, 1:], alpha_d12[..., 1:, 1:], (-2, -1))):
        lo = hi = beta
        for axis in axes:
            lo, hi = np.minimum.accumulate(lo, axis), np.maximum.accumulate(hi, axis)
        last = (..., *(slice(-1) if axis in axes else slice(None) for axis in (-2, -1)))
        lo, hi = (np.where(x == 0, 0.0, c * x) for x in (lo[last], hi[last]))
        np.minimum(lo, hi, out=low)
    return mins, lows


def _swept_checks(kernel: KernelOracle) -> tuple[tuple[float, tuple[int, ...]], np.ndarray]:
    """The minimum and the (3, n1 - 1, n2 - 1) difference minima of one
    kernel, from its row slabs k(i, ., ., .), each built once: the minimum is
    taken row by row, and the differences of row i - 1 from rows i and
    i - 1.  It holds three slabs at most: two and a mixed difference smaller
    than a slab, or one while a factored kernel builds the next as a sum of
    terms (check_kernel_budget counts them)."""
    n1, n2 = kernel.domain.shape
    m2 = n2 - 1
    mu1, mu2 = kernel.domain.mu1[:-1], kernel.domain.mu2[:-1]
    lows = np.full((3, n1 - 1, m2), np.inf)
    j = np.arange(m2)
    before = np.tri(m2, m2, -1, dtype=bool)    # before[j, b]: b < j
    worst, at = math.inf, ()
    upper = None
    for i in range(n1):
        lower = upper
        upper = kernel.slab(i)
        first = int(np.argmin(upper))
        if upper.flat[first] < worst:
            worst = float(upper.flat[first])
            at = (i, *map(int, np.unravel_index(first, upper.shape)))
        if not (i and m2):
            continue
        r = i - 1
        k11, k10 = upper[1:, :i, :m2], upper[:-1, :i, :m2]
        k01, k00 = lower[1:, :r, :m2], lower[:-1, :r, :m2]
        d2 = (k11[:, r] - k10[:, r]) / mu2[:, None]
        d1 = (k11[j, :r, j] - k01[j, :, j]) / mu1[r]
        d12 = np.subtract(k11[:, :r], k10[:, :r])
        d12 -= k01
        d12 += k00
        np.divide(d12, mu1[r] * mu2[:, None, None], out=d12, where=d12 != 0)
        np.minimum.reduce(d2, 1, initial=np.inf, where=before, out=lows[0, r])
        np.minimum.reduce(d1, 1, initial=np.inf, out=lows[1, r])
        np.minimum.reduce(d12, (1, 2), initial=np.inf, where=before[:, None], out=lows[2, r])
        del k01, k00, d1, d2, d12    # hold only row i while row i + 1 is built
    return (worst, at), lows


def _exp_axis(c: np.ndarray, mu: np.ndarray, axis: int) -> np.ndarray:
    """E = running product along lattice axis (1 or 2) of 1 + mu * c: on axis 1,
    E[..., i, j] = product over s < i of (1 + mu[s] * c[..., s, j]), on axis 2
    the same with i and j exchanged, carried by ProductLadder (zero factors
    give zeros).  c's lattice axes are its last two."""
    c_ax = c if axis == 1 else np.swapaxes(c, -1, -2)
    factors = 1.0 + mu[: c_ax.shape[-2] - 1, None] * c_ax[..., :-1, :]
    out = np.moveaxis(ProductLadder(np.moveaxis(factors, -2, 0)).prefixes(), 0, -2)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{('first', 'second')[axis - 1]}-variable exponential overflowed")
    return out if axis == 1 else np.swapaxes(out, -1, -2)


@np.errstate(over="ignore", invalid="ignore")
def gronwall_2d(A: GridFn2, b: GridFn2) -> GridFn2:
    """Dominating function for z <= A + double integral of b*z.

    Returns Z = A * E where E is the first-variable running product of
    1 + mu1 * c, carried as mantissa and binary exponent (so a zero factor
    gives zeros), and c(t1, t2) is the integral of b(t1, .) over [0, t2).
    The dominance argument needs A and b nonnegative and A nondecreasing in
    each variable; failures of those conditions are logged as warnings
    rather than raised, since the product is still well defined.
    """
    _common_stack(A, b)
    av = A.values
    lattice = (-2, -1)
    scale = 1e-12 * (1.0 + np.abs(av).max(axis=lattice))

    def below(x):
        return x.size and bool(np.any(x.min(axis=lattice) < -scale))

    if below(av) or below(b.values):
        log.warning("gronwall_2d: negative inputs weaken the dominance argument")
    if below(np.diff(av, axis=-2)):
        log.warning("gronwall_2d: A decreases along axis 1; bound not guaranteed")
    if below(np.diff(av, axis=-1)):
        log.warning("gronwall_2d: A decreases along axis 2; bound not guaranteed")
    c = running_integral(b, 2).values
    e = _exp_axis(c, A.domain.mu1, 1)
    out = av * e
    if not np.all(np.isfinite(out)):
        raise DomainError("gronwall_2d output overflowed")
    return GridFn2(A.domain, out)


def _kernel_integrals(kernel: KernelOracle, p: GridFn2,
                      q: GridFn2) -> tuple[np.ndarray, np.ndarray]:
    """A and c of the kernel bound on kappa x kappa.

    With z_f(t) = ii(k(t, .) f) over [0, t1) x [0, t2), A = z_p, and c is
    the first-variable delta of z_q by the Leibniz rule: the integral of
    k(sigma1 t1, t2, t1, .) q(t1, .) over [0, t2) plus ii(q times the
    first-variable delta of k).  Taking the delta of k before integrating
    avoids the cancellation of a difference quotient of z_q.

    A factored kernel sums over r alpha times running integrals of beta * p
    or beta * q, O(r N) in all, for a stack of kernels at once.  A dense
    kernel contracts one row of slabs k(i + 1 | i, ., ., .) at a time.
    """
    m1, m2 = (n - 1 for n in p.domain.shape)
    mu1, mu2 = p.domain.mu1[:-1], p.domain.mu2[:-1]
    coeff = np.stack((p.values[..., :m1, :m2], q.values[..., :m1, :m2]))
    if kernel.factors is not None:
        alpha, beta = (x[..., :m2] for x in kernel.factors)
        # (r, 2, [count,] m1, m2)
        single = exclusive_sums(beta[:, None, ..., :m1, :] * coeff * mu2, -1)
        double = exclusive_sums(single * mu1[:, None], -2)
        alpha_diff = np.diff(alpha, axis=-2)
        alpha_d1 = alpha_diff / mu1[:, None]
        # where alpha_d1 overflowed, ii(beta q) multiplies alpha's difference
        # before mu1 divides it, as in the dense table; the Leibniz term is 0
        # where ii(beta q) is, even there
        leibniz = np.where(np.isfinite(alpha_d1), alpha_d1 * double[:, 1],
                           alpha_diff * double[:, 1] / mu1[:, None])
        leibniz[double[:, 1] == 0] = 0.0
        A = (alpha[..., :m1, :] * double[:, 0]).sum(axis=0)
        c = (alpha[..., 1:, :] * single[:, 1] + leibniz).sum(axis=0)
        return A, c
    weights = coeff.reshape(2, m1, m2) * np.outer(mu1, mu2)
    before = np.tri(m2, m2, -1)    # before[j, b] = 1 where b < j
    out = np.empty((2, m1, m2))
    for i in range(m1):
        # row i of A from the view k(i, ., a < i, .); of c from the
        # first-variable difference of that row times mu1[i], with
        # k(i + 1, ., i, .) appended as a = i, the one copy
        row = kernel.slab(i, i, m2)[:m2]
        diff = kernel.slab(i + 1, i + 1, m2)[:m2].copy()
        diff[:, :i] -= row
        out[0, i] = np.einsum("jab,ab,jb->j", row, weights[0, :i], before)
        out[1, i] = np.einsum("jab,ab,jb->j", diff, weights[1, :i + 1], before) / mu1[i]
    return tuple(out.reshape(coeff.shape))


class _Case:
    """An input type's stack, checked at construction, and its public
    check_hypotheses() and bound(), which run _diagnostics() and _bound() on
    a stack; one instance runs as a stack of one, its one result taken out."""

    def _check(self, *values, witness: GridFn2 | None) -> None:
        object.__setattr__(self, "_stack", _common_stack(*values, witness=witness))

    def _as_stack(self):
        """self, one instance as a stack of one: grid functions and a factored
        kernel as views of their checked values; numbers and a dense kernel as is."""
        if self._stack:
            return self
        lifted = {}
        for name, x in vars(self).items():
            if isinstance(x, (GridFn1, GridFn2)):
                x = _trusted(type(x), **vars(x) | {"values": x.values[None]})
            elif isinstance(x, KernelOracle) and x.factors is not None:
                x = KernelOracle(x.domain, factors=tuple(f[:, None] for f in x.factors))
            lifted[name] = x
        return _trusted(type(self), **lifted | {"_stack": (1,)})

    def check_hypotheses(self) -> list:
        """The diagnostics of _diagnostics; on a stack, one list per instance."""
        diags = self._as_stack()._diagnostics()
        return diags if self._stack else diags[0]

    def bound(self) -> BoundReport:
        report = self._as_stack()._bound()
        return report if self._stack else report.unstack()[0]


@dataclass(frozen=True)
class PointwiseInputs(_Case):
    """u <= p + q * ii(k u) with k a grid function, bounded by p + q * A * e_c.

    A is the running double integral of k*p, c the running second-axis
    integral of k*q, and the exponential of c runs in the first variable.
    u is an optional witness to compare against the bound.
    """

    p: GridFn2
    q: GridFn2
    k: GridFn2
    u: GridFn2 | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.k, GridFn2):
            raise DomainError("pointwise case needs k as a grid function")
        self._check(self.p, self.q, self.k, witness=self.u)

    def _diagnostics(self) -> list[list[str]]:
        """Nonnegativity of p, q and k."""
        diags = [[] for _ in self.p.values]
        for g, nm in ((self.p, "p"), (self.q, "q"), (self.k, "k")):
            _check_nonneg(g.values, nm, diags)
        return diags

    @np.errstate(over="ignore", invalid="ignore")
    def _bound(self) -> BoundReport:
        diags = self._diagnostics()
        dom = self.p.domain
        kdom, mu1, mu2 = dom.kappa(), dom.mu1[:-1], dom.mu2[:-1]
        p, q, k = (g.values[..., :-1, :-1] for g in (self.p, self.q, self.k))
        A = _double_sums(k * p, mu1, mu2)
        e = _exp_axis(exclusive_sums(k * q * mu2, -1), mu1, 1)
        return _finish(p + q * (A * e), kdom, BoundCase.POINTWISE, self.u, diags)


@dataclass(frozen=True)
class KernelInputs(_Case):
    """u <= p + q * ii(k(t1, t2, s1, s2) u) with k a KernelOracle on the
    domain of p and q, bounded by p + q * A * E.

    A(t) = ii(k(t, .) p) over [0, t1) x [0, t2), and c is the first-variable
    delta of ii(k(t, .) q), taken by the Leibniz rule so that no difference
    quotient of the integral cancels; E = e_c in the variable chosen by
    exponent_variant.  u is an optional witness to compare against the bound.
    """

    p: GridFn2
    q: GridFn2
    k: KernelOracle
    u: GridFn2 | None = None
    exponent_variant: ExponentVariant = ExponentVariant.FIRST_VARIABLE

    def __post_init__(self) -> None:
        if not isinstance(self.k, KernelOracle):
            raise DomainError("kernel case needs k as a KernelOracle")
        self._check(self.p, self.q, self.k, witness=self.u)

    def _diagnostics(self) -> list[list[str]]:
        """Nonnegativity of p, q, the kernel and its three sigma-shifted lattice
        differences over every argument combination the bound formulas touch; a
        failing difference names the first (i, j), in row order, of its minimum."""
        diags = [[] for _ in self.p.values]
        for g, nm in ((self.p, "p"), (self.q, "q")):
            _check_nonneg(g.values, nm, diags)
        mins, lows = _kernel_checks(self.k)
        for found, (worst, at) in zip(diags, mins):
            if worst < -HYPOTHESIS_SLACK:
                found.append(f"kernel negative at index {at}: {worst:.6g}")
        for kind, low in zip(("second-variable", "first-variable", "mixed"), lows):
            _check_nonneg(low, f"kernel {kind} difference", diags, "near")
        return diags

    def _bound(self) -> BoundReport:
        return bound_kernel_variants(self, (self.exponent_variant,))[self.exponent_variant]


@dataclass(frozen=True)
class SystemInputs(_Case):
    """The coupled pair with constants c1, c2 and coefficients h1..h4,
    bounded by c3 + A * e_c and compared against u + v.

    c3 = c1 + c2; H is the pointwise max of h1 + h3 and h2 + h4;
    A = c3 * ii(H); c integrates H over the second axis.  u is an optional
    witness for u + v; without it the coupled equality recursion provides one.
    """

    c1: float
    c2: float
    h1: GridFn2
    h2: GridFn2
    h3: GridFn2
    h4: GridFn2
    u: GridFn2 | None = None

    def __post_init__(self) -> None:
        self._check(self.h1, self.h2, self.h3, self.h4, self.c1, self.c2, witness=self.u)

    def _diagnostics(self) -> list[list[str]]:
        """Nonnegativity of c1, c2 and h1..h4."""
        diags = [[] for _ in self.h1.values]
        for val, nm in ((self.c1, "c1"), (self.c2, "c2")):
            vals = np.broadcast_to(np.asarray(val, dtype=float), (len(diags),))
            for k in np.flatnonzero(vals < -HYPOTHESIS_SLACK):
                diags[k].append(f"{nm} negative: {float(vals[k]):.6g}")
        for g, nm in ((self.h1, "h1"), (self.h2, "h2"), (self.h3, "h3"), (self.h4, "h4")):
            _check_nonneg(g.values, nm, diags)
        return diags

    @np.errstate(over="ignore", invalid="ignore")
    def _bound(self) -> BoundReport:
        c1, c2 = np.asarray(self.c1, dtype=float), np.asarray(self.c2, dtype=float)
        if np.any(c1 < 0) or np.any(c2 < 0):
            raise DomainError(f"system constants must be nonnegative, got {c1}, {c2}")
        diags = self._diagnostics()
        dom = self.h1.domain
        kdom, mu1, mu2 = dom.kappa(), dom.mu1[:-1], dom.mu2[:-1]
        hs = [h.values[..., :-1, :-1] for h in (self.h1, self.h2, self.h3, self.h4)]
        c3 = (c1 + c2)[..., None, None]
        c = exclusive_sums(np.maximum(hs[0] + hs[2], hs[1] + hs[3]) * mu2, -1)
        A = exclusive_sums(c * mu1[:, None], -2)

        def witness():
            u, v = witnesses.witness_system(c1, c2, *(GridFn2(kdom, h) for h in hs))
            return GridFn2(kdom, u.values + v.values)

        return _finish(c3 + (c3 * A) * _exp_axis(c, mu1, 1), kdom, BoundCase.SYSTEM,
                       witness if self.u is None else self.u, diags)


@dataclass(frozen=True)
class IntegrodynamicInputs(_Case):
    """The mixed-derivative relation with axis coefficients a (first axis)
    and b (second axis) and the grid function c, bounded by ii(h).

    p is the quotient-plus-integral coefficient a^{d1}/(a + b(0)) plus the
    integral of 1 + c over the second axis; q = (a(0) + b(t2)) * e_p * c
    with e_p the first-variable exponential of p at fixed t2;
    h = a + b + ii(q) and the bound is the running double integral of h.
    u is an optional witness; without it the equality witness is built.
    """

    a: GridFn1
    b: GridFn1
    c: GridFn2
    u: GridFn2 | None = None

    def __post_init__(self) -> None:
        if not (self.a.scale.same_points(self.c.domain.scale1)
                and self.b.scale.same_points(self.c.domain.scale2)):
            raise ScaleMismatchError("axis coefficients must live on the product scale's axes")
        self._check(self.c, self.a, self.b, witness=self.u)

    def _diagnostics(self) -> list[list[str]]:
        """a and b strictly positive and nondecreasing, c nonnegative, and
        the witness's mixed delta derivative nonnegative when u is given."""
        diags = [[] for _ in self.c.values]
        for g, nm in ((self.a, "a"), (self.b, "b")):
            worst = g.values.min(axis=1)
            for k in np.flatnonzero(worst <= 0.0):
                diags[k].append(f"{nm} must be strictly positive, found {float(worst[k]):.6g}")
            deltas = np.diff(g.values, axis=1) / np.diff(g.scale.points)
            if deltas.shape[1]:
                at = deltas.argmin(axis=1)
                lo = deltas[np.arange(len(deltas)), at]
                for k in np.flatnonzero(lo < -HYPOTHESIS_SLACK):
                    diags[k].append(f"{nm} delta derivative negative at index {int(at[k])}: "
                                    f"{float(lo[k]):.6g}")
        _check_nonneg(self.c.values, "c", diags)
        if self.u is not None:
            _check_nonneg(mixed_partial(self.u).values, "witness mixed delta", diags)
        return diags

    @np.errstate(over="ignore", invalid="ignore")
    def _bound(self) -> BoundReport:
        a1d, b1d, c2d = self.a, self.b, self.c
        if float(a1d.values.min()) <= 0.0 or float(b1d.values.min()) <= 0.0:
            raise DomainError("axis coefficients must be strictly positive")
        diags = self._diagnostics()
        dom = c2d.domain
        if min(dom.shape) < 2:
            raise DomainError("integrodynamic bound needs at least two points per axis")
        kdom, mu1, mu2 = dom.kappa(), dom.mu1[:-1], dom.mu2[:-1]
        a, b, c = a1d.values[..., :-1], b1d.values[..., :-1], c2d.values[..., :-1, :-1]
        a_delta = np.diff(a1d.values, axis=-1) / mu1
        inner = exclusive_sums((1.0 + c) * mu2, -1)
        p_vals = a_delta[..., None] / (a[..., None] + b[..., 0, None, None]) + inner
        e_p = _exp_axis(p_vals, mu1, 1)
        q_vals = (a[..., 0, None, None] + b[..., None, :]) * e_p * c
        h_vals = a[..., None] + b[..., None, :] + _double_sums(q_vals, mu1, mu2)

        def witness():
            return witnesses.witness_integrodynamic(GridFn1(kdom.scale1, a),
                                                    GridFn1(kdom.scale2, b),
                                                    GridFn2(kdom, c))[0]

        return _finish(_double_sums(h_vals, mu1, mu2), kdom, BoundCase.INTEGRODYNAMIC,
                       witness if self.u is None else self.u, diags)


@np.errstate(over="ignore", invalid="ignore")
def bound_kernel_variants(inputs: KernelInputs,
                          variants: tuple[ExponentVariant, ...] = tuple(ExponentVariant),
                          ) -> dict[ExponentVariant, BoundReport]:
    """The kernel bound's report for each of variants (default: both), in order.

    The hypotheses, A and c are computed once for all of them;
    inputs.exponent_variant is ignored.
    """
    stacked = inputs._as_stack()
    p, q, kernel = stacked.p, stacked.q, stacked.k
    dom = p.domain
    if min(dom.shape) < 2:
        raise DomainError("kernel bound needs at least two points per axis")
    kdom = dom.kappa()
    diags = stacked._diagnostics()
    A, c = _kernel_integrals(kernel, p, q)
    pk, qk = p.values[..., :-1, :-1], q.values[..., :-1, :-1]
    reports = {}
    for variant in variants:
        first = variant is ExponentVariant.FIRST_VARIABLE
        e = _exp_axis(c, dom.mu1, 1) if first else _exp_axis(c, dom.mu2, 2)
        reports[variant] = _finish(pk + qk * A * e, kdom, BoundCase.KERNEL, stacked.u,
                                   [list(d) for d in diags], variant)
    return reports if inputs._stack else {v: r.unstack()[0] for v, r in reports.items()}


BoundInputs = PointwiseInputs | KernelInputs | SystemInputs | IntegrodynamicInputs


def check_hypotheses(inputs: BoundInputs) -> list[str]:
    """Diagnostics for the case's sign and monotonicity hypotheses.

    Returns an empty list when every condition holds within -1e-12 slack;
    entries name the failing function and a witness point.  Hypothesis
    failures never raise; structural mistakes already raised when the
    inputs were constructed.
    """
    return inputs.check_hypotheses()


def compute_bound(inputs: BoundInputs) -> BoundReport:
    """The bound report for the case that inputs' type names."""
    return inputs.bound()
