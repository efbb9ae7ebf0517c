"""Loop implementations that the vectorized library code is checked against.

These are the straightforward per-cell versions: every witness value takes
one math.fsum over its whole rectangle, every re-check residual one block
sum per lattice point, the kernel bound's a and b four math.fsum calls per
lattice point and its A and c one more each, its difference diagnostics one
set of slices per lattice point, the compensated cumulative sum runs the Neumaier recursion
element by element, and the first-order comparison witness takes one Python
step per scale point; its one-level doubling scan stays as the reference
for the two-level scan.  They cost O(N^2) per lattice and live here
only as references for the tests.  The verify report writers build one
tuple of floats per lattice point and format each field with its own call;
numbers spells values with float.__repr__ one at a time, under the CSV and
JSON rules, for the vectorized spelling kernel.
The exact error of one rounded sum keeps its branching Neumaier form, the
reference for the branch-free TwoSum.  The product ladder takes a plain
running product and switches to signs and compensated sums of logs once a
prefix leaves [1e-300, 1e300]; the 2-D axis exponential is a raw cumprod
that underflows to 0.  The coefficient
realizers are the two hand-written family switches, one per dimension, that
convert each descriptor field with float() where they use it, and
realize_kernel builds the dense (n1, n2, n1, n2) table that config kernels
now hold as separable factors.  Two vectorized forms stay as references for
their replacements: the pointwise witness as its own row of the shared
sweep, and the kernel re-check that contracts the kernel's row slabs one
lattice row at a time, which serves any kernel, dense tables included.
The allocating row sweep (row_sweep), whose rows return fresh arrays and
whose column prefix is neumaier_cumsum of a transpose, is the reference for
the in-place sweep, with the factored, system and integro-dynamic witnesses
on it (witness_*_rows); the loop that appends one (i, j, witness, bound)
tuple per violating point (violations) is the reference for the counts and
flat indices that bound reports keep.
The verify driver that realizes, witnesses, bounds and re-checks one
instance at a time, the kernel case with one single-instance KernelOracle
per instance, is the reference for the stacked pass, and the
per-instance realizers it calls (instance_realize_*), which draw and
evaluate one instance per call, are the reference for the stacked
draw-then-evaluate realizers.  The pointwise and system bounds assembled on
the full lattice by gronwall_2d and then cut to kappa x kappa are the
reference for the bodies that compute on kappa x kappa only.  The
kernel's minimum, one row slab at a time, and its difference minima, one
pair of row slabs per row, are the reference for the sweep that builds each
row slab once.
The block-loop product ladder, which renormalizes its frexp mantissas every
PRODUCT_BLOCK factors in a Python loop over blocks (BlockLadder), is the
bit reference for the one running product; the exact sum that takes its
significands from frexp (exact_sum_frexp) is the bit reference for the one
that reads them from the bits; and the merge that walks the sorted points
one at a time (union_scales_loop) is the reference for the array merge.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from itertools import product

import numpy as np
from numpy.polynomial import polynomial as npoly

from tscale import (BoundCase, ConfigError, DomainError, GridFn1, GridFn2, KernelOracle,
                    TimeScale2D, TscaleError, bounds, running_integral, verify, witnesses)
from tscale.core import check_lattice_points
from tscale.grid2d import check_kernel_budget
from tscale.core import MERGE_TOL, TimeScale, _two_sum_error, neumaier_cumsum
from tscale.exponential import PRODUCT_BLOCK
from tscale.grid2d import _cell_weights


def cell_weights(domain) -> np.ndarray:
    return np.outer(np.diff(domain.scale1.points), np.diff(domain.scale2.points))


def two_sum_error(a, b, s) -> np.ndarray:
    """Exact rounding error of s = fl(a + b) in Neumaier's branching form:
    the larger operand in magnitude first."""
    return np.where(np.abs(a) >= np.abs(b), (a - s) + b, (b - s) + a)


def neumaier_cumsum_loop(values) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    out = np.empty(vals.shape, dtype=float)
    total = 0.0
    comp = 0.0
    for i, x in enumerate(vals):
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        out[i] = total + comp
    return out


def witness_pointwise(p, q, k, rho=1.0) -> np.ndarray:
    n1, n2 = p.domain.shape
    wmu = cell_weights(p.domain)
    u = np.empty((n1, n2))
    fed = np.empty((n1 - 1, n2 - 1))
    for i in range(n1):
        for j in range(n2):
            s = math.fsum(fed[:i, :j].ravel()) if i and j else 0.0
            u[i, j] = p.values[i, j] + rho * q.values[i, j] * s
            if i < n1 - 1 and j < n2 - 1:
                fed[i, j] = k.values[i, j] * u[i, j] * wmu[i, j]
    return u


@np.errstate(over="ignore", invalid="ignore")
def row_sweep(domain, lead, row) -> None:
    """The allocating row sweep: row(i, sums) returns row i's cells, and the
    column prefix is neumaier_cumsum of the transposed column sums."""
    n1, n2 = domain.shape
    wmu = _cell_weights(domain)
    col = np.zeros((*lead, n2 - 1))
    comp = np.zeros((*lead, n2 - 1))
    sums = np.zeros((*lead, n2))
    for i in range(n1):
        sums[..., 1:] = neumaier_cumsum((col + comp).T).T
        cells = row(i, sums)
        if i < n1 - 1:
            fed = cells * wmu[i]
            total = col + fed
            comp += _two_sum_error(col, fed, total)
            col = total


def _lattice_rows(*arrays) -> list[np.ndarray]:
    return [np.moveaxis(x, -2, 0) for x in arrays]


def witness_factored_rows(p, q, alpha, beta, rho) -> np.ndarray:
    """The factored witness (one field per separable term) on row_sweep; rho
    is the checked feedback factor, shape (1,) or (count, 1)."""
    u = np.empty(p.values.shape)
    ur, pr, qr = _lattice_rows(u, p.values, q.values)
    ar, br = (np.moveaxis(x, -2, 1) for x in (alpha, beta))

    def row(i, sums):
        ur[i] = pr[i] + rho * qr[i] * (ar[:, i] * sums).sum(axis=0)
        return br[:, i, ..., :-1] * ur[i, ..., :-1]

    row_sweep(p.domain, alpha.shape[:-2], row)
    return u


def witness_system_rows(c1, c2, h1, h2, h3, h4, rho) -> tuple[np.ndarray, np.ndarray]:
    c1, c2 = (np.asarray(c, dtype=float)[..., None] for c in (c1, c2))
    u = np.empty(h1.values.shape)
    v = np.empty(h1.values.shape)
    ur, vr, *hr = _lattice_rows(u, v, *(h.values[..., :-1] for h in (h1, h2, h3, h4)))

    def row(i, sums):
        ur[i] = c1 + rho * sums[0]
        vr[i] = c2 + rho * sums[1]
        ui, vi = ur[i, ..., :-1], vr[i, ..., :-1]
        g1, g2, g3, g4 = (h[i] for h in hr)
        return np.stack((g1 * ui + g2 * vi, g3 * ui + g4 * vi))

    row_sweep(h1.domain, (2, *u.shape[:-2]), row)
    return u, v


def witness_integrodynamic_rows(a1d, b1d, c2d, rho) -> tuple[np.ndarray, np.ndarray]:
    u = np.empty(c2d.values.shape)
    w = np.empty(c2d.values.shape)
    ur, wr, cr = _lattice_rows(u, w, c2d.values[..., :-1])
    a, b = np.moveaxis(a1d.values, -1, 0)[..., None], b1d.values

    def row(i, sums):
        wr[i] = a[i] + b + rho * sums[0]
        ur[i] = sums[1]
        ui, wi = ur[i, ..., :-1], wr[i, ..., :-1]
        return np.stack((cr[i] * (ui + wi), wi))

    row_sweep(c2d.domain, (2, *u.shape[:-2]), row)
    return u, w


def witness_pointwise_rows(p, q, k, rho=1.0) -> np.ndarray:
    u = np.empty(p.domain.shape)

    def row(i, sums):
        u[i] = p.values[i] + rho * q.values[i] * sums[0]
        return k.values[i, :-1] * u[i, :-1]

    row_sweep(p.domain, (1,), row)
    return u


def violations(witness, bound) -> list[list[tuple[int, int, float, float]]]:
    """Per instance of a stack of kappa x kappa lattices, (i, j, witness,
    bound) of every point whose excess crosses VIOLATION_TOL * (1 + |bound|),
    one Python tuple at a time."""
    excess = witness - bound
    tol = bounds.VIOLATION_TOL * (1.0 + np.abs(bound))
    found = [[] for _ in bound]
    for k, i, j in np.argwhere(excess > tol).tolist():
        found[k].append((i, j, float(witness[k, i, j]), float(bound[k, i, j])))
    return found


def witness_kernel(p, q, kernel, rho=1.0) -> np.ndarray:
    n1, n2 = p.domain.shape
    wmu = cell_weights(p.domain)
    table = kernel.table()
    u = np.empty((n1, n2))
    uw = np.empty((n1 - 1, n2 - 1))
    for i in range(n1):
        for j in range(n2):
            if i and j:
                s = math.fsum((table[i, j, :i, :j] * uw[:i, :j]).ravel())
            else:
                s = 0.0
            u[i, j] = p.values[i, j] + rho * q.values[i, j] * s
            if i < n1 - 1 and j < n2 - 1:
                uw[i, j] = u[i, j] * wmu[i, j]
    return u


def witness_system(c1, c2, h1, h2, h3, h4, rho=1.0) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = h1.domain.shape
    wmu = cell_weights(h1.domain)
    u = np.empty((n1, n2))
    v = np.empty((n1, n2))
    fed_u = np.empty((n1 - 1, n2 - 1))
    fed_v = np.empty((n1 - 1, n2 - 1))
    for i in range(n1):
        for j in range(n2):
            if i and j:
                su = math.fsum(fed_u[:i, :j].ravel())
                sv = math.fsum(fed_v[:i, :j].ravel())
            else:
                su = sv = 0.0
            u[i, j] = float(c1) + rho * su
            v[i, j] = float(c2) + rho * sv
            if i < n1 - 1 and j < n2 - 1:
                fed_u[i, j] = (h1.values[i, j] * u[i, j] + h2.values[i, j] * v[i, j]) * wmu[i, j]
                fed_v[i, j] = (h3.values[i, j] * u[i, j] + h4.values[i, j] * v[i, j]) * wmu[i, j]
    return u, v


def witness_integrodynamic(a1d, b1d, c2d, rho=1.0) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = c2d.domain.shape
    wmu = cell_weights(c2d.domain)
    u = np.empty((n1, n2))
    w = np.empty((n1, n2))
    fed = np.empty((n1 - 1, n2 - 1))
    w_cells = np.empty((n1 - 1, n2 - 1))
    for i in range(n1):
        for j in range(n2):
            if i and j:
                w[i, j] = a1d.values[i] + b1d.values[j] + rho * math.fsum(fed[:i, :j].ravel())
                u[i, j] = math.fsum(w_cells[:i, :j].ravel())
            else:
                w[i, j] = a1d.values[i] + b1d.values[j]
                u[i, j] = 0.0
            if i < n1 - 1 and j < n2 - 1:
                fed[i, j] = c2d.values[i, j] * (u[i, j] + w[i, j]) * wmu[i, j]
                w_cells[i, j] = w[i, j] * wmu[i, j]
    return u, w


def witness_comparison_loop(f, g, x_a, a, slack=0.0) -> np.ndarray:
    pts = f.scale.points[a:]
    x = np.empty(len(pts))
    x[0] = float(x_a)
    for k in range(len(pts) - 1):
        mu = pts[k + 1] - pts[k]
        i = a + k
        x[k + 1] = x[k] + mu * (f.values[i] + g.values[i] * x[k] - slack)
    return x


def witness_comparison_doubling(f, g, x_a, a, slack=0.0) -> np.ndarray:
    """The comparison witness by one Hillis-Steele doubling scan over all n
    steps: ceil(log2 n) full-length rounds of the split mantissa and
    exponent compositions that the two-level scan runs within blocks."""
    pts = f.scale.points[a:]
    n = len(pts) - 1
    x = np.empty(n + 1)
    x[0] = float(x_a)
    tmp = x[1:]    # mu until the scan starts, then scratch, then x itself
    np.subtract(pts[1:], pts[:-1], out=tmp)
    b = f.values[a:-1] - slack
    b *= tmp
    m = g.values[a:-1] * tmp
    m += 1.0
    e = np.empty(n, np.int64)
    etmp = np.empty_like(e)
    np.frexp(m, out=(m, e))
    d = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while d < n:
            t, et = tmp[:n - d], etmp[:n - d]
            np.frexp(b[:-d], out=(t, et))
            t *= m[d:]
            et += e[d:]
            b[d:] += np.ldexp(t, et, out=t)
            np.multiply(m[d:], m[:-d], out=t)
            np.add(e[d:], e[:-d], out=et)
            np.frexp(t, out=(m[d:], e[d:]))
            e[d:] += et
            d *= 2
        mx, ex = np.frexp(x[0])
        np.ldexp(np.multiply(m, mx, out=tmp), e + ex, out=tmp)
        tmp += b
    return x


# Running product magnitudes beyond this trip the log-space representation.
PRODUCT_LIMIT = 1e300


class ProductLadder:
    """Prefix products P[k] = factors[0] * ... * factors[k-1] with P[0] = 1 of
    nonzero 1-D factors, direct while every prefix lies in [1e-300, 1e300],
    as signs and log magnitudes otherwise."""

    def __init__(self, factors):
        factors = np.asarray(factors, dtype=float)
        if np.any(factors == 0.0):
            raise ValueError("product ladder factors must be nonzero")
        self.n = len(factors) + 1
        with np.errstate(over="ignore", under="ignore"):
            direct = np.concatenate(([1.0], np.cumprod(factors)))
        mags = np.abs(direct)
        self.log_mode = bool(
            np.any(~np.isfinite(direct))
            or np.any(mags > PRODUCT_LIMIT)
            or np.any(mags < 1.0 / PRODUCT_LIMIT)
        )
        if self.log_mode:
            self.signs = np.concatenate(([1.0], np.cumprod(np.sign(factors))))
            self.logs = np.concatenate(
                ([0.0], neumaier_cumsum_loop(np.log(np.abs(factors)))))
            self.direct = None
        else:
            self.direct = direct

    def ratios_from(self, j: int) -> np.ndarray:
        if not self.log_mode:
            return self.direct / self.direct[j]
        with np.errstate(over="ignore"):
            return self.signs * self.signs[j] * np.exp(self.logs - self.logs[j])


class BlockLadder:
    """Prefix products down axis 0 as frexp mantissas and exponents, the
    mantissas multiplied one block of PRODUCT_BLOCK factors at a time and
    renormalized at each block's end."""

    def __init__(self, factors):
        mant, expo = np.frexp(np.asarray(factors, dtype=float))
        self.mantissas = np.ones((len(mant) + 1,) + mant.shape[1:])
        for start in range(0, len(mant), PRODUCT_BLOCK):
            block = self.mantissas[start:start + PRODUCT_BLOCK + 1]
            block[1:] = mant[start:start + PRODUCT_BLOCK]
            np.multiply.accumulate(block, axis=0, out=block)
            block[-1], shift = np.frexp(block[-1])
            expo[start + len(block) - 2] += shift
        self.exponents = np.zeros(self.mantissas.shape, dtype=np.int64)
        np.add.accumulate(expo, axis=0, out=self.exponents[1:])

    @property
    def log_mode(self) -> bool:
        own = np.frexp(self.mantissas)[1] + self.exponents
        return bool(np.any((self.mantissas != 0.0) & ((own < -1021) | (own > 1024))))

    def ratios_from(self, j: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.ldexp(self.mantissas / self.mantissas[j],
                            self.exponents - self.exponents[j])


def exact_sum_frexp(values) -> float:
    """math.fsum's bits from int64 significands frexp(v) * 2**53, two limbs
    of each summed per binary exponent with np.add.at; ValueError past the
    float range."""
    vals = np.asarray(values, dtype=float).ravel()
    if not (vals.size and np.all(np.isfinite(vals)) and vals.any()):
        total = math.fsum(vals)
        if not math.isfinite(total):
            raise ValueError("sum outside the float range")
        return total
    mant, exp = np.frexp(vals)
    ints = (mant * 2.0 ** 53).astype(np.int64)
    low = exp.min()
    bins = exp - low
    limbs = np.zeros((2, int(bins.max()) + 1), np.int64)
    np.add.at(limbs[0], bins, ints >> 26)
    np.add.at(limbs[1], bins, ints & (2 ** 26 - 1))
    total = 0
    for k in np.flatnonzero(limbs.any(axis=0)).tolist():
        total += ((int(limbs[0, k]) << 26) + int(limbs[1, k])) << k
    shift = int(low) - 53
    try:
        return float(total << shift) if shift >= 0 else total / (1 << -shift)
    except OverflowError:
        raise ValueError("sum outside the float range") from None


def union_scales_loop(a, b):
    """Sort the points of both scales, a's first among equals, and walk them:
    a point within MERGE_TOL * (1 + |point|) of the last kept one ORs its tag
    into it, any other is kept."""
    pts: list[float] = []
    tags: list[bool] = []
    merged = sorted(list(zip(a.points, a.dense)) + list(zip(b.points, b.dense)),
                    key=lambda pair: pair[0])
    for value, tag in merged:
        if pts and abs(value - pts[-1]) <= MERGE_TOL * (1.0 + abs(value)):
            tags[-1] = tags[-1] or tag
        else:
            pts.append(float(value))
            tags.append(bool(tag))
    return TimeScale(np.array(pts), np.array(tags))


def exp_axis(c, mu, axis: int) -> np.ndarray:
    """Running product along axis (1 or 2) of 1 + mu * c by a raw cumprod;
    ValueError where it overflows."""
    out = np.ones_like(c)
    c_ax, out_ax = (c, out) if axis == 1 else (c.T, out.T)
    if c_ax.shape[0] > 1:
        factors = 1.0 + mu[: c_ax.shape[0] - 1, None] * c_ax[:-1, :]
        with np.errstate(over="ignore", under="ignore"):
            np.cumprod(factors, axis=0, out=out_ax[1:, :])
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{('first', 'second')[axis - 1]}-variable exponential overflowed")
    return out


def kernel_ab(kernel, p, q) -> tuple[np.ndarray, np.ndarray]:
    """a and b of the kernel bound, one math.fsum per term and lattice point."""
    table = kernel.table()
    n1, n2 = p.domain.shape
    mu1 = np.diff(p.domain.scale1.points)
    mu2 = np.diff(p.domain.scale2.points)
    m1, m2 = n1 - 1, n2 - 1
    a_vals = np.empty((m1, m2))
    b_vals = np.empty((m1, m2))
    for i in range(m1):
        for j in range(m2):
            d2 = (table[i + 1, j + 1, i, :j] - table[i + 1, j, i, :j]) / mu2[j]
            d1 = (table[i + 1, j + 1, :i, j] - table[i, j + 1, :i, j]) / mu1[i]
            d12 = (table[i + 1, j + 1, :i, :j] - table[i + 1, j, :i, :j]
                   - table[i, j + 1, :i, :j] + table[i, j, :i, :j]) / (mu1[i] * mu2[j])
            for target, coeff in ((a_vals, p.values), (b_vals, q.values)):
                target[i, j] = math.fsum([
                    table[i + 1, j + 1, i, j] * coeff[i, j],
                    math.fsum(d2 * coeff[i, :j] * mu2[:j]),
                    math.fsum(d1 * coeff[:i, j] * mu1[:i]),
                    math.fsum((d12 * coeff[:i, :j]
                               * np.outer(mu1[:i], mu2[:j])).ravel()),
                ])
    return a_vals, b_vals


def kernel_integrals(kernel, p, q) -> tuple[np.ndarray, np.ndarray]:
    """A and c of the kernel bound: kernel_ab's a and b integrated with one
    math.fsum per lattice point, A over [0, i) x [0, j) and c over [0, j)."""
    a_vals, b_vals = kernel_ab(kernel, p, q)
    m1, m2 = a_vals.shape
    mu1 = np.diff(p.domain.scale1.points)
    mu2 = np.diff(p.domain.scale2.points)
    cells = a_vals * np.outer(mu1, mu2)
    big_a = np.empty((m1, m2))
    c = np.empty((m1, m2))
    for i in range(m1):
        for j in range(m2):
            big_a[i, j] = math.fsum(cells[:i, :j].ravel())
            c[i, j] = math.fsum(b_vals[i, :j] * mu2[:j])
    return big_a, c


@np.errstate(over="ignore", invalid="ignore")
def pointwise_bound_full(p, q, k) -> np.ndarray:
    """The pointwise bound's values: p + q * gronwall_2d(ii(k p), k q) on the
    full lattice, then cut to kappa x kappa."""
    dom = p.domain
    A = running_integral(running_integral(GridFn2(dom, k.values * p.values), 2), 1)
    full = p.values + q.values * bounds.gronwall_2d(A, GridFn2(dom, k.values * q.values)).values
    if not np.all(np.isfinite(full)):
        raise DomainError("pointwise bound overflowed")
    return full[..., :-1, :-1]


@np.errstate(over="ignore", invalid="ignore")
def system_bound_full(c1, c2, h1, h2, h3, h4) -> np.ndarray:
    """The system bound's values: c3 + gronwall_2d(c3 ii(H), H) on the full
    lattice, then cut to kappa x kappa."""
    dom = h1.domain
    c3 = (np.asarray(c1, dtype=float) + np.asarray(c2, dtype=float))[..., None, None]
    hfn = GridFn2(dom, np.maximum(h1.values + h3.values, h2.values + h4.values))
    A = GridFn2(dom, c3 * running_integral(running_integral(hfn, 2), 1).values)
    full = c3 + bounds.gronwall_2d(A, hfn).values
    if not np.all(np.isfinite(full)):
        raise DomainError("system bound overflowed")
    return full[..., :-1, :-1]


def kernel_difference_diagnostics(kernel) -> list[str]:
    """The kernel's sign and difference diagnostics, one set of slices per (i, j)."""
    table = kernel.table()
    n1, n2 = kernel.domain.shape
    mu1 = np.diff(kernel.domain.scale1.points)
    mu2 = np.diff(kernel.domain.scale2.points)
    diags = []
    at = np.unravel_index(int(np.argmin(table)), table.shape)
    if table[at] < -1e-12:
        diags.append(f"kernel negative at index {tuple(int(x) for x in at)}: "
                     f"{float(table[at]):.6g}")
    worst = {"second-variable difference": (math.inf, None),
             "first-variable difference": (math.inf, None),
             "mixed difference": (math.inf, None)}

    def track(kind, vals, where):
        lo = float(vals.min()) if vals.size else math.inf
        if lo < worst[kind][0]:
            worst[kind] = (lo, where)

    for i in range(n1 - 1):
        for j in range(n2 - 1):
            if j:
                track("second-variable difference",
                      (table[i + 1, j + 1, i, :j] - table[i + 1, j, i, :j]) / mu2[j],
                      (i, j))
            if i:
                track("first-variable difference",
                      (table[i + 1, j + 1, :i, j] - table[i, j + 1, :i, j]) / mu1[i],
                      (i, j))
            if i and j:
                track("mixed difference",
                      (table[i + 1, j + 1, :i, :j] - table[i + 1, j, :i, :j]
                       - table[i, j + 1, :i, :j] + table[i, j, :i, :j])
                      / (mu1[i] * mu2[j]),
                      (i, j))
    for kind, (lo, where) in worst.items():
        if lo < -1e-12:
            diags.append(f"kernel {kind} negative near {where}: {lo:.6g}")
    return diags


def kernel_min(kernel) -> tuple[float, tuple[int, ...]]:
    """The kernel's smallest value and its first index in row order, taken
    one row slab at a time."""
    worst, at = math.inf, ()
    for i in range(kernel.domain.shape[0]):
        slab = kernel.slab(i)
        first = int(np.argmin(slab))
        if slab.flat[first] < worst:
            worst = float(slab.flat[first])
            at = (i, *map(int, np.unravel_index(first, slab.shape)))
    return worst, at


def swept_lows(kernel) -> np.ndarray:
    """The (3, n1 - 1, n2 - 1) difference minima of one kernel, from the
    pair of row slabs k(i + 1 | i, ., ., .) built afresh for each row."""
    n1, n2 = kernel.domain.shape
    m1, m2 = n1 - 1, n2 - 1
    mu1, mu2 = kernel.domain.mu1[:-1], kernel.domain.mu2[:-1]
    lows = np.full((3, m1, m2), np.inf)
    j = np.arange(m2)
    before = np.tri(m2, m2, -1, dtype=bool)    # before[j, b]: b < j
    for i in range(m1 if m2 else 0):
        upper, lower = kernel.slab(i + 1, i + 1, m2), kernel.slab(i, i, m2)
        k11, k10, k01, k00 = upper[1:], upper[:-1], lower[1:], lower[:-1]
        d2 = (k11[:, i] - k10[:, i]) / mu2[:, None]
        d1 = (k11[j, :i, j] - k01[j, :, j]) / mu1[i]
        d12 = (k11[:, :i] - k10[:, :i] - k01 + k00) / (mu1[i] * mu2[:, None, None])
        np.minimum.reduce(d2, 1, initial=np.inf, where=before, out=lows[0, i])
        np.minimum.reduce(d1, 1, initial=np.inf, out=lows[1, i])
        np.minimum.reduce(d12, (1, 2), initial=np.inf, where=before[:, None],
                          out=lows[2, i])
    return lows


def recheck_pointwise(p, q, k, u) -> float:
    wmu = cell_weights(u.domain)
    fed = k.values[:-1, :-1] * u.values[:-1, :-1] * wmu
    worst = -math.inf
    n1, n2 = u.domain.shape
    for i in range(n1):
        for j in range(n2):
            rhs = p.values[i, j] + q.values[i, j] * float(fed[:i, :j].sum())
            worst = max(worst, (u.values[i, j] - rhs) / (1.0 + abs(rhs)))
    return worst


def recheck_kernel(p, q, kernel, u) -> float:
    wmu = cell_weights(u.domain)
    uw = u.values[:-1, :-1] * wmu
    table = kernel.table()
    worst = -math.inf
    n1, n2 = u.domain.shape
    for i in range(n1):
        for j in range(n2):
            rhs = p.values[i, j] + q.values[i, j] * float((table[i, j, :i, :j]
                                                           * uw[:i, :j]).sum())
            worst = max(worst, (u.values[i, j] - rhs) / (1.0 + abs(rhs)))
    return worst


def recheck_kernel_slabs(p, q, kernel, u) -> float:
    uw = u.values[:-1, :-1] * cell_weights(u.domain)
    n1, n2 = u.domain.shape
    j = np.arange(1, n2)
    rhs = p.values.copy()
    for i in range(1, n1):
        # prefix[j, b] sums k(i, j, a, b') u(a, b') mu mu over a < i, b' <= b
        prefix = np.einsum("jab,ab->jb", kernel.slab(i, i, n2 - 1), uw[:i]).cumsum(axis=1)
        rhs[i, 1:] += q.values[i, 1:] * prefix[j, j - 1]
    return float(((u.values - rhs) / (1.0 + np.abs(rhs))).max())


def recheck_system(c1, c2, hs, u, v) -> float:
    wmu = cell_weights(u.domain)
    h1, h2, h3, h4 = hs
    fed_u = (h1.values[:-1, :-1] * u.values[:-1, :-1]
             + h2.values[:-1, :-1] * v.values[:-1, :-1]) * wmu
    fed_v = (h3.values[:-1, :-1] * u.values[:-1, :-1]
             + h4.values[:-1, :-1] * v.values[:-1, :-1]) * wmu
    worst = -math.inf
    n1, n2 = u.domain.shape
    for i in range(n1):
        for j in range(n2):
            rhs_u = c1 + float(fed_u[:i, :j].sum())
            rhs_v = c2 + float(fed_v[:i, :j].sum())
            worst = max(worst,
                        (u.values[i, j] - rhs_u) / (1.0 + abs(rhs_u)),
                        (v.values[i, j] - rhs_v) / (1.0 + abs(rhs_v)))
    return worst


def recheck_integrodynamic(a, b, c, u, w) -> float:
    if np.any(u.values[0, :] != 0.0) or np.any(u.values[:, 0] != 0.0):
        return math.inf
    wmu = cell_weights(u.domain)
    fed = c.values[:-1, :-1] * (u.values[:-1, :-1] + w.values[:-1, :-1]) * wmu
    w_cells = w.values[:-1, :-1] * wmu
    worst = -math.inf
    n1, n2 = u.domain.shape
    for i in range(n1):
        for j in range(n2):
            rhs_w = a.values[i] + b.values[j] + float(fed[:i, :j].sum())
            worst = max(worst, (w.values[i, j] - rhs_w) / (1.0 + abs(rhs_w)))
            u_ref = float(w_cells[:i, :j].sum())
            worst = max(worst, abs(u.values[i, j] - u_ref) / (1.0 + abs(u_ref)))
    return worst


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def numbers(values, json_rule: bool = False) -> list[str]:
    """Each value as float.__repr__ spells it, less a trailing ".0", or, with
    json_rule, as json.dumps spells a float (NaN, Infinity, -Infinity): the
    spelling kernel's reference."""
    reprs = map(float.__repr__, np.asarray(values, dtype=float).ravel().tolist())
    if json_rule:
        return [_JSON_FLOATS.get(s, s) for s in reprs]
    return [s[:-2] if s.endswith(".0") else s for s in reprs]


def fmt_number(x: float) -> str:
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def point_rows(reports) -> list[tuple[float, float, float, float, float]]:
    rows = []
    for report in reports:
        dom = report.bound.domain
        w = report.witness
        for i in range(dom.shape[0]):
            for j in range(dom.shape[1]):
                b = float(report.bound.values[i, j])
                wv = float(w.values[i, j]) if w is not None else math.nan
                rows.append((float(dom.scale1.points[i]),
                             float(dom.scale2.points[j]), wv, b, b - wv))
    return rows


def write_csv(fh, reports) -> None:
    fh.write("t1,t2,witness,bound,slack\n")
    for row in point_rows(reports):
        fh.write(",".join(fmt_number(x) for x in row) + "\n")


def write_json(fh, payload: dict, reports) -> None:
    payload = dict(payload)
    payload["points"] = [
        {"t1": r[0], "t2": r[1], "witness": r[2], "bound": r[3], "slack": r[4]}
        for r in point_rows(reports)]
    fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


VALUE_CAP = 10.0


def _rng_required(rng) -> None:
    if rng is None:
        raise ConfigError("sampled function parameters need a seeded run; "
                          "supply fixed parameters here")


def _sample_scalar(rng) -> float:
    return float(min(VALUE_CAP, 0.1 + 2.0 * abs(rng.standard_normal())))


def _capped(vals: np.ndarray) -> np.ndarray:
    top = float(np.abs(vals).max()) if vals.size else 0.0
    if top > VALUE_CAP:
        vals = vals * (VALUE_CAP / top)
    return vals


def realize_1d(spec, scale, rng=None, monotone_positive: bool = False):
    t = scale.points
    shifted = t - t[0]
    fam = spec.family
    if fam == "any":
        _rng_required(rng)
        pool = ("constant", "polynomial", "exponential") if monotone_positive \
            else ("constant", "polynomial", "exponential", "tabulated")
        fam = pool[int(rng.integers(len(pool)))]
    if fam == "constant":
        if spec.value is not None:
            vals = np.full(len(t), float(spec.value))
        else:
            _rng_required(rng)
            vals = np.full(len(t), _sample_scalar(rng))
    elif fam == "polynomial":
        if spec.coeffs is not None:
            vals = npoly.polyval(t, np.asarray(spec.coeffs, dtype=float))
        else:
            _rng_required(rng)
            deg = int(rng.integers(0, 4))
            coeffs = np.abs(rng.standard_normal(deg + 1))
            if monotone_positive:
                coeffs[0] += 0.1
            vals = _capped(npoly.polyval(shifted, coeffs))
    elif fam == "exponential":
        if spec.amplitude is not None or spec.rate is not None:
            amp = float(spec.amplitude) if spec.amplitude is not None else 1.0
            rate = float(spec.rate) if spec.rate is not None else 0.0
            vals = amp * np.exp(rate * t)
        else:
            _rng_required(rng)
            amp = 0.1 + abs(rng.standard_normal())
            rate = float(rng.uniform(0.0 if monotone_positive else -0.5, 0.5))
            vals = _capped(amp * np.exp(rate * shifted))
    elif fam == "tabulated":
        if spec.values is not None:
            vals = np.asarray(spec.values, dtype=float)
            if vals.shape != t.shape:
                raise ConfigError("tabulated values must match the scale length")
        else:
            _rng_required(rng)
            vals = _capped(2.0 * np.abs(rng.standard_normal(len(t))))
    elif fam == "sin":
        omega = float(spec.omega) if spec.omega is not None else 1.0
        vals = np.sin(omega * t)
    else:
        raise ConfigError(f"function family '{fam}' is not usable here")
    if monotone_positive:
        if float(vals.min()) <= 0.0:
            raise ConfigError("this coefficient must be strictly positive on the scale")
        if len(vals) > 1 and float(np.diff(vals).min()) < 0.0:
            raise ConfigError("this coefficient must be nondecreasing on the scale")
    return GridFn1(scale, np.asarray(vals, dtype=float))


def realize_2d(spec, domain, rng=None, require_nonneg: bool = True):
    t1 = domain.scale1.points
    t2 = domain.scale2.points
    s1 = t1 - t1[0]
    s2 = t2 - t2[0]
    fam = spec.family
    if fam == "any":
        _rng_required(rng)
        pool = ("constant", "polynomial", "exponential", "tabulated")
        fam = pool[int(rng.integers(len(pool)))]
    if fam == "constant":
        if spec.value is not None:
            vals = np.full(domain.shape, float(spec.value))
        else:
            _rng_required(rng)
            vals = np.full(domain.shape, _sample_scalar(rng))
    elif fam == "polynomial":
        if spec.coeffs is not None:
            c = np.asarray(spec.coeffs, dtype=float)
            if c.ndim != 2:
                raise ConfigError("a 2-D polynomial needs a coefficient matrix")
            vals = npoly.polyval2d(*np.meshgrid(t1, t2, indexing="ij"), c)
        else:
            _rng_required(rng)
            pairs = [(d1, d2) for d1 in range(4) for d2 in range(4) if d1 + d2 <= 3]
            d1, d2 = pairs[int(rng.integers(len(pairs)))]
            c = np.abs(rng.standard_normal((d1 + 1, d2 + 1)))
            vals = _capped(npoly.polyval2d(*np.meshgrid(s1, s2, indexing="ij"), c))
    elif fam == "exponential":
        if spec.amplitude is not None or spec.rate1 is not None or spec.rate2 is not None:
            amp = float(spec.amplitude) if spec.amplitude is not None else 1.0
            r1 = float(spec.rate1) if spec.rate1 is not None else 0.0
            r2 = float(spec.rate2) if spec.rate2 is not None else 0.0
            vals = amp * np.exp(r1 * t1[:, None] + r2 * t2[None, :])
        else:
            _rng_required(rng)
            amp = 0.1 + abs(rng.standard_normal())
            r1 = float(rng.uniform(-0.5, 0.5))
            r2 = float(rng.uniform(-0.5, 0.5))
            vals = _capped(amp * np.exp(r1 * s1[:, None] + r2 * s2[None, :]))
    elif fam == "tabulated":
        if spec.values is not None:
            vals = np.asarray(spec.values, dtype=float)
            if vals.shape != domain.shape:
                raise ConfigError("tabulated values must match the lattice shape")
        else:
            _rng_required(rng)
            vals = _capped(2.0 * np.abs(rng.standard_normal(domain.shape)))
    elif fam == "sin":
        raise ConfigError("sin may go negative and cannot serve as a coefficient")
    else:
        raise ConfigError(f"function family '{fam}' is not usable here")
    if require_nonneg and float(vals.min()) < 0.0:
        raise ConfigError("coefficient functions must be nonnegative on the lattice")
    return GridFn2(domain, np.asarray(vals, dtype=float))


def realize_scalar(spec, rng=None) -> float:
    if spec.family == "constant" and spec.value is not None:
        v = float(spec.value)
        if v < 0:
            raise ConfigError("constants must be nonnegative")
        return v
    if spec.family in ("constant", "any"):
        _rng_required(rng)
        return _sample_scalar(rng)
    raise ConfigError("this entry must be a constant")


def realize_kernel(spec, domain, rng=None):
    check_kernel_budget(domain)
    fam = spec.family
    if fam == "any":
        _rng_required(rng)
        fam = ("constant", "affine_product")[int(rng.integers(2))]
    if fam == "constant":
        if spec.value is not None:
            v = float(spec.value)
            if v < 0:
                raise ConfigError("a constant kernel must be nonnegative")
        else:
            _rng_required(rng)
            v = _sample_scalar(rng)
        return KernelOracle.constant(domain, v)
    if fam != "affine_product":
        raise ConfigError(f"kernel family '{fam}' is not supported")
    if spec.params is not None:
        params = tuple(float(x) for x in spec.params)
        if len(params) != 7:
            raise ConfigError("affine_product kernel needs 7 parameters")
        if min(params) < 0:
            raise ConfigError("affine_product kernel parameters must be nonnegative")
        x1 = domain.scale1.points
        x2 = domain.scale2.points
    else:
        _rng_required(rng)
        params = tuple(np.abs(rng.standard_normal(7)))
        x1 = domain.scale1.points - domain.scale1.points[0]
        x2 = domain.scale2.points - domain.scale2.points[0]
    a0, a1, b0, b1, c0, c1, c2 = params
    f1 = a0 + a1 * x1
    f2 = b0 + b1 * x2
    g = c0 + c1 * x1[:, None] + c2 * x2[None, :]
    table = f1[:, None, None, None] * f2[None, :, None, None] * g[None, None, :, :]
    if spec.params is None:
        top = float(table.max())
        if top > VALUE_CAP:
            table *= VALUE_CAP / top
    return KernelOracle.from_table(domain, table)


def classical_forms(spec):
    fam = spec.family
    if fam == "constant" and spec.value is not None:
        v = float(spec.value)
        return (lambda t: v), (lambda t: 0.0)
    if fam == "polynomial" and spec.coeffs is not None:
        c = np.asarray(spec.coeffs, dtype=float)
        d = npoly.polyder(c) if len(c) > 1 else np.zeros(1)
        return (lambda t: float(npoly.polyval(t, c))), \
               (lambda t: float(npoly.polyval(t, d)))
    if fam == "sin":
        w = float(spec.omega) if spec.omega is not None else 1.0
        return (lambda t: math.sin(w * t)), (lambda t: w * math.cos(w * t))
    if fam == "exponential" and (spec.amplitude is not None or spec.rate is not None):
        amp = float(spec.amplitude) if spec.amplitude is not None else 1.0
        rate = float(spec.rate) if spec.rate is not None else 0.0
        return (lambda t: amp * math.exp(rate * t)), \
               (lambda t: amp * rate * math.exp(rate * t))
    raise ConfigError("convergence study needs a fixed smooth function "
                      "(constant, polynomial, sin, or exponential)")


# The per-instance realizer that the stacked one replaced: each call draws one
# instance from the stream and evaluates it on its own, with np.ix_ grids and
# numpy's polyval at the drawn degree.


def _pick_family(family: str, pool: tuple[str, ...], rng) -> str:
    """family itself, or for 'any' a member of pool drawn from rng."""
    if family != "any":
        return family
    _rng_required(rng)
    return pool[int(rng.integers(len(pool)))]


def _drawn_constant(value: float | None, rng) -> float:
    """value itself, or a constant drawn from rng when it is None."""
    if value is not None:
        return value
    _rng_required(rng)
    return float(min(VALUE_CAP, 0.1 + 2.0 * abs(rng.standard_normal())))


def _coefficient_array(spec, naxes: int) -> np.ndarray:
    c = np.asarray(spec.coeffs)
    if c.ndim != naxes:
        raise ConfigError(f"polynomial coefficients need one nesting level per axis, {naxes} here")
    return c


def _nested_polyval(grids, c: np.ndarray) -> np.ndarray:
    """Polynomial with one axis of c per grid on the broadcast grids, by
    nested Horner steps as polyval2d takes them."""
    vals = npoly.polyval(grids[0], c)
    for x in grids[1:]:
        vals = npoly.polyval(x, vals, tensor=False)
    return vals


_ANY_POOL = ("constant", "polynomial", "exponential", "tabulated")


def _instance_values(spec, axes: tuple[np.ndarray, ...], rng,
                     monotone: bool = False) -> np.ndarray:
    """Values of spec on the product of one or two axes (point arrays).

    Fixed parameters are evaluated at the raw points.  Sampled families use
    points shifted to start at zero and absolute-value coefficients, which
    makes them nonnegative, and are capped at VALUE_CAP: in log space for an
    exponential that leaves the float range, while any other family that
    leaves it raises ConfigError.  monotone also keeps them nondecreasing (no
    tabulated draw, a raised constant term, rates of at least 0).
    Exponential rates are (rate,) on one axis and (rate1, rate2) on two; sin
    serves on one axis only.
    """
    n = len(axes)
    shape = tuple(len(x) for x in axes)
    grids = np.ix_(*axes)
    fam = _pick_family(spec.family, _ANY_POOL[:3] if monotone else _ANY_POOL, rng)
    if fam == "constant":
        return np.full(shape, _drawn_constant(spec.value, rng))
    if fam == "sin" and n == 1:
        return np.sin((1.0 if spec.omega is None else spec.omega) * grids[0])
    if fam == "sin":
        raise ConfigError("sin may go negative and cannot serve as a coefficient")
    if fam not in _ANY_POOL:
        raise ConfigError(f"function family '{fam}' is not usable here")
    amp, rates = spec.amplitude, (spec.rate,) if n == 1 else (spec.rate1, spec.rate2)
    if fam == "polynomial" and spec.coeffs is not None:
        return _nested_polyval(grids, _coefficient_array(spec, n))
    if fam == "exponential" and (amp is not None or rates != (None,) * n):
        amp, rates = 1.0 if amp is None else amp, [0.0 if r is None else r for r in rates]
        return amp * np.exp(reduce(np.add, (r * x for r, x in zip(rates, grids))))
    if fam == "tabulated" and spec.values is not None:
        vals = np.asarray(spec.values)
        if vals.shape != shape:
            raise ConfigError("tabulated values must match the "
                              + ("scale length" if n == 1 else "lattice shape"))
        return vals
    _rng_required(rng)
    shifted = [x - x.flat[0] for x in grids]
    if fam == "polynomial":
        degrees = [d for d in product(range(4), repeat=n) if sum(d) <= 3]
        degree = degrees[int(rng.integers(len(degrees)))]
        c = np.abs(rng.standard_normal(tuple(d + 1 for d in degree)))
        if monotone:
            c[(0,) * n] += 0.1
        vals = _nested_polyval(shifted, c)
    elif fam == "exponential":
        amp = 0.1 + abs(rng.standard_normal())
        rates = [float(rng.uniform(0.0 if monotone else -0.5, 0.5)) for _ in axes]
        powers = reduce(np.add, (r * x for r, x in zip(rates, shifted)))
        vals = amp * np.exp(powers)
    else:
        vals = 2.0 * np.abs(rng.standard_normal(shape))
    top = float(np.abs(vals).max())
    if math.isfinite(top):
        return vals * (VALUE_CAP / top) if top > VALUE_CAP else vals
    if fam != "exponential":
        raise ConfigError(f"a sampled {fam} leaves the float range on this scale")
    # The cap in log space, where amp cancels: VALUE_CAP * exp(L - max L) for
    # L = log(amp) + powers, floored at the smallest normal double.
    return np.maximum(VALUE_CAP * np.exp(powers - powers.max()), np.finfo(float).tiny)


def instance_realize_1d(spec, scale, rng=None,
               monotone_positive: bool = False):
    """Evaluate (or sample) a one-dimensional coefficient on a scale;
    monotone_positive asks for a strictly positive, nondecreasing one, which
    sampled families are drawn to be and fixed parameters are checked for.
    Values past the float range come out inf or NaN, which GridFn1 rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _instance_values(spec, (scale.points,), rng, monotone_positive)
        if monotone_positive:
            if float(vals.min()) <= 0.0:
                raise ConfigError("this coefficient must be strictly positive on the scale")
            if len(vals) > 1 and float(np.diff(vals).min()) < 0.0:
                raise ConfigError("this coefficient must be nondecreasing on the scale")
    return GridFn1(scale, vals)


def instance_realize_2d(spec, domain, rng=None):
    """Evaluate (or sample) a two-dimensional coefficient on a product scale;
    it must be nonnegative on the lattice.  Values past the float range come
    out inf or NaN, which GridFn2 rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _instance_values(spec, (domain.scale1.points, domain.scale2.points), rng)
    if float(vals.min()) < 0.0:
        raise ConfigError("coefficient functions must be nonnegative on the lattice")
    return GridFn2(domain, vals)


def instance_realize_scalar(spec, rng=None) -> float:
    """A nonnegative constant from a descriptor (system-case c1, c2); family
    'any' always draws one."""
    if spec.family not in ("constant", "any"):
        raise ConfigError("this entry must be a constant")
    v = _drawn_constant(spec.value if spec.family == "constant" else None, rng)
    if v < 0:
        raise ConfigError("constants must be nonnegative")
    return v


def instance_realize_kernel(spec, domain, rng=None):
    """A four-argument kernel from a descriptor, as separable factors.

    Families: constant, and affine_product with parameters
    (a0, a1, b0, b1, c0, c1, c2) giving
    k = (a0 + a1*t1) * (b0 + b1*t2) * (c0 + c1*s1 + c2*s2); both are one
    product alpha(t1, t2) * beta(s1, s2), so no kernel table is built.
    Nonnegative parameters make the kernel nonnegative with nonnegative
    lattice differences only where the points are nonnegative: (0, 1, 1, 0,
    1, 0, 0) is k = t1, which is -1 at t1 = -1, and the hypothesis check
    reports it.  Sampled parameters are absolute normals evaluated
    in shifted coordinates, and alpha is scaled so that the kernel's
    largest value, max alpha * max beta, is at most VALUE_CAP.  Over the
    kernel budget it raises ConfigError before anything is drawn or
    allocated.
    """
    check_kernel_budget(domain, rank=1)
    fam = _pick_family(spec.family, ("constant", "affine_product"), rng)
    if fam == "constant":
        v = _drawn_constant(spec.value, rng)
        if v < 0:
            raise ConfigError("a constant kernel must be nonnegative")
        return KernelOracle.constant(domain, v)
    if fam != "affine_product":
        raise ConfigError(f"kernel family '{fam}' is not supported")
    params, x1, x2 = spec.params, domain.scale1.points, domain.scale2.points
    if params is None:
        _rng_required(rng)
        params = tuple(np.abs(rng.standard_normal(7)))
        x1, x2 = x1 - x1[0], x2 - x2[0]
    elif np.shape(params) != (7,):
        raise ConfigError("affine_product kernel needs 7 parameters")
    elif min(params) < 0:
        raise ConfigError("affine_product kernel parameters must be nonnegative")
    a0, a1, b0, b1, c0, c1, c2 = params
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = (a0 + a1 * x1)[:, None] * (b0 + b1 * x2)[None, :]
        beta = c0 + c1 * x1[:, None] + c2 * x2[None, :]
        if spec.params is None:
            top = float(alpha.max() * beta.max())
            if top > VALUE_CAP:
                alpha *= VALUE_CAP / top
    return KernelOracle.separable(domain, alpha[None], beta[None])



def run_verification_loop(spec):
    """The sequential driver that the stacked verify pass replaced: realize,
    witness, bound and re-check one instance at a time, in index order."""
    dom = TimeScale2D(spec.scale1.build(), spec.scale2.build())
    check_lattice_points(dom.shape[0] * dom.shape[1], "product lattice")
    rng = np.random.Generator(np.random.PCG64(spec.rng_seed))
    fns = dict(spec.functions)

    digests: list[dict] = []
    reports = []
    violations = 0
    worst = 0.0
    first_bad = 0
    second_bad = 0

    for idx in range(spec.count):
        try:
            report, residual, extra = _run_instance(spec, dom, fns, rng)
        except TscaleError as exc:
            raise type(exc)(f"instance {idx}: {exc}") from exc
        rel = _relative_violation(report)
        worst = max(worst, rel)
        if report.violations:
            violations += 1
        digest = {
            "instance": idx,
            "case": spec.case.value,
            "max_violation": report.max_violation,
            "min_slack": report.min_slack,
            "violation_count": len(report.violations),
            "relative_violation": rel,
            "hypothesis_residual": residual,
            "diagnostics": list(report.hypothesis_diagnostics),
        }
        if extra:
            digest.update(extra)
            if not extra["first_variable_dominates"]:
                first_bad += 1
            if not extra["second_variable_dominates"]:
                second_bad += 1
        digests.append(digest)
        reports.append(report)

    comparison = None
    if spec.case is BoundCase.KERNEL:
        comparison = {
            "first_variable": {"instances_with_violation": first_bad},
            "second_variable": {"instances_with_violation": second_bad},
        }
    return verify.VerifySummary(
        instances_run=spec.count,
        instances_with_violation=violations,
        worst_relative_violation=worst,
        digests=digests,
        variant_comparison=comparison,
        reports=reports,
    )


def _relative_violation(report) -> float:
    if report.witness is None:
        return 0.0
    excess = report.witness.values - report.bound.values
    rel = excess / (1.0 + np.abs(report.bound.values))
    return max(0.0, float(rel.max()))


def _named(name, realize, *args):
    try:
        return realize(*args)
    except ConfigError as exc:
        raise ConfigError(f"function '{name}': {exc}") from None


def realize_instance(spec, dom, fns, rng) -> tuple:
    """One instance's functions, realized one after another in the case's
    fixed order by the per-instance realizers, then its feedback factor."""
    case = spec.case
    any_fn = verify.FnSpec("any")
    if case is BoundCase.POINTWISE or case is BoundCase.KERNEL:
        fields = [_named(name, instance_realize_2d, fns.get(name, any_fn), dom, rng)
                  for name in ("p", "q")]
        realize_k = instance_realize_2d if case is BoundCase.POINTWISE \
            else instance_realize_kernel
        fields.append(_named("k", realize_k, fns.get("k", any_fn), dom, rng))
    elif case is BoundCase.SYSTEM:
        fields = [_named(name, instance_realize_scalar,
                         fns.get(name, verify.FnSpec("constant")), rng)
                  for name in ("c1", "c2")]
        fields += [_named(name, instance_realize_2d, fns.get(name, any_fn), dom, rng)
                   for name in ("h1", "h2", "h3", "h4")]
    else:
        fields = [_named(name, instance_realize_1d, fns.get(name, any_fn), axis, rng, True)
                  for name, axis in (("a", dom.scale1), ("b", dom.scale2))]
        fields.append(_named("c", instance_realize_2d, fns.get("c", any_fn), dom, rng))
    mode = spec.witness_mode
    return (*fields, float(rng.uniform(0.0, 1.0)) if mode is verify.WitnessMode.STRICT_SLACK
            else 1.0)


def _run_instance(spec, dom, fns, rng):
    """One instance: realize functions, build the witness, bound, re-check.

    Returns (report, hypothesis residual, kernel-only extras).
    """
    case = spec.case
    *coeffs, rho = realize_instance(spec, dom, fns, rng)
    if case is BoundCase.POINTWISE:
        p, q, k = coeffs
        u = witnesses.witness_pointwise(p, q, k, rho)
        report = bounds.compute_bound(bounds.PointwiseInputs(p, q, k, u))
        residual = verify._recheck_kernel(p, q, witnesses._unit_factors(k), u)
        return report, float(residual), None
    if case is BoundCase.KERNEL:
        p, q, kernel = coeffs
        u = witnesses.witness_kernel(p, q, kernel, rho)
        by_variant = bounds.bound_kernel_variants(bounds.KernelInputs(p, q, kernel, u))
        second = by_variant[bounds.ExponentVariant.SECOND_VARIABLE]
        extra = {
            "first_variable_dominates":
                not by_variant[bounds.ExponentVariant.FIRST_VARIABLE].violations,
            "second_variable_dominates": not second.violations,
            "second_variable_max_violation": second.max_violation,
        }
        residual = verify._recheck_kernel(p, q, kernel.factors, u)
        return by_variant[spec.exponent_variant], float(residual), extra
    if case is BoundCase.SYSTEM:
        c1, c2, *hs = coeffs
        u, v = witnesses.witness_system(c1, c2, *hs, feedback_scale=rho)
        combined = GridFn2(dom, u.values + v.values)
        report = bounds.compute_bound(bounds.SystemInputs(c1, c2, *hs, u=combined))
        return report, float(verify._recheck_system(c1, c2, hs, u, v)), None
    a, b, c = coeffs
    u, w = witnesses.witness_integrodynamic(a, b, c, rho)
    report = bounds.compute_bound(bounds.IntegrodynamicInputs(a, b, c, u))
    return report, float(verify._recheck_integrodynamic(a, b, c, u, w)), None
