"""Product scales, partial delta calculus, and Darboux delta sums.

Everything two dimensional lives on the tensor product of two scales.
Partial deltas are forward difference quotients along one axis; double
integrals are left-endpoint sums weighted by both graininesses.  A
four-argument kernel, held by KernelOracle, is a dense (n1, n2, n1, n2) table
or a sum of r separable products alpha(t1, t2) * beta(s1, s2), within the
byte budget MAX_KERNEL_TABLE_BYTES; separable factors may hold a stack of
instances.  MAX_LATTICE_POINTS caps an axis or a lattice before its points
are allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridFn1, TimeScale, exact_sum, neumaier_cumsum
from .errors import ConfigError, DomainError, ScaleMismatchError


@dataclass(frozen=True, eq=False)
class TimeScale2D:
    """Tensor product of two scales; axis 1 is rows, axis 2 is columns."""

    scale1: TimeScale
    scale2: TimeScale

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.scale1), len(self.scale2))

    @property
    def mu1(self) -> np.ndarray:
        return self.scale1.graininess

    @property
    def mu2(self) -> np.ndarray:
        return self.scale2.graininess

    def kappa(self) -> "TimeScale2D":
        """Both axes with their maxima removed."""
        return TimeScale2D(self.scale1.kappa(), self.scale2.kappa())

    def same_points(self, other: "TimeScale2D") -> bool:
        return (self.scale1.same_points(other.scale1)
                and self.scale2.same_points(other.scale2))


@dataclass(frozen=True, eq=False)
class GridFn2:
    """Real values on every lattice point of a product scale.

    values of shape (count, n1, n2) hold a stack of instances on the same
    lattice, which the bound and witness code take (see _common_stack);
    double_integral and darboux_sums take one instance.
    """

    domain: TimeScale2D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (2, 3) or vals.shape[-2:] != self.domain.shape:
            raise ScaleMismatchError(
                f"values of shape {vals.shape} do not fit domain {self.domain.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, domain: TimeScale2D,
                      fn: Callable[[float, float], float]) -> "GridFn2":
        t1 = domain.scale1.points
        t2 = domain.scale2.points
        vals = np.array([[float(fn(a, b)) for b in t2] for a in t1])
        return cls(domain, vals)

    @classmethod
    def constant(cls, domain: TimeScale2D, value: float) -> "GridFn2":
        return cls(domain, np.full(domain.shape, float(value)))

    def instances(self) -> list["GridFn2"]:
        """A stack's instances, views of the values it checked; [self] for one."""
        if self.values.ndim == 2:
            return [self]
        return [_view(self, vals) for vals in self.values]


def _cell_weights(domain: TimeScale2D) -> np.ndarray:
    """mu1[a] * mu2[b] over the kappa x kappa cells, as one matrix."""
    return np.outer(np.diff(domain.scale1.points), np.diff(domain.scale2.points))


def _common_stack(*fields, witness: GridFn2 | None = None) -> tuple[int, ...]:
    """The stack, () or (count,), of a bound case's fields, once its grids and
    kernel share a product scale: a GridFn2 or GridFn1 holds it in front of
    its lattice axes, a KernelOracle in its stack, and a number per instance
    (c1, c2, a feedback factor) is a scalar, which fits any stack, or of shape
    (count,).  A mismatch raises ScaleMismatchError; a dense kernel beside a
    stack raises DomainError."""
    domains = [x.domain for x in fields if isinstance(x, (GridFn2, KernelOracle))]
    if not all(domains[0].same_points(d) for d in domains[1:]):
        raise ScaleMismatchError("grid functions live on different product scales")
    stack = None
    for x in sorted(fields, key=lambda x: not isinstance(x, (GridFn1, GridFn2, KernelOracle))):
        if isinstance(x, GridFn2):
            own, what = x.values.shape[:-2], "grid functions hold different stacks"
        elif isinstance(x, GridFn1):
            own, what = x.values.shape[:-1], "axis coefficients hold a different stack"
        elif isinstance(x, KernelOracle):
            own, what = x.stack, "the kernel holds a different stack"
        else:
            own, what = np.shape(x), "the numbers per instance hold a different stack"
            if not own:
                continue
        if stack is None:
            stack = own
        elif own != stack:
            if isinstance(x, KernelOracle) and x.factors is None:
                raise DomainError("a dense kernel takes one instance, not a stack")
            raise ScaleMismatchError(f"{what} of instances")
    stack = stack or ()
    if witness is not None and witness.values.shape[:-2] != stack:
        raise ScaleMismatchError("the witness holds a different stack of instances")
    return stack


def _view(f, values: np.ndarray):
    """A GridFn1 or GridFn2 like f on values, a view of f's checked values,
    built without checking them again."""
    view = object.__new__(type(f))
    view.__dict__.update(vars(f), values=values)
    return view


def partial_delta(f: GridFn2, axis: int) -> GridFn2:
    """Forward difference quotient along one axis (1 or 2).

    The result loses the last row (axis 1) or column (axis 2) and lives on
    the corresponding kappa restriction of the domain.
    """
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis}")
    scales = [f.domain.scale1, f.domain.scale2]
    if len(scales[axis - 1]) < 2:
        raise DomainError(f"partial delta along axis {axis} needs two "
                          f"{('rows', 'columns')[axis - 1]}")
    mu = np.diff(scales[axis - 1].points)
    out = np.diff(f.values, axis=axis - 3) / (mu[:, None] if axis == 1 else mu)
    scales[axis - 1] = scales[axis - 1].kappa()
    return GridFn2(TimeScale2D(*scales), out)


def mixed_partial(f: GridFn2) -> GridFn2:
    """Second mixed delta, axis 1 then axis 2.

    The two composition orders agree up to rounding, so this canonical
    order stands in for both.
    """
    return partial_delta(partial_delta(f, 1), 2)


def double_integral(f: GridFn2, rect: tuple[int, int, int, int]) -> float:
    """Double delta integral over the index rectangle [a1, b1) x [a2, b2).

    Left-endpoint sum of f * mu1 * mu2, rounded once by exact_sum.
    Indices address lattice points; b1 and b2 are exclusive upper indices,
    at most the last index of their axis.
    """
    if _common_stack(f):
        raise ScaleMismatchError("double_integral takes one instance, not a stack")
    a1, b1, a2, b2 = rect
    n1, n2 = f.domain.shape
    if not (0 <= a1 <= b1 <= n1 - 1 and 0 <= a2 <= b2 <= n2 - 1):
        raise DomainError(f"rectangle {rect} does not fit the {n1}x{n2} lattice")
    mu1 = np.diff(f.domain.scale1.points)
    mu2 = np.diff(f.domain.scale2.points)
    with np.errstate(over="ignore"):    # a term past the float range: DomainError
        return exact_sum(f.values[a1:b1, a2:b2] * np.outer(mu1[a1:b1], mu2[a2:b2]))


def exclusive_sums(cells: np.ndarray, axis: int) -> np.ndarray:
    """out[k] along axis = the compensated sum of cells[:k] there; out[0] = 0.
    Every other axis is summed on its own, so a lattice axis counted from the
    end (-2 or -1) leaves a leading stack of instances apart."""
    c = np.swapaxes(cells, 0, axis)
    out = np.zeros_like(c)
    out[1:] = neumaier_cumsum(c[:-1])
    return np.swapaxes(out, 0, axis)


def running_integral(f: GridFn2, axis: int) -> GridFn2:
    """Cumulative delta integral from index 0 along one axis.

    Entry [i, j] holds the integral over [0, i) (axis 1) or [0, j)
    (axis 2), so the first row or column is zero.  Same domain as f.
    """
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis}")
    d = f.domain
    mu = d.mu1[:, None] if axis == 1 else d.mu2
    return GridFn2(d, exclusive_sums(f.values * mu, axis - 3))


def _double_sums(values: np.ndarray, mu1: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """The double integral over [0, i) x [0, j) at every [..., i, j] of a stack
    of lattice values, mu1 and mu2 holding the step after each row and column:
    compensated sums of values * mu2 along rows, then of those times mu1."""
    return exclusive_sums(exclusive_sums(values * mu2, -1) * mu1[:, None], -2)


def running_double_integral(f: GridFn2) -> GridFn2:
    """Cumulative double integral over [0, i) x [0, j) at every lattice point."""
    return GridFn2(f.domain, _double_sums(f.values, f.domain.mu1, f.domain.mu2))


@dataclass(frozen=True)
class RectPartition:
    """Index cuts along each axis; strictly increasing, spanning the lattice."""

    cuts1: tuple[int, ...]
    cuts2: tuple[int, ...]

    def __post_init__(self):
        for cuts in (self.cuts1, self.cuts2):
            if len(cuts) < 2 or any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise DomainError("partition cuts must be strictly increasing, two or more")

    @classmethod
    def finest(cls, domain: TimeScale2D) -> "RectPartition":
        n1, n2 = domain.shape
        return cls(tuple(range(n1)), tuple(range(n2)))

    def refine(self, other: "RectPartition") -> "RectPartition":
        """Common refinement: the union of the cut sets on each axis."""
        return RectPartition(tuple(sorted(set(self.cuts1) | set(other.cuts1))),
                             tuple(sorted(set(self.cuts2) | set(other.cuts2))))


# Largest kernel a KernelOracle may hold or build, in bytes.  A dense table
# holds (n1 * n2)**2 float64 entries, so the limit allows about 100 points
# per axis.  A factored kernel of several terms holds its factors, and its
# hypothesis sweep up to three row slabs of n2 * n1 * n2 entries besides
# smaller per-row arrays; counted as four slabs, that allows about 290 points
# per axis.  A one-term kernel builds no slab: its 16 bytes of factors per
# lattice point leave MAX_LATTICE_POINTS the binding limit.
MAX_KERNEL_TABLE_BYTES = 8 * 10 ** 8
# Most points one scale axis, or one product lattice, may have.
MAX_LATTICE_POINTS = 10 ** 7
# Most lattice points, summed over its instances, that one stacked verify
# pass holds.  A pass keeps a few dozen arrays of that many doubles, so the
# limit keeps its working set near 20 MB; a larger batch runs as consecutive
# stacks, and an instance larger than the limit runs alone.
MAX_STACK_POINTS = 2 ** 16


def check_lattice_points(count: float, what: str) -> None:
    """Raise ConfigError when count, a point count (or an upper bound on one)
    worked out before allocating, exceeds MAX_LATTICE_POINTS."""
    if not count <= MAX_LATTICE_POINTS:
        raise ConfigError(
            f"the {what} needs about {count:.6g} points, over the limit "
            f"MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")


def check_kernel_budget(domain: TimeScale2D, rank: int | None = None) -> None:
    """Raise ConfigError before allocating a kernel over MAX_KERNEL_TABLE_BYTES:
    the dense table, or for a factored kernel of the given rank its factors,
    plus four row slabs when it has several terms, per instance of a stack."""
    n1, n2 = domain.shape
    if rank is None:
        what, nbytes = "table", 8 * (n1 * n2) ** 2
    elif rank == 1:
        what, nbytes = "factors", 16 * n1 * n2
    else:
        what, nbytes = "factors and row slabs", 8 * (2 * rank * n1 * n2 + 4 * n2 * n1 * n2)
    if nbytes > MAX_KERNEL_TABLE_BYTES:
        raise ConfigError(
            f"a kernel on the {n1}x{n2} lattice needs {nbytes} bytes of {what}, "
            f"over the limit MAX_KERNEL_TABLE_BYTES = {MAX_KERNEL_TABLE_BYTES}")


def _outer_sum(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """sum over r of the outer product alpha[r] x beta[r], added in order of r,
    so any slice of the result has the bits of the same slice of the whole."""
    out = np.multiply.outer(alpha[0], beta[0])
    for a, b in zip(alpha[1:], beta[1:]):
        out += np.multiply.outer(a, b)
    return out


class KernelOracle:
    """Four-argument kernel k(t1, t2, s1, s2) over lattice indices.

    A kernel is either a dense (n1, n2, n1, n2) table or separable factors
    alpha and beta of shape (r, n1, n2) with k(t, s) = sum over r of
    alpha[r, t] * beta[r, s]; factors holds (alpha, beta) or None.  Factors
    of shape (r, count, n1, n2) hold a stack of count instances, one kernel
    each; stack is () or (count,), and instances() splits a stack.  The
    first two indices are sigma-capable: they may take any index of the full
    scales, so callers working on kappa x kappa can still ask for
    sigma-shifted first arguments.  slab(i) reads one row of the kernel, so
    callers never need the whole table; table() expands a factored kernel on
    demand.  eval, slab and table read one instance.  Every constructor
    checks the byte budget before it allocates.
    """

    def __init__(self, domain: TimeScale2D, table: np.ndarray | None = None,
                 factors: tuple[np.ndarray, np.ndarray] | None = None):
        self.domain = domain
        self._table = table
        self.factors = factors

    @classmethod
    def from_point_function(cls, domain: TimeScale2D,
                            fn: Callable[..., np.ndarray | float]) -> "KernelOracle":
        """Tabulate k from fn of the four point values, called once on point
        arrays that broadcast to (n1, n2, n1, n2): fn must accept numpy arrays."""
        check_kernel_budget(domain)
        p1 = domain.scale1.points
        p2 = domain.scale2.points
        table = np.empty(domain.shape * 2)
        table[...] = fn(p1[:, None, None, None], p2[None, :, None, None],
                        p1[None, None, :, None], p2[None, None, None, :])
        return cls(domain, table)

    @classmethod
    def from_table(cls, domain: TimeScale2D, table: np.ndarray) -> "KernelOracle":
        """Kernel backed by a precomputed (n1, n2, n1, n2) value table."""
        check_kernel_budget(domain)
        table = np.asarray(table, dtype=float)
        if table.shape != domain.shape * 2:
            raise DomainError(f"kernel table shape {table.shape} does not fit the lattice")
        if not np.all(np.isfinite(table)):
            raise DomainError("kernel table values must be finite")
        return cls(domain, table)

    @classmethod
    def separable(cls, domain: TimeScale2D, alpha: np.ndarray,
                  beta: np.ndarray) -> "KernelOracle":
        """Kernel sum over r of alpha[r](t1, t2) * beta[r](s1, s2), from
        factors of shape (r, n1, n2), or (r, count, n1, n2) for a stack."""
        alpha, beta = (np.asarray(x, dtype=float) for x in (alpha, beta))
        if alpha.ndim not in (3, 4) or alpha.shape != beta.shape \
                or alpha.shape[-2:] != domain.shape or not alpha.size:
            raise DomainError(f"kernel factors of shapes {alpha.shape} and {beta.shape} "
                              f"do not fit the lattice")
        check_kernel_budget(domain, len(alpha))
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise DomainError("kernel factors must be finite")
        return cls(domain, factors=(alpha, beta))

    @classmethod
    def constant(cls, domain: TimeScale2D, value: float) -> "KernelOracle":
        check_kernel_budget(domain, 1)
        return cls.separable(domain, np.full((1, *domain.shape), float(value)),
                             np.ones((1, *domain.shape)))

    @property
    def stack(self) -> tuple[int, ...]:
        """() for one kernel, (count,) for a stack of count kernels."""
        return () if self.factors is None else self.factors[0].shape[1:-2]

    def instances(self) -> list["KernelOracle"]:
        """A stack's kernels, on views of its factors; [self] for one kernel."""
        if not self.stack:
            return [self]
        return [KernelOracle(self.domain, factors=(a, b))
                for a, b in zip(*(np.swapaxes(x, 0, 1) for x in self.factors))]

    def _one(self) -> None:
        if self.stack:
            raise DomainError("a stack of kernels is read one instance at a time")

    def eval(self, i1: int, i2: int, j1: int, j2: int) -> float:
        self._one()
        if self.factors is None:
            return float(self._table[i1, i2, j1, j2])
        alpha, beta = self.factors
        return float(_outer_sum(alpha[:, i1, i2], beta[:, j1, j2]))

    def slab(self, i: int, m1: int | None = None, m2: int | None = None) -> np.ndarray:
        """k(i, j, a, b) for every j, a < m1 and b < m2 (default: all), as an
        (n2, m1, m2) array; a factored kernel expands it."""
        self._one()
        if self.factors is None:
            return self._table[i, :, :m1, :m2]
        alpha, beta = self.factors
        return _outer_sum(alpha[:, i], beta[:, :m1, :m2])

    def table(self) -> np.ndarray:
        """The dense (n1, n2, n1, n2) value table; a factored kernel expands
        it on each call, within MAX_KERNEL_TABLE_BYTES."""
        self._one()
        if self.factors is None:
            return self._table
        check_kernel_budget(self.domain)
        return _outer_sum(*self.factors)


def darboux_sums(f: GridFn2, part: RectPartition) -> tuple[float, float]:
    """Upper and lower Darboux delta sums over a rectangle partition.

    Each cell takes its sup / inf over the lattice points it half-openly
    contains and is weighted by its coordinate side lengths.  The finest
    partition collapses both sums onto the double integral.
    """
    if _common_stack(f):
        raise ScaleMismatchError("darboux_sums takes one instance, not a stack")
    n1, n2 = f.domain.shape
    if part.cuts1[0] != 0 or part.cuts1[-1] != n1 - 1 \
            or part.cuts2[0] != 0 or part.cuts2[-1] != n2 - 1:
        raise DomainError("partition cuts must span index 0 through the last index")
    p1 = f.domain.scale1.points
    p2 = f.domain.scale2.points
    upper: list[float] = []
    lower: list[float] = []
    for a1, b1 in zip(part.cuts1, part.cuts1[1:]):
        w1 = p1[b1] - p1[a1]
        for a2, b2 in zip(part.cuts2, part.cuts2[1:]):
            w = w1 * (p2[b2] - p2[a2])
            block = f.values[a1:b1, a2:b2]
            upper.append(block.max() * w)
            lower.append(block.min() * w)
    return math.fsum(upper), math.fsum(lower)
