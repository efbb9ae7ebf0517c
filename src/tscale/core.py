"""Finite time scales and first-order delta calculus on them.

A scale here is a finite, strictly increasing set of real points.  Isolated
points carry exact calculus (the forward-difference quotient *is* the
derivative); points tagged dense stand in for samples of a continuum and
everything computed across them is a first-order approximation.  A
constructor checks its numbers, and its point count, before it allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ScaleMismatchError

# Points closer than this (relative) collapse when scales are merged.
MERGE_TOL = 1e-12
# Most points one scale axis, or one product lattice, may have.
MAX_LATTICE_POINTS = 10 ** 7
# Terms per chunk of neumaier_cumsum: its scratch stays in cache.
SUM_CHUNK = 8192


def check_lattice_points(count: float, what: str) -> None:
    """Raise ConfigError when count, a point count (or an upper bound on one)
    worked out before allocating, exceeds MAX_LATTICE_POINTS."""
    if not count <= MAX_LATTICE_POINTS:
        raise ConfigError(
            f"the {what} needs about {count:.6g} points, over the limit "
            f"MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")


def _check_span(lo: float, hi: float) -> None:
    """DomainError unless the span from lo to hi lies in the float range."""
    if not math.isfinite(float(hi) - float(lo)):
        raise DomainError(f"a scale from {lo:g} to {hi:g} leaves the float range")


def _finite(what: str, **numbers) -> list[float]:
    """numbers as floats, or DomainError naming the first that is not finite,
    an int past the float range among them."""
    for name, x in numbers.items():
        try:
            finite = math.isfinite(x)
        except OverflowError:
            raise DomainError(f"{what} needs a finite {name}, got an int of "
                              f"{x.bit_length()} bits") from None
        if not finite:
            raise DomainError(f"{what} needs a finite {name}, got {x}")
    return [float(x) for x in numbers.values()]


def _two_sum_error(a: np.ndarray, b: np.ndarray, s: np.ndarray,
                   out: np.ndarray | None = None, bb: np.ndarray | None = None) -> np.ndarray:
    """Exact rounding error of s = fl(a + b), elementwise, by Knuth's
    branch-free TwoSum: bb = s - a, then (a - (s - bb)) + (b - bb).  out and
    bb, if given, are scratch of the result's shape that receive the error
    and bb, so nothing is allocated; neither may be a, b or s."""
    bb = np.subtract(s, a, out=bb)
    err = np.subtract(s, bb, out=out)
    np.subtract(a, err, out=err)
    np.subtract(b, bb, out=bb)
    return np.add(err, bb, out=err)


def _neumaier_cumsum(vals: np.ndarray, out: np.ndarray, scratch) -> np.ndarray:
    """neumaier_cumsum of vals along its last axis, written to out, which may
    be vals.  scratch is four arrays of vals' shape, so nothing is
    allocated; the second holds each prefix's predecessor, and its first
    column, the one entry read before it is written, must be 0."""
    total, before, err, bb = scratch
    np.add.accumulate(vals, -1, out=total)
    before[..., 1:] = total[..., :-1]
    _two_sum_error(before, vals, total, err, bb)
    np.add.accumulate(err, -1, out=bb)
    return np.add(total, bb, out=out)


def neumaier_cumsum(values: Sequence[float] | np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Running sums with a Neumaier compensation term folded into each entry.

    Returns out[k] = sum(values[: k + 1]) computed so that the error of each
    prefix stays at a few ulp even when terms cancel or differ wildly in
    magnitude.  An array of more axes is summed down its first axis, each
    column on its own.  Prefixes and their rounding errors both accumulate
    strictly in order, so every entry is bit for bit that of the sequential
    Neumaier loop.

    The sums are written to out, a fresh array by default; out may be values
    itself, element for element, but may not overlap it otherwise.  The
    columns run down in chunks of SUM_CHUNK terms, each continuing from the
    last prefix and compensation of the chunk before, so the scratch is
    three chunk-sized buffers.
    """
    vals = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty(vals.shape)
    n = len(vals)
    # [0] of the prefixes and of the compensations holds the last one of the
    # chunk before; -0.0 is the identity of IEEE addition, so the first chunk
    # starts from nothing
    total, comp, bb = np.empty((3, min(n, SUM_CHUNK) + 1, *vals.shape[1:]))
    total[0] = comp[0] = -0.0
    for lo in range(0, n, SUM_CHUNK):
        hi = min(lo + SUM_CHUNK, n)
        x, t, c = vals[lo:hi], total[:hi - lo + 1], comp[:hi - lo + 1]
        t[1:] = x
        np.add.accumulate(t, 0, out=t)
        _two_sum_error(t[:-1], x, t[1:], c[1:], bb[:hi - lo])
        np.add.accumulate(c, 0, out=c)
        np.add(t[1:], c[1:], out=out[lo:hi])
        total[0], comp[0] = t[-1], c[-1]
    return out


def exact_sum(values: Sequence[float] | np.ndarray) -> float:
    """The sum of values rounded once to the nearest double, so math.fsum's
    bits wherever fsum returns a finite value, in O(n) numpy work.

    Each value's bits give its sign, its biased exponent and its integer
    significand with the hidden bit.  The two limbs of 27 and 26 bits of
    the significands are summed per sign and exponent with np.add.at, exact
    in int64 for up to 2**36 values.  The bins are combined in Python ints,
    one step per occupied bin, and one int true division rounds the exact
    total.  Empty, all-zero and non-finite input goes to math.fsum.  A sum
    past the float range raises DomainError, also where fsum raises or
    returns an infinity or NaN; a finite sum is returned even where fsum's
    partial sums overflow.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if not (vals.size and np.all(np.isfinite(vals)) and vals.any()):
        try:
            total = math.fsum(vals)
        except (OverflowError, ValueError):
            total = math.inf
        if not math.isfinite(total):
            raise DomainError("sum outside the float range")
        return total
    bits = vals.view(np.int64)
    bins = bits >> 52
    bins &= 0xFFF                       # the sign bit, then the biased exponent
    ints = bits & (2 ** 52 - 1)
    ints |= 2 ** 52                     # the hidden bit; taken back below where it is 0
    limbs = np.zeros((2, 4096), np.int64)
    np.add.at(limbs[0], bins, ints >> 26)
    ints &= 2 ** 26 - 1
    np.add.at(limbs[1], bins, ints)
    total = 0
    for k in np.flatnonzero(limbs[0]).tolist():
        part = (int(limbs[0, k]) << 26) + int(limbs[1, k])
        if not k & 0x7FF:               # zeros and subnormals: field 0 scales as 1 does
            part -= int(np.count_nonzero(bins == k)) << 52
        part <<= max(k & 0x7FF, 1)
        total += -part if k >> 11 else part
    try:
        return total / (1 << 1075)
    except OverflowError:
        raise DomainError("sum outside the float range") from None


def _plain_floats() -> np.errstate:
    """numpy's floating-point state under which plain float64 arithmetic has
    the bits of the same operations carried as mantissas and binary exponents.

    Overflow, underflow, invalid operations and division by zero raise
    FloatingPointError, on which the caller takes its mantissa-and-exponent
    path.  An operation that sets none of these IEEE flags gave a normal
    double, an exact zero, an exact subnormal, or an infinity or NaN passed
    on exactly from an operand, and in each case the mantissa-and-exponent
    path rounds the same exact value once, at the same step.  numpy reads
    the flags after its ufuncs and scalar operations only, so every
    operation inside the state must be one: Python float arithmetic sets no
    flag that numpy checks.
    """
    return np.errstate(over="raise", under="raise", invalid="raise", divide="raise")


def _trusted(cls, **fields):
    """An instance of cls holding fields, built without running its checks:
    only for fields that are known to pass them."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


@dataclass(frozen=True, eq=False)
class TimeScale:
    """Strictly increasing finite point set with per-point density tags.

    Parameters
    ----------
    points : array of float
        The scale's points, strictly increasing, all finite, with a span
        (so every step) within the float range.
    dense : array of bool, optional
        True where the point samples a dense stretch (approximate calculus),
        False for genuinely isolated points.  Defaults to all False.
    """

    points: np.ndarray
    dense: np.ndarray = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) == 0:
            raise DomainError("a time scale needs a one dimensional, nonempty point set")
        if not np.all(np.isfinite(pts)):
            raise DomainError("time scale points must be finite")
        if not np.all(pts[1:] > pts[:-1]):
            raise DomainError("time scale points must be strictly increasing")
        _check_span(pts[0], pts[-1])
        tags = self.dense
        if tags is None:
            tags = np.zeros(len(pts), dtype=bool)
        else:
            tags = np.asarray(tags, dtype=bool)
            if tags.shape != pts.shape:
                raise DomainError("density tags must align with points")
        pts.setflags(write=False)
        tags.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dense", tags)

    def __len__(self) -> int:
        return len(self.points)

    def _check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < len(self.points):
            raise DomainError(f"index {i} outside scale of {len(self.points)} points")
        return i

    def sigma(self, i: int) -> int:
        """Index of the forward jump; the maximum maps to itself."""
        i = self._check_index(i)
        return min(i + 1, len(self.points) - 1)

    def rho(self, i: int) -> int:
        """Index of the backward jump; the minimum maps to itself."""
        i = self._check_index(i)
        return max(i - 1, 0)

    def mu(self, i: int) -> float:
        """Graininess at index i, zero at the maximum."""
        i = self._check_index(i)
        if i == len(self.points) - 1:
            return 0.0
        return float(self.points[i + 1] - self.points[i])

    @property
    def graininess(self) -> np.ndarray:
        """All graininess values at once; the last entry is 0."""
        pts = self.points
        out = np.empty(len(pts))
        np.subtract(pts[1:], pts[:-1], out=out[:-1])
        out[-1] = 0.0
        return out

    def kappa(self) -> "TimeScale":
        """The scale with its maximum removed."""
        if len(self.points) < 2:
            raise DomainError("kappa needs at least two points")
        return self._window(slice(None, -1))

    def tail(self, a: int) -> "TimeScale":
        """Sub-scale from index a to the end."""
        a = self._check_index(a)
        return self._window(slice(a, None))

    def _window(self, part: slice) -> "TimeScale":
        """A nonempty run of this scale's points, as read-only views with
        their tags; it is finite and increasing, so it is not checked again."""
        return _trusted(TimeScale, points=self.points[part], dense=self.dense[part])

    def locate(self, value: float) -> int:
        """Index of the point equal to value, up to 1e-9 relative slack."""
        pts = self.points
        i = int(np.argmin(np.abs(pts - value)))
        if not (math.isfinite(value) and abs(pts[i] - value) <= 1e-9 * (1.0 + abs(value))):
            raise DomainError(f"{value} is not a point of the scale")
        return i

    def same_points(self, other: "TimeScale") -> bool:
        return self is other or (len(self) == len(other)
                                 and bool(np.array_equal(self.points, other.points)))


def integer_segment(start: int, end: int) -> TimeScale:
    """Consecutive integers start, start+1, ..., end."""
    start, end = _finite("integer segment", start=start, end=end)
    if not (start.is_integer() and end.is_integer()):
        raise DomainError("integer segment bounds must be integers")
    if end <= start:
        raise DomainError("integer segment needs end > start")
    check_lattice_points(end - start + 1, "integer segment")
    return TimeScale(np.arange(int(start), int(end) + 1, dtype=float))


def h_grid(start: float, end: float, h: float) -> TimeScale:
    """Uniform grid of step h from start up to (and including) end."""
    start, end, h = _finite("h grid", start=start, end=end, h=h)
    if h <= 0:
        raise DomainError("step h must be positive")
    if end <= start:
        raise DomainError("h grid needs end > start")
    steps = (end - start) / h + 1e-9    # inf for a span past the float range
    check_lattice_points(steps + 2, "h grid")   # start, the whole steps and end
    n = int(steps)
    with np.errstate(over="ignore"):    # a last point past the float range: inf
        pts = start + h * np.arange(n + 1)
    # snap the last point so the requested endpoint is hit exactly: a last
    # full step that ends within a millionth of h of end is stretched or
    # shrunk onto it, which leaves no sliver step and no step past end
    if n and abs(pts[-1] - end) <= max(1e-9 * (1.0 + abs(end)), 1e-6 * h):
        pts[-1] = end
    else:
        pts = np.append(pts, end)
    return TimeScale(pts)


def q_grid(q: float, n: int) -> TimeScale:
    """Geometric scale 1, q, q^2, ..., q^n."""
    q, n = _finite("q grid", q=q, N=n)
    if q <= 1:
        raise DomainError("q must exceed 1")
    if n < 1 or not n.is_integer():
        raise DomainError("q grid needs N a whole number at least 1")
    check_lattice_points(n + 1, "q grid")
    with np.errstate(over="ignore"):
        _check_span(1.0, np.float64(q) ** n)
    return TimeScale(q ** np.arange(n + 1))


def explicit_scale(points: Sequence[float], dense: Sequence[bool] | None = None) -> TimeScale:
    """Scale from an explicit point list."""
    try:
        pts = np.asarray(points, dtype=float)
    except OverflowError:   # an int past the float range
        raise DomainError("time scale points must be finite") from None
    return TimeScale(pts, None if dense is None else np.asarray(dense, dtype=bool))


def dense_mesh(start: float, end: float, h: float) -> TimeScale:
    """Uniform mesh tagged as a sampled dense interval."""
    points = h_grid(start, end, h).points
    return _trusted(TimeScale, points=points, dense=np.broadcast_to(True, points.shape))


def union_scales(a: TimeScale, b: TimeScale) -> TimeScale:
    """Merged scale; near-coincident points collapse, dense tags survive the merge.

    The points of both scales are sorted stably, a's before b's where equal.
    A point within MERGE_TOL * (1 + |point|) of the last point kept joins it
    and ORs its tag into it; any other point is kept.  A point farther than
    that from its predecessor is kept at once, so only a chain of two or
    more points, each near its predecessor, is walked point by point.  The
    span of both and their points together are checked before the merge.
    """
    _check_span(min(a.points[0], b.points[0]), max(a.points[-1], b.points[-1]))
    check_lattice_points(len(a) + len(b), "union")
    merged = np.concatenate((a.points, b.points))
    order = np.argsort(merged, kind="stable")
    pts = merged[order]
    tags = np.concatenate((a.dense, b.dense))[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = pts[1:] - pts[:-1] > MERGE_TOL * (1.0 + np.abs(pts[1:]))
    walked = 0
    for i in np.flatnonzero(~keep[1:-1] & ~keep[2:]).tolist():
        if i < walked:                  # points i + 1 and i + 2 lie on a walked chain
            continue
        last, i = pts[i], i + 2         # point i + 1 joins point i, the chain's head
        while i < len(pts) and not keep[i]:
            if pts[i] - last > MERGE_TOL * (1.0 + abs(pts[i])):
                keep[i], last = True, pts[i]
            i += 1
        walked = i
    starts = np.flatnonzero(keep)
    return TimeScale(pts[starts], np.logical_or.reduceat(tags, starts))


@dataclass(frozen=True, eq=False)
class GridFn1:
    """Real values attached point by point to a scale.

    values of shape (count, n) hold a stack of instances on the same scale,
    which only the two-variable bound and witness code take.
    """

    scale: TimeScale
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[-1:] != self.scale.points.shape:
            raise ScaleMismatchError("values must align with the scale's points")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, scale: TimeScale, fn: Callable[[float], float]) -> "GridFn1":
        return cls(scale, np.array([float(fn(t)) for t in scale.points]))

    def __len__(self) -> int:
        return len(self.scale)


def _computed(scale: TimeScale, vals: np.ndarray, what: str) -> GridFn1:
    """GridFn1(scale, vals) for a fresh 1-D result of this package, whose
    shape is right by construction: finiteness is checked once, and a value
    that is not finite raises DomainError naming what overflowed."""
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"{what} overflowed the representable range")
    vals.setflags(write=False)
    return _trusted(GridFn1, scale=scale, values=vals)


def _require_one_scale(f: GridFn1, *others: GridFn1) -> None:
    """Raise unless f and others hold one instance each (no stack), on f's scale."""
    if any(g.values.ndim != 1 for g in (f, *others)):
        raise ScaleMismatchError("this calculus takes one instance, not a stack")
    if not all(f.scale.same_points(g.scale) for g in others):
        raise ScaleMismatchError("grid functions live on different scales")


def delta_derivative(f: GridFn1) -> GridFn1:
    """Forward difference quotient (f(sigma(t)) - f(t)) / mu(t).

    Defined away from the maximum, so the result lives on the kappa
    sub-scale.  Exact at isolated points, first order at dense ones.
    """
    _require_one_scale(f)
    scale = f.scale
    if len(scale) < 2:
        raise DomainError("delta derivative needs at least two points")
    pts, vals = scale.points, f.values
    with np.errstate(over="ignore"):
        out = np.subtract(vals[1:], vals[:-1])
        out /= np.subtract(pts[1:], pts[:-1])
    return _computed(scale.kappa(), out, "delta derivative")


def cauchy_integral(f: GridFn1, a: int, b: int) -> float:
    """Delta integral of f from index a to index b, a <= b.

    Left-endpoint sum of f times graininess over [a, b), rounded once by
    exact_sum; exact when every point in the window is isolated.
    """
    _require_one_scale(f)
    scale = f.scale
    a = scale._check_index(a)
    b = scale._check_index(b)
    if a > b:
        raise DomainError(f"integral limits reversed: index {a} > {b}")
    pts = scale.points
    with np.errstate(over="ignore"):    # a term past the float range: DomainError
        return exact_sum(f.values[a:b] * (pts[a + 1:b + 1] - pts[a:b]))


def antiderivative(f: GridFn1, t0: int, x0: float = 0.0) -> GridFn1:
    """The function F with F(t0) = x0 and delta derivative f.

    Built by compensated cumulative summation forward and backward from t0,
    so delta_derivative(antiderivative(f, t0)) reproduces f on the kappa
    scale up to rounding.
    """
    _require_one_scale(f)
    scale = f.scale
    t0 = scale._check_index(t0)
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    pts = scale.points
    out = np.empty(len(scale))
    # the increments f*mu lie where their sums go: right of t0 one place on,
    # left of t0 in place, summed from t0 back through a reversed view
    right, left = out[t0 + 1:], out[:t0]
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(pts[t0 + 1:], pts[t0:-1], out=right)
        np.subtract(pts[1:t0 + 1], pts[:t0], out=left)
        right *= f.values[t0:-1]
        left *= f.values[:t0]
        if t0 < len(scale) - 1:
            neumaier_cumsum(right, out=right)
            right += x0
        if t0 > 0:
            neumaier_cumsum(left[::-1], out=left[::-1])
            np.subtract(x0, left, out=left)
    out[t0] = x0
    return _computed(scale, out, "antiderivative")
