"""Declarative descriptors for scales and coefficient functions.

The CLI and the verification driver both build their objects from these,
so a JSON config and a command-line flag produce identical scales and
functions.  Sampled families draw from a caller-supplied random stream and
are nonnegative by construction (absolute values of sampled coefficients,
evaluated in coordinates shifted to start at zero); fixed-parameter
families are validated against the sign requirements of their context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import (GridFn1, TimeScale, dense_mesh, explicit_scale, h_grid,
                   integer_segment, q_grid, union_scales)
from .errors import ConfigError
from .grid2d import (GridFn2, KernelOracle, TimeScale2D, check_kernel_budget,
                     check_lattice_points)

# Sampled coefficient functions never exceed this magnitude.
VALUE_CAP = 10.0

SCALE_KINDS = ("integer_segment", "h_grid", "q_grid", "explicit", "union", "dense_mesh")
FN_FAMILIES = ("constant", "polynomial", "exponential", "tabulated", "sin",
               "affine_product", "any")


@dataclass(frozen=True)
class ScaleSpec:
    """Scale descriptor; build() turns it into a TimeScale or raises ConfigError,
    also when its point count, worked out from its numbers before any array
    is allocated, exceeds MAX_LATTICE_POINTS."""

    kind: str
    start: float | None = None
    end: float | None = None
    h: float | None = None
    q: float | None = None
    n: int | None = None
    points: tuple[float, ...] | None = None
    dense: tuple[bool, ...] | None = None
    of: tuple["ScaleSpec", ...] | None = None

    def _num(self, name: str) -> float:
        v = getattr(self, name)
        if v is None:
            raise ConfigError(f"{self.kind} scale needs '{name}'")
        return _parse_number(v)

    def build(self) -> TimeScale:
        kind = self.kind
        if kind == "integer_segment":
            start, end = self._num("start"), self._num("end")
            if start != int(start) or end != int(end):
                raise ConfigError("integer segment bounds must be integers")
            if end <= start:
                raise ConfigError("integer segment needs end > start")
            check_lattice_points(end - start + 1, "integer segment")
            return integer_segment(int(start), int(end))
        if kind in ("h_grid", "dense_mesh"):
            start, end, h = self._num("start"), self._num("end"), self._num("h")
            if h <= 0:
                raise ConfigError("h must be positive")
            if end <= start:
                raise ConfigError(f"{kind} needs end > start")
            check_lattice_points((end - start) / h + 2, kind)
            return h_grid(start, end, h) if kind == "h_grid" else dense_mesh(start, end, h)
        if kind == "q_grid":
            q = self._num("q")
            if q <= 1:
                raise ConfigError("q must exceed 1")
            n = self._num("n")
            if n < 1 or n != int(n):
                raise ConfigError("q_grid needs N a whole number at least 1")
            check_lattice_points(n + 1, "q_grid")
            return q_grid(q, int(n))
        if kind == "explicit":
            pts = [_parse_number(x) for x in self.points or ()]
            if len(pts) < 2 or any(b <= a for a, b in zip(pts, pts[1:])):
                raise ConfigError("explicit points must be strictly increasing, two or more")
            return explicit_scale(pts, self.dense)
        if kind == "union":
            if not self.of or len(self.of) < 2:
                raise ConfigError("union scale needs at least two member descriptors")
            built = [member.build() for member in self.of]
            out = built[0]
            for member in built[1:]:
                out = union_scales(out, member)
            check_lattice_points(len(out), "union")
            return out
        raise ConfigError(f"unknown scale kind '{kind}'")

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("start", "end", "h", "q", "n", "points", "dense"):
            v = getattr(self, name)
            if v is not None:
                out["N" if name == "n" else name] = list(v) if isinstance(v, tuple) else v
        if self.of is not None:
            out["of"] = [member.describe() for member in self.of]
        return out


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigError(f"expected 'start..end', got '{text}'")
    return _parse_number(lo), _parse_number(hi)


def _parse_number(text) -> float:
    try:
        x = math.nan if isinstance(text, bool) else float(text)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"'{text}' is not a finite number")
    return x


def _scale_from_text(text: str) -> ScaleSpec:
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ConfigError(f"cannot parse scale '{text}'")
    if kind == "integer":
        lo, hi = _parse_range(rest)
        return ScaleSpec("integer_segment", start=lo, end=hi)
    if kind in ("h", "dense"):
        step, sep, span = rest.partition(",")
        if not sep:
            raise ConfigError(f"expected '{kind}:H,start..end', got '{text}'")
        lo, hi = _parse_range(span)
        return ScaleSpec("h_grid" if kind == "h" else "dense_mesh",
                         start=lo, end=hi, h=_parse_number(step))
    if kind == "q":
        base, sep, count = rest.partition(",")
        if not sep:
            raise ConfigError(f"expected 'q:Q,N', got '{text}'")
        # A whole N is kept as an int, as reports spell it; build() rejects the rest.
        n = _parse_number(count)
        return ScaleSpec("q_grid", q=_parse_number(base), n=int(n) if n.is_integer() else n)
    if kind == "explicit":
        return ScaleSpec("explicit",
                         points=tuple(_parse_number(x) for x in rest.split(",")))
    raise ConfigError(f"unknown scale kind '{kind}'")


def _json_list(obj: dict, key: str) -> tuple | None:
    """obj[key] as a tuple, or None when absent or null; a non-list raises."""
    value = obj.get(key)
    if value is not None and not isinstance(value, list):
        raise ConfigError(f"scale '{key}' must be a JSON list")
    return None if value is None else tuple(value)


def parse_scale(obj) -> ScaleSpec:
    """Scale descriptor from CLI text ('integer:0..5') or a JSON object."""
    if isinstance(obj, ScaleSpec):
        return obj
    if isinstance(obj, str):
        return _scale_from_text(obj)
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if kind not in SCALE_KINDS:
            raise ConfigError(f"unknown scale kind '{kind}'")
        dense = _json_list(obj, "dense")
        if not all(isinstance(d, bool) for d in dense or ()):
            raise ConfigError("scale 'dense' entries must be true or false")
        members = _json_list(obj, "of")
        return ScaleSpec(
            kind=kind,
            start=obj.get("start"),
            end=obj.get("end"),
            h=obj.get("h"),
            q=obj.get("q"),
            n=obj.get("N", obj.get("n")),
            points=_json_list(obj, "points"),
            dense=dense,
            of=tuple(parse_scale(m) for m in members) if members else None,
        )
    raise ConfigError("scale descriptor must be text or an object")


# FnSpec fields that hold one number, and those that hold a list of numbers.
_NUMBER_FIELDS = ("value", "amplitude", "rate", "rate1", "rate2", "omega")
_LIST_FIELDS = ("coeffs", "values", "params")


@dataclass(frozen=True)
class FnSpec:
    """Coefficient-function descriptor; family 'any' samples one at random.

    Construction checks every number once: a one-number field becomes a
    finite float, and coeffs, values and params become rectangular nested
    tuples of finite floats, so the realizers read them as they are.  'any'
    takes no fields, as the family it draws would ignore them.
    """

    family: str = "any"
    value: float | None = None
    coeffs: tuple | None = None
    amplitude: float | None = None
    rate: float | None = None
    rate1: float | None = None
    rate2: float | None = None
    omega: float | None = None
    values: tuple | None = None
    params: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in FN_FAMILIES:
            raise ConfigError(f"unknown function family '{self.family}'")
        for name in _NUMBER_FIELDS + _LIST_FIELDS:
            v = getattr(self, name)
            if v is not None and self.family == "any":
                raise ConfigError(f"'{name}' needs a 'family'; 'any' reads no fields")
            if v is not None:
                object.__setattr__(self, name, _parse_number(v) if name in _NUMBER_FIELDS
                                   else _number_table(v, name))


def _number_table(v, name: str) -> tuple:
    """A nonempty list of finite numbers, or of equally shaped such lists, as
    nested tuples of floats; anything else raises ConfigError."""
    if isinstance(v, (list, tuple)) and v:
        rows = tuple(_number_table(x, name) if isinstance(x, (list, tuple)) else _parse_number(x)
                     for x in v)
        if len({np.shape(row) for row in rows}) == 1:
            return rows
    raise ConfigError(f"'{name}' must be a nonempty, rectangular list of finite numbers")


def parse_fn(obj) -> FnSpec:
    """Function descriptor from CLI text ('poly:0,1') or a JSON object."""
    if isinstance(obj, FnSpec):
        return obj
    if isinstance(obj, str):
        fam, sep, rest = obj.partition(":")
        if fam == "const":
            return FnSpec("constant", value=rest)
        if fam == "poly":
            return FnSpec("polynomial", coeffs=rest.split(","))
        if fam == "exp":
            parts = rest.split(",")
            if len(parts) != 2:
                raise ConfigError(f"expected 'exp:amplitude,rate', got '{obj}'")
            return FnSpec("exponential", amplitude=parts[0], rate=parts[1])
        if fam == "sin":
            return FnSpec("sin", omega=rest if sep else 1.0)
        if fam == "table":
            return FnSpec("tabulated", values=rest.split(","))
        raise ConfigError(f"cannot parse function '{obj}'")
    if isinstance(obj, dict):
        return FnSpec(family=obj.get("family", "any"),
                      **{name: obj.get(name) for name in _NUMBER_FIELDS + _LIST_FIELDS})
    raise ConfigError("function descriptor must be text or an object")


def _rng_required(rng) -> None:
    if rng is None:
        raise ConfigError("sampled function parameters need a seeded run; "
                          "supply fixed parameters here")


def _pick(family: str, pool: tuple[str, ...], rng) -> str:
    """family itself, or for 'any' a member of pool drawn from rng."""
    if family != "any":
        return family
    _rng_required(rng)
    return pool[int(rng.integers(len(pool)))]


def _constant(value: float | None, rng) -> float:
    """value itself, or a constant drawn from rng when it is None."""
    if value is not None:
        return value
    _rng_required(rng)
    return float(min(VALUE_CAP, 0.1 + 2.0 * abs(rng.standard_normal())))


def _coefficients(spec: FnSpec, naxes: int) -> np.ndarray:
    c = np.asarray(spec.coeffs)
    if c.ndim != naxes:
        raise ConfigError(f"polynomial coefficients need one nesting level per axis, {naxes} here")
    return c


def _polyval(grids, c: np.ndarray) -> np.ndarray:
    """Polynomial with one axis of c per grid on the broadcast grids, by
    nested Horner steps as polyval2d takes them."""
    vals = npoly.polyval(grids[0], c)
    for x in grids[1:]:
        vals = npoly.polyval(x, vals, tensor=False)
    return vals


_ANY_POOL = ("constant", "polynomial", "exponential", "tabulated")


def _realize(spec: FnSpec, axes: tuple[np.ndarray, ...], rng,
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
    fam = _pick(spec.family, _ANY_POOL[:3] if monotone else _ANY_POOL, rng)
    if fam == "constant":
        return np.full(shape, _constant(spec.value, rng))
    if fam == "sin" and n == 1:
        return np.sin((1.0 if spec.omega is None else spec.omega) * grids[0])
    if fam == "sin":
        raise ConfigError("sin may go negative and cannot serve as a coefficient")
    if fam not in _ANY_POOL:
        raise ConfigError(f"function family '{fam}' is not usable here")
    amp, rates = spec.amplitude, (spec.rate,) if n == 1 else (spec.rate1, spec.rate2)
    if fam == "polynomial" and spec.coeffs is not None:
        return _polyval(grids, _coefficients(spec, n))
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
        vals = _polyval(shifted, c)
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
    # L = log(amp) + powers.
    return VALUE_CAP * np.exp(powers - powers.max())


def realize_1d(spec: FnSpec, scale: TimeScale, rng=None,
               monotone_positive: bool = False) -> GridFn1:
    """Evaluate (or sample) a one-dimensional coefficient on a scale;
    monotone_positive asks for a strictly positive, nondecreasing one, which
    sampled families are drawn to be and fixed parameters are checked for.
    Values past the float range come out inf or NaN, which GridFn1 rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _realize(spec, (scale.points,), rng, monotone_positive)
        if monotone_positive:
            if float(vals.min()) <= 0.0:
                raise ConfigError("this coefficient must be strictly positive on the scale")
            if len(vals) > 1 and float(np.diff(vals).min()) < 0.0:
                raise ConfigError("this coefficient must be nondecreasing on the scale")
    return GridFn1(scale, vals)


def realize_2d(spec: FnSpec, domain: TimeScale2D, rng=None) -> GridFn2:
    """Evaluate (or sample) a two-dimensional coefficient on a product scale;
    it must be nonnegative on the lattice.  Values past the float range come
    out inf or NaN, which GridFn2 rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _realize(spec, (domain.scale1.points, domain.scale2.points), rng)
    if float(vals.min()) < 0.0:
        raise ConfigError("coefficient functions must be nonnegative on the lattice")
    return GridFn2(domain, vals)


def realize_scalar(spec: FnSpec, rng=None) -> float:
    """A nonnegative constant from a descriptor (system-case c1, c2); family
    'any' always draws one."""
    if spec.family not in ("constant", "any"):
        raise ConfigError("this entry must be a constant")
    v = _constant(spec.value if spec.family == "constant" else None, rng)
    if v < 0:
        raise ConfigError("constants must be nonnegative")
    return v


def realize_kernel(spec: FnSpec, domain: TimeScale2D, rng=None) -> KernelOracle:
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
    fam = _pick(spec.family, ("constant", "affine_product"), rng)
    if fam == "constant":
        v = _constant(spec.value, rng)
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
    alpha = (a0 + a1 * x1)[:, None] * (b0 + b1 * x2)[None, :]
    beta = c0 + c1 * x1[:, None] + c2 * x2[None, :]
    if spec.params is None:
        top = float(alpha.max() * beta.max())
        if top > VALUE_CAP:
            alpha *= VALUE_CAP / top
    return KernelOracle.separable(domain, alpha[None], beta[None])


def classical_forms(spec: FnSpec) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Smooth reference pair (f, f') for mesh-convergence studies.

    Only fixed-parameter families have a classical derivative to compare
    against, so sampled descriptors are rejected.
    """
    fam = spec.family
    if fam == "constant" and spec.value is not None:
        v = spec.value
        return (lambda t: v), (lambda t: 0.0)
    if fam == "polynomial" and spec.coeffs is not None:
        c = _coefficients(spec, 1)
        d = npoly.polyder(c) if len(c) > 1 else np.zeros(1)
        return (lambda t: float(npoly.polyval(t, c))), \
               (lambda t: float(npoly.polyval(t, d)))
    if fam == "sin":
        w = 1.0 if spec.omega is None else spec.omega
        return (lambda t: math.sin(w * t)), (lambda t: w * math.cos(w * t))
    if fam == "exponential" and (spec.amplitude is not None or spec.rate is not None):
        amp = 1.0 if spec.amplitude is None else spec.amplitude
        rate = 0.0 if spec.rate is None else spec.rate
        return (lambda t: amp * math.exp(rate * t)), \
               (lambda t: amp * rate * math.exp(rate * t))
    raise ConfigError("convergence study needs a fixed smooth function "
                      "(constant, polynomial, sin, or exponential)")
