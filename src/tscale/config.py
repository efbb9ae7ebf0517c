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
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import (GridFn1, TimeScale, dense_mesh, explicit_scale, h_grid,
                   integer_segment, q_grid, union_scales)
from .errors import ConfigError
from .grid2d import GridFn2, KernelOracle, TimeScale2D, check_kernel_budget

# Sampled coefficient functions never exceed this magnitude.
VALUE_CAP = 10.0

SCALE_KINDS = ("integer_segment", "h_grid", "q_grid", "explicit", "union", "dense_mesh")
FN_FAMILIES = ("constant", "polynomial", "exponential", "tabulated", "sin",
               "affine_product", "any")


@dataclass(frozen=True)
class ScaleSpec:
    """Scale descriptor; build() turns it into a TimeScale or raises ConfigError."""

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
            return integer_segment(int(start), int(end))
        if kind in ("h_grid", "dense_mesh"):
            start, end, h = self._num("start"), self._num("end"), self._num("h")
            if h <= 0:
                raise ConfigError("h must be positive")
            if end <= start:
                raise ConfigError(f"{kind} needs end > start")
            return h_grid(start, end, h) if kind == "h_grid" else dense_mesh(start, end, h)
        if kind == "q_grid":
            q = self._num("q")
            if q <= 1:
                raise ConfigError("q must exceed 1")
            n = self._num("n")
            if n < 1 or n != int(n):
                raise ConfigError("q_grid needs N a whole number at least 1")
            return q_grid(q, int(n))
        if kind == "explicit":
            if not self.points:
                raise ConfigError("explicit scale needs a nonempty point list")
            pts = [_parse_number(x) for x in self.points]
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
        x = float(text)
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
        return ScaleSpec("q_grid", q=_parse_number(base), n=int(_parse_number(count)))
    if kind == "explicit":
        return ScaleSpec("explicit",
                         points=tuple(_parse_number(x) for x in rest.split(",")))
    raise ConfigError(f"unknown scale kind '{kind}'")


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
        members = obj.get("of")
        return ScaleSpec(
            kind=kind,
            start=obj.get("start"),
            end=obj.get("end"),
            h=obj.get("h"),
            q=obj.get("q"),
            n=obj.get("N", obj.get("n")),
            points=tuple(obj["points"]) if "points" in obj else None,
            dense=tuple(obj["dense"]) if "dense" in obj else None,
            of=tuple(parse_scale(m) for m in members) if members else None,
        )
    raise ConfigError("scale descriptor must be text or an object")


@dataclass(frozen=True)
class FnSpec:
    """Coefficient-function descriptor; family 'any' samples one at random."""

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

    def describe(self) -> dict:
        out: dict = {"family": self.family}
        for name in ("value", "coeffs", "amplitude", "rate", "rate1", "rate2",
                     "omega", "values", "params"):
            v = getattr(self, name)
            if v is not None:
                out[name] = _untuple(v)
        return out


def _untuple(v):
    if isinstance(v, tuple):
        return [_untuple(x) for x in v]
    return v


def _retuple(v):
    if isinstance(v, (list, tuple)):
        return tuple(_retuple(x) for x in v)
    return v


def parse_fn(obj) -> FnSpec:
    """Function descriptor from CLI text ('poly:0,1') or a JSON object."""
    if isinstance(obj, FnSpec):
        return obj
    if isinstance(obj, str):
        fam, sep, rest = obj.partition(":")
        if fam == "const":
            return FnSpec("constant", value=_parse_number(rest))
        if fam == "poly":
            return FnSpec("polynomial",
                          coeffs=tuple(_parse_number(x) for x in rest.split(",")))
        if fam == "exp":
            parts = rest.split(",")
            if len(parts) != 2:
                raise ConfigError(f"expected 'exp:amplitude,rate', got '{obj}'")
            return FnSpec("exponential", amplitude=_parse_number(parts[0]),
                          rate=_parse_number(parts[1]))
        if fam == "sin":
            return FnSpec("sin", omega=_parse_number(rest) if sep else 1.0)
        if fam == "table":
            return FnSpec("tabulated",
                          values=tuple(_parse_number(x) for x in rest.split(",")))
        raise ConfigError(f"cannot parse function '{obj}'")
    if isinstance(obj, dict):
        fam = obj.get("family", "any")
        if fam not in FN_FAMILIES:
            raise ConfigError(f"unknown function family '{fam}'")
        return FnSpec(
            family=fam,
            value=obj.get("value"),
            coeffs=_retuple(obj["coeffs"]) if "coeffs" in obj else None,
            amplitude=obj.get("amplitude"),
            rate=obj.get("rate"),
            rate1=obj.get("rate1"),
            rate2=obj.get("rate2"),
            omega=obj.get("omega"),
            values=_retuple(obj["values"]) if "values" in obj else None,
            params=_retuple(obj["params"]) if "params" in obj else None,
        )
    raise ConfigError("function descriptor must be text or an object")


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


def realize_1d(spec: FnSpec, scale: TimeScale, rng=None,
               monotone_positive: bool = False) -> GridFn1:
    """Evaluate (or sample) a one-dimensional coefficient on a scale.

    Fixed parameters are evaluated at the raw point values; sampled families
    use coordinates shifted to start at zero, which together with
    absolute-value coefficients makes them nonnegative, and nondecreasing
    where monotone_positive asks for it.  The monotone_positive flag also
    validates fixed-parameter functions against strict positivity and
    monotonicity on the grid.
    """
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


def realize_2d(spec: FnSpec, domain: TimeScale2D, rng=None,
               require_nonneg: bool = True) -> GridFn2:
    """Evaluate (or sample) a two-dimensional coefficient on a product scale."""
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


def realize_scalar(spec: FnSpec, rng=None) -> float:
    """A nonnegative constant from a descriptor (system-case c1, c2)."""
    if spec.family == "constant" and spec.value is not None:
        v = float(spec.value)
        if v < 0:
            raise ConfigError("constants must be nonnegative")
        return v
    if spec.family in ("constant", "any"):
        _rng_required(rng)
        return _sample_scalar(rng)
    raise ConfigError("this entry must be a constant")


def realize_kernel(spec: FnSpec, domain: TimeScale2D, rng=None) -> KernelOracle:
    """A four-argument kernel from a descriptor.

    Families: constant, and affine_product with parameters
    (a0, a1, b0, b1, c0, c1, c2) giving
    k = (a0 + a1*t1) * (b0 + b1*t2) * (c0 + c1*s1 + c2*s2); nonnegative
    parameters make the kernel nonnegative with nonnegative lattice
    differences.  Sampled parameters are absolute normals evaluated in
    shifted coordinates and capped at VALUE_CAP.  Over the table budget it
    raises ConfigError before anything is drawn or allocated.
    """
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


def classical_forms(spec: FnSpec) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Smooth reference pair (f, f') for mesh-convergence studies.

    Only fixed-parameter families have a classical derivative to compare
    against, so sampled descriptors are rejected.
    """
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
