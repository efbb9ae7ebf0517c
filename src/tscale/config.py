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
from .errors import ConfigError, DomainError
from .grid2d import GridFn2, KernelOracle, TimeScale2D, check_kernel_budget

# Sampled coefficient functions never exceed this magnitude.
VALUE_CAP = 10.0
# Smallest normal double: the floor of a sampled exponential capped in log space.
_TINY = np.finfo(float).tiny

# A key table maps each key a config object reads to (reader, default).  A dict
# reads one of its keys as that key's value, None keeps the value as given, and
# a function may raise ValueError, which the key's name completes.
REQUIRED = object()


def read_keys(obj, table: dict, what: str) -> dict:
    """{key: value read} for every key of table, from obj, a JSON object: an
    absent key reads its default, but None stays unset and REQUIRED raises.  A
    key that table does not list raises ConfigError naming it and what."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for key in obj:
        if key not in table:
            raise ConfigError(f"{what} does not read '{key}'; it reads {', '.join(table)}")
    out = {}
    for key, (reader, default) in table.items():
        value = obj.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{what} needs '{key}'")
        if reader is None or (value is None and default is None):
            out[key] = value
        elif isinstance(reader, dict):
            if not (isinstance(value, str) and value in reader):
                raise ConfigError(f"'{key}' must be one of {', '.join(reader)}; got {value!r}")
            out[key] = reader[value]
        else:
            try:
                out[key] = reader(value)
            except ValueError as exc:
                raise ConfigError(f"'{key}' {exc}") from None
    return out


def _parse_number(text) -> float:
    try:
        x = math.nan if isinstance(text, bool) else float(text)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"'{text}' is not a finite number")
    return x


def _number_table(v) -> tuple:
    """A nonempty list of finite numbers, or of equally shaped such lists, as
    nested tuples of floats; anything else raises."""
    if isinstance(v, (list, tuple)) and v:
        rows = tuple(_number_table(x) if isinstance(x, (list, tuple)) else _parse_number(x)
                     for x in v)
        if len({np.shape(row) for row in rows}) == 1:
            return rows
    raise ValueError("must be a nonempty, rectangular list of finite numbers")


def _json_list(value) -> tuple:
    if not isinstance(value, list):
        raise ValueError("must be a JSON list")
    return tuple(value)


# The keys each scale kind reads besides 'kind'.  Numbers stay as given until
# build() parses them, so that describe() gives them back as written.
_GIVEN = (None, None)
SCALES = {"integer_segment": {"start": _GIVEN, "end": _GIVEN},
          "h_grid": {"start": _GIVEN, "end": _GIVEN, "h": _GIVEN},
          "q_grid": {"q": _GIVEN, "N": _GIVEN},
          "explicit": {"points": (_json_list, None), "dense": (_json_list, None)},
          "union": {"of": (lambda members: tuple(map(parse_scale, _json_list(members))), None)},
          "dense_mesh": {"start": _GIVEN, "end": _GIVEN, "h": _GIVEN}}
SCALE_KINDS = tuple(SCALES)
_MAKERS = dict(integer_segment=integer_segment, h_grid=h_grid, q_grid=q_grid, dense_mesh=dense_mesh)

# The keys each function family reads besides 'family': one finite number, or
# a rectangular list of them.
_NUMBER, _LIST = (_parse_number, None), (_number_table, None)
FAMILIES = {"constant": {"value": _NUMBER}, "polynomial": {"coeffs": _LIST},
            "exponential": dict.fromkeys(("amplitude", "rate", "rate1", "rate2"), _NUMBER),
            "tabulated": {"values": _LIST}, "sin": {"omega": _NUMBER},
            "affine_product": {"params": _LIST}, "any": {}}
FN_FAMILIES = tuple(FAMILIES)
_NUMBER_FIELDS, _LIST_FIELDS = (tuple(key for table in FAMILIES.values() for key in table
                                      if table[key] is entry) for entry in (_NUMBER, _LIST))


@dataclass(frozen=True)
class ScaleSpec:
    """Scale descriptor; build() parses its numbers and calls the core
    constructor of its kind, which checks them, and re-raises a DomainError
    of it as ConfigError with the same message."""

    kind: str
    start: float | None = None
    end: float | None = None
    h: float | None = None
    q: float | None = None
    N: int | None = None
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
        try:
            if kind in _MAKERS:     # its table lists the constructor's arguments in order
                return _MAKERS[kind](*map(self._num, SCALES[kind]))
            if kind == "explicit":
                pts = [_parse_number(x) for x in self.points or ()]
                if len(pts) < 2:
                    raise ConfigError("explicit scale needs two or more points")
                if self.dense is not None and (len(self.dense) != len(pts) or not all(
                        isinstance(tag, bool) for tag in self.dense)):
                    raise ConfigError("explicit scale needs a true or false 'dense' tag per point")
                return explicit_scale(pts, self.dense)
            if kind == "union":
                if not self.of or len(self.of) < 2:
                    raise ConfigError("union scale needs at least two member descriptors")
                return reduce(union_scales, [member.build() for member in self.of])
        except DomainError as err:
            raise ConfigError(str(err)) from err
        raise ConfigError(f"unknown scale kind '{kind}'")

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        for key in SCALES.get(self.kind, ()):
            v = getattr(self, key)
            if v is not None:
                out[key] = [m.describe() for m in v] if key == "of" \
                    else list(v) if isinstance(v, tuple) else v
        return out


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigError(f"expected 'start..end', got '{text}'")
    return _parse_number(lo), _parse_number(hi)


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
        return ScaleSpec("q_grid", q=_parse_number(base), N=int(n) if n.is_integer() else n)
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
        kind, fields = obj.get("kind"), {k: v for k, v in obj.items() if k != "kind"}
        if kind not in SCALE_KINDS:
            raise ConfigError(f"unknown scale kind '{kind}'")
        if kind == "q_grid" and "n" in fields:   # 'n' spells 'N' too
            fields.setdefault("N", fields.pop("n"))
        return ScaleSpec(kind, **read_keys(fields, SCALES[kind], f"{kind} scale"))
    raise ConfigError("scale descriptor must be text or an object")


def _fn_fields(family, given: dict) -> dict:
    """given, the fields of a function of family, read through its table."""
    if family not in FN_FAMILIES:
        raise ConfigError(f"unknown function family '{family}'")
    if given and not FAMILIES[family]:
        raise ConfigError(f"'{next(iter(given))}' needs a 'family'; 'any' reads no fields")
    return read_keys(given, FAMILIES[family], f"{family} function")


@dataclass(frozen=True)
class FnSpec:
    """Coefficient-function descriptor; family 'any' samples one at random.

    Construction checks every field once: a field its family does not read
    raises, a one-number field becomes a finite float, and coeffs, values
    and params become rectangular nested tuples of finite floats, so the
    realizers read them as they are.
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
        given = {name: getattr(self, name) for name in _NUMBER_FIELDS + _LIST_FIELDS
                 if getattr(self, name) is not None}
        for name, value in _fn_fields(self.family, given).items():
            object.__setattr__(self, name, value)


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
        family, fields = obj.get("family", "any"), {k: v for k, v in obj.items() if k != "family"}
        return FnSpec(family, **_fn_fields(family, fields))
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


_ANY_POOL = ("constant", "polynomial", "exponential", "tabulated")
_DEGREES = {n: [d for d in product(range(4), repeat=n) if sum(d) <= 3] for n in (1, 2)}


def _rates(spec: FnSpec, naxes: int) -> tuple:
    return (spec.rate,) if naxes == 1 else (spec.rate1, spec.rate2)


def draw(spec: FnSpec, shape: tuple[int, ...], rng, monotone: bool = False) -> tuple:
    """One instance's random part of spec on a scale or lattice of this shape,
    from rng: (family, a constant's value, a sampled family's coefficients,
    (amplitude, rates) or values, or None where spec fixes them).  monotone
    keeps a sampled function nondecreasing (no tabulated draw, a raised
    constant term, rates of at least 0).  Nothing is checked here."""
    n = len(shape)
    fam = _pick(spec.family, _ANY_POOL[:3] if monotone else _ANY_POOL, rng)
    if fam == "constant":
        return fam, _constant(spec.value, rng)
    if {"polynomial": spec.coeffs is not None, "tabulated": spec.values is not None,
            "exponential": spec.amplitude is not None or _rates(spec, n) != (None,) * n
            }.get(fam, True):
        return fam, None
    _rng_required(rng)
    if fam == "polynomial":
        degree = _DEGREES[n][int(rng.integers(len(_DEGREES[n])))]
        c = np.abs(rng.standard_normal(tuple(d + 1 for d in degree)))
        if monotone:
            c[(0,) * n] += 0.1
        return fam, c
    if fam == "exponential":
        amp = 0.1 + abs(rng.standard_normal())
        return fam, (amp, [float(rng.uniform(0.0 if monotone else -0.5, 0.5)) for _ in shape])
    return fam, 2.0 * np.abs(rng.standard_normal(shape))


def _evaluate(spec: FnSpec, axes: tuple, draws: list | None, rng, monotone=False) -> np.ndarray:
    """Values of the drawn instances (without draws, one drawn from rng) on the
    product of one or two axes, stacked first, one evaluation per family."""
    draws = draws or [draw(spec, tuple(len(x) for x in axes), rng, monotone)]
    full = (len(draws), *(len(x) for x in axes))
    fams = [fam for fam, _ in draws]
    vals = np.empty(full)
    for fam in dict.fromkeys(fams):
        params = [p for f, p in draws if f == fam]
        block = _family_values(spec, fam, axes, params) if fam != "constant" \
            else np.reshape(params, (-1,) + (1,) * len(axes))
        if block.shape == full:     # one family for every instance
            return block
        vals[np.array([f == fam for f in fams])] = block
    return vals


def _family_values(spec: FnSpec, fam: str, axes: tuple, params: list) -> np.ndarray:
    """Instances of fam on the product of axes, one per parameter record, or
    once at the raw points for records None (parameters spec fixes).  Sampled
    ones use points shifted to start at zero, which makes them nonnegative,
    and are capped at VALUE_CAP, in log space for an exponential past the
    float range (floored at the smallest normal double, so it stays strictly
    positive); any other family past it raises ConfigError.  Polynomials
    padded with zero coefficients keep their bits on points of at least 0."""
    n, fixed = len(axes), params[0] is None
    if fam == "sin" and n == 1:
        return np.sin((1.0 if spec.omega is None else spec.omega) * axes[0])
    if fam not in _ANY_POOL:
        raise ConfigError("sin may go negative and cannot serve as a coefficient" if fam == "sin"
                          else f"function family '{fam}' is not usable here")
    points = axes if fixed else [x - x[0] for x in axes]
    lead, lattice = (-1,) + (1,) * n, tuple(range(1, n + 1))
    if fam == "tabulated":
        vals = np.asarray([spec.values]) if fixed else np.stack(params)
        if vals.shape[1:] != tuple(len(x) for x in axes):
            raise ConfigError("tabulated values must match the "
                              + ("scale length" if n == 1 else "lattice shape"))
    elif fam == "polynomial":
        vals = _coefficients(spec, n)[..., None] if fixed \
            else np.zeros((*map(max, zip(*(ck.shape for ck in params))), len(params)))
        for k, ck in enumerate([] if fixed else params):
            vals[(*map(slice, ck.shape), k)] = ck
        for x in points:    # nested Horner steps, as polyval2d takes them
            vals = npoly.polyval(x, vals)
    else:
        if fixed:
            params = [(1.0 if spec.amplitude is None else spec.amplitude,
                       [0.0 if r is None else r for r in _rates(spec, n)])]
        rates = np.array([r for _, r in params])
        powers = reduce(np.add, (np.reshape(r, lead) * x
                                 for r, x in zip(rates.T, np.ix_(*points))))
        vals = np.reshape([amp for amp, _ in params], lead) * np.exp(powers)
    if fixed:
        return vals
    top = np.abs(vals).max(axis=lattice)
    over = ~np.isfinite(top)
    if over.any() and fam != "exponential":
        raise ConfigError(f"a sampled {fam} leaves the float range on this scale")
    if over.any():
        # The cap in log space, VALUE_CAP * exp(L - max L), where amp cancels,
        # floored at the smallest normal double where it underflows, so that
        # it stays strictly positive, and nondecreasing where L is.
        powers = powers[over]
        vals[over] = np.maximum(
            VALUE_CAP * np.exp(powers - powers.max(axis=lattice, keepdims=True)), _TINY)
        top[over] = VALUE_CAP
    if top.max() > VALUE_CAP:
        vals *= np.reshape(VALUE_CAP / np.maximum(top, VALUE_CAP), lead)    # 1.0 when uncapped
    return vals


def realize_1d(spec: FnSpec, scale: TimeScale, rng=None,
               monotone_positive: bool = False, draws: list | None = None) -> GridFn1:
    """Evaluate (or sample) a one-dimensional coefficient on a scale;
    monotone_positive asks for a strictly positive, nondecreasing one, which
    sampled families are drawn to be and fixed parameters are checked for.
    Values past the float range come out inf or NaN, which GridFn1 rejects.
    draws, records from draw(), realizes a stack of instances on a leading
    axis, a stack of one for a list of one, in place of one drawn from rng."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _evaluate(spec, (scale.points,), draws, rng, monotone_positive)
        if monotone_positive:
            if float(vals.min()) <= 0.0:
                raise ConfigError("this coefficient must be strictly positive on the scale")
            if len(scale) > 1 and float(np.diff(vals).min()) < 0.0:
                raise ConfigError("this coefficient must be nondecreasing on the scale")
    return GridFn1(scale, vals[0] if draws is None else vals)


def realize_2d(spec: FnSpec, domain: TimeScale2D, rng=None,
               draws: list | None = None) -> GridFn2:
    """Evaluate (or sample) a two-dimensional coefficient on a product scale;
    it must be nonnegative on the lattice.  Values past the float range come
    out inf or NaN, which GridFn2 rejects.  draws: as for realize_1d."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _evaluate(spec, (domain.scale1.points, domain.scale2.points), draws, rng)
        if float(vals.min()) < 0.0:
            raise ConfigError("coefficient functions must be nonnegative on the lattice")
    return GridFn2(domain, vals[0] if draws is None else vals)


def draw_scalar(spec: FnSpec, rng) -> float | None:
    """One realize_scalar instance's value (None for a family it rejects)."""
    return _constant(spec.value, rng) if spec.family in ("constant", "any") else None


def realize_scalar(spec: FnSpec, rng=None, draws: list | None = None):
    """A nonnegative constant from a descriptor (system-case c1, c2); family
    'any' always draws one.  draws (from draw_scalar) gives a stack's array."""
    if spec.family not in ("constant", "any"):
        raise ConfigError("this entry must be a constant")
    v = np.array([draw_scalar(spec, rng)] if draws is None else draws, dtype=float)
    if np.any(v < 0):
        raise ConfigError("constants must be nonnegative")
    return float(v[0]) if draws is None else v


def draw_kernel(spec: FnSpec, rng) -> tuple:
    """One realize_kernel instance's random part, as draw() gives it."""
    fam = _pick(spec.family, ("constant", "affine_product"), rng)
    if fam == "constant":
        return fam, _constant(spec.value, rng)
    if fam != "affine_product" or spec.params is not None:
        return fam, None
    _rng_required(rng)
    return fam, tuple(np.abs(rng.standard_normal(7)))


def realize_kernel(spec: FnSpec, domain: TimeScale2D, rng=None,
                   draws: list | None = None) -> KernelOracle:
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
    allocated.  draws, records from draw_kernel(), realizes a stack of
    instances as one kernel whose factors have shape (1, count, n1, n2), each
    family evaluated once for its instances.
    """
    check_kernel_budget(domain, rank=1)
    records = [draw_kernel(spec, rng)] if draws is None else draws
    fams = [fam for fam, _ in records]
    for fam in fams:
        if fam not in ("constant", "affine_product"):
            raise ConfigError(f"kernel family '{fam}' is not supported")
    shape = (len(records), *domain.shape)
    alpha, beta = np.empty(shape), np.empty(shape)
    const = np.array([fam == "constant" for fam in fams])
    if const.any():
        values = np.array([v for fam, v in records if fam == "constant"])
        if values.min() < 0:
            raise ConfigError("a constant kernel must be nonnegative")
        alpha[const], beta[const] = values[:, None, None], 1.0
    if not const.all():
        alpha[~const], beta[~const] = _affine_factors(
            spec, domain, [v for fam, v in records if fam == "affine_product"])
    if draws is not None:    # one term: (1, count, n1, n2)
        alpha, beta = alpha[None], beta[None]
    return KernelOracle.separable(domain, alpha, beta)


# Factors past the float range need no warning: KernelOracle.separable rejects them.
@np.errstate(over="ignore", invalid="ignore")
def _affine_factors(spec: FnSpec, domain: TimeScale2D, drawn: list) -> tuple:
    """alpha and beta of affine_product kernels, stacked first: one per drawn
    parameter record, or, for records None, spec's fixed parameters once."""
    params, x1, x2 = spec.params, domain.scale1.points, domain.scale2.points
    if params is None:
        params, x1, x2 = np.array(drawn).T, x1 - x1[0], x2 - x2[0]
    elif np.shape(params) != (7,):
        raise ConfigError("affine_product kernel needs 7 parameters")
    elif min(params) < 0:
        raise ConfigError("affine_product kernel parameters must be nonnegative")
    a0, a1, b0, b1, c0, c1, c2 = (np.reshape(x, (-1, 1, 1)) for x in params)
    x1, x2 = x1[:, None], x2[None, :]
    alpha = (a0 + a1 * x1) * (b0 + b1 * x2)
    beta = c0 + c1 * x1 + c2 * x2
    if spec.params is None:
        top = alpha.max(axis=(1, 2)) * beta.max(axis=(1, 2))
        alpha *= (VALUE_CAP / np.maximum(top, VALUE_CAP))[:, None, None]    # 1.0 when uncapped
    return alpha, beta


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
