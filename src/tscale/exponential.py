"""Regressivity checks, the circle algebra, and the scale exponential.

The exponential of a coefficient p anchored at t0 is the running product of
the factors 1 + mu*p between t0 and t, with reciprocal products left of t0.
Products that leave the comfortable float range are carried in log space so
ratios of same-sign overflowing prefixes still come out finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridFn1, TimeScale, neumaier_cumsum, _require_same_scale
from .errors import DomainError, RegressivityError

# A factor 1 + mu*p counts as zero when inside this relative band.
REGRESSIVITY_TOL = 1e-12
# Running product magnitudes beyond this trip the log-space representation.
PRODUCT_LIMIT = 1e300


def _factors(mu_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors 1 + mu*p, and the band around zero within which each counts
    as zero."""
    return 1.0 + mu_p, REGRESSIVITY_TOL * (1.0 + np.abs(mu_p))


@dataclass(frozen=True)
class RegressivityReport:
    """Summary of how the factors 1 + mu*p sit relative to zero."""

    is_regressive: bool
    is_positively_regressive: bool
    worst_factor: float
    worst_index: int


def regressivity(p: GridFn1) -> RegressivityReport:
    """Classify a coefficient as regressive / positively regressive.

    Regressive means no factor 1 + mu*p sits within the relative tolerance
    band around zero; positively regressive additionally requires every
    factor to clear the band on the positive side.
    """
    factors, band = _factors(p.scale.graininess * p.values)
    worst = int(np.argmin(factors))
    near_zero = np.abs(factors) <= band
    return RegressivityReport(
        is_regressive=not bool(near_zero.any()),
        is_positively_regressive=bool(np.all(factors > band)),
        worst_factor=float(factors[worst]),
        worst_index=worst,
    )


def _require_regressive(p: GridFn1, positive: bool = False) -> np.ndarray:
    """The factors 1 + mu*p at every index (the maximum contributes a harmless
    1), once none lies in the zero band."""
    factors, band = _factors(p.scale.graininess * p.values)
    bad = (factors <= band) if positive else (np.abs(factors) <= band)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "positively regressive" if positive else "regressive"
        raise RegressivityError(
            f"coefficient is not {kind}: factor 1 + mu*p = {factors[i]:.3e} at index {i}",
            worst_index=i, worst_factor=float(factors[i]))
    return factors


def circle_plus(f: GridFn1, g: GridFn1) -> GridFn1:
    """Circle addition f + g + mu*f*g on a shared scale."""
    _require_same_scale(f, g)
    mu = f.scale.graininess
    return GridFn1(f.scale, f.values + g.values + mu * f.values * g.values)


def circle_minus(g: GridFn1) -> GridFn1:
    """Circle negation -g / (1 + mu*g); g must be regressive."""
    factors = _require_regressive(g)
    return GridFn1(g.scale, -g.values / factors)


class ProductLadder:
    """Prefix products P[k] = factors[0] * ... * factors[k-1] with P[0] = 1.

    Ratios P[i] / P[j] are the currency of the scale exponential.  When any
    running magnitude leaves [1e-300, 1e300] the ladder stores signs and log
    magnitudes instead, so ratios of representable size survive transit
    through astronomically large (or small) prefixes.
    """

    def __init__(self, factors: np.ndarray):
        factors = np.asarray(factors, dtype=float)
        if np.any(factors == 0.0):
            raise DomainError("product ladder factors must be nonzero")
        self.n = len(factors) + 1
        with np.errstate(over="ignore"):
            direct = np.concatenate(([1.0], np.cumprod(factors)))
        mags = np.abs(direct)
        self.log_mode = bool(
            np.any(~np.isfinite(direct))
            or np.any(mags > PRODUCT_LIMIT)
            or np.any(mags < 1.0 / PRODUCT_LIMIT)
        )
        if self.log_mode:
            self.signs = np.concatenate(([1.0], np.cumprod(np.sign(factors))))
            self.logs = np.concatenate(([0.0], neumaier_cumsum(np.log(np.abs(factors)))))
            self.direct = None
        else:
            self.direct = direct

    def ratios_from(self, j: int) -> np.ndarray:
        """P[i] / P[j] for every i, as one array."""
        if not 0 <= j < self.n:
            raise DomainError(f"ladder anchor {j} out of range")
        if not self.log_mode:
            return self.direct / self.direct[j]
        with np.errstate(over="ignore"):
            return self.signs * self.signs[j] * np.exp(self.logs - self.logs[j])


def exp_fn(p: GridFn1, t0: int) -> GridFn1:
    """Scale exponential e_p(t, t0) of a regressive coefficient.

    Satisfies the dynamic equation x^{delta} = p*x with x(t0) = 1: the value
    at t right of t0 is the product of 1 + mu*p over [t0, t), and left of t0
    the reciprocal of the product over [t, t0).
    """
    t0 = p.scale._check_index(t0)
    vals = ProductLadder(_require_regressive(p)[:-1]).ratios_from(t0)
    if not np.all(np.isfinite(vals)):
        raise DomainError("scale exponential overflowed the representable range")
    return GridFn1(p.scale, vals)


def comparison_bound(x_a: float, f: GridFn1, g: GridFn1, a: int) -> GridFn1:
    """Sharp upper bound for x with x^{delta} <= f + g*x and x(a) <= x_a.

    Returns x_a * e_g(t, a) + integral over [a, t) of f(s) e_g(t, sigma(s)),
    evaluated on the sub-scale starting at a.  g must stay positively
    regressive on the window, which keeps the direction of the inequality.
    """
    _require_same_scale(f, g)
    if not math.isfinite(x_a):
        raise DomainError(f"x_a must be finite, got {x_a}")
    scale = f.scale
    a = scale._check_index(a)
    mu = np.diff(scale.points)
    window = slice(a, len(scale) - 1)
    factors, band = _factors(mu[window] * g.values[window])
    if np.any(factors <= band):
        i = a + int(np.argmax(factors <= band))
        raise RegressivityError(
            f"comparison coefficient loses positive regressivity at index {i}",
            worst_index=i)
    ladder = ProductLadder(factors)
    q = ladder.ratios_from(0)          # q[k] = e_g(t_{a+k}, t_a)
    weighted = f.values[window] * mu[window] / q[1:]
    acc = neumaier_cumsum(weighted) if len(weighted) else np.empty(0)
    out = np.empty(len(q))
    out[0] = x_a
    if len(acc):
        out[1:] = q[1:] * (x_a + acc)
    if not np.all(np.isfinite(out)):
        raise DomainError("comparison bound overflowed the representable range")
    return GridFn1(scale.tail(a), out)
