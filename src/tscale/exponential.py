"""Regressivity checks, the circle algebra, and the scale exponential.

The exponential of a coefficient p anchored at t0 is the running product of
the factors 1 + mu*p from t0 out to t, and left of t0 the running product of
their reciprocals from t0 back to t.  A running product is taken in plain
floats while no IEEE flag fires, and otherwise carried as a mantissa and a
binary exponent, so a prefix leaves the range of a double only where its
own value does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridFn1, _computed, _plain_floats, _require_one_scale, neumaier_cumsum
from .errors import DomainError, RegressivityError

# A factor 1 + mu*p counts as zero when inside this relative band.
REGRESSIVITY_TOL = 1e-12
# The smallest normal double.
TINY = np.finfo(float).tiny
# Mantissas lie within 2**±0.5, so a block's running product stays within
# 2**±500 of its start.
PRODUCT_BLOCK = 1000


def _mu_p(mu: np.ndarray, p: np.ndarray, start: int = 0) -> np.ndarray:
    """mu*p from index start on and 0 before it, or DomainError naming the
    first index where the product overflows: an infinite mu*p would read as
    a factor 1 + mu*p inside the zero band."""
    out = np.zeros(len(mu))
    try:
        with np.errstate(over="raise"):
            np.multiply(mu[start:], p[start:], out=out[start:])
    except FloatingPointError:
        with np.errstate(over="ignore"):
            i = start + int(np.argmax(np.isinf(mu[start:] * p[start:])))
        raise DomainError(f"mu*p overflows the float range at index {i}") from None
    return out


def _factors(mu_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors 1 + mu*p, and the band around zero within which each counts
    as zero."""
    band = np.abs(mu_p)
    band += 1.0
    band *= REGRESSIVITY_TOL
    return 1.0 + mu_p, band


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
    factor to clear the band on the positive side.  A product mu*p past the
    float range raises DomainError.
    """
    _require_one_scale(p)
    factors, band = _factors(_mu_p(p.scale.graininess, p.values))
    worst = int(np.argmin(factors))
    near_zero = np.abs(factors) <= band
    return RegressivityReport(
        is_regressive=not bool(near_zero.any()),
        is_positively_regressive=bool(np.all(factors > band)),
        worst_factor=float(factors[worst]),
        worst_index=worst,
    )


def _require_regressive(mu_p: np.ndarray, positive: bool = False) -> np.ndarray:
    """The factors 1 + mu*p at every index of the products mu*p, once none
    lies in the zero band; mu_p may be overwritten with them.  A 0 in mu_p,
    as the last mu gives, is a factor 1 above zero, so the bands are built
    unless every factor lies above zero: callers pass the factors they use.

    fl is monotone, so no band is wider than the one at the largest |mu*p|,
    and the smallest and largest factors are 1 plus the smallest and largest
    mu*p.  Where every factor clears that widest band on one side (the
    positive side if positive), none lies in its own band and the bands are
    not built; otherwise each factor is checked against its own band.
    """
    if not mu_p.size:
        return mu_p
    lo, hi = float(mu_p.min()), float(mu_p.max())
    widest = (max(abs(lo), abs(hi)) + 1.0) * REGRESSIVITY_TOL
    if 1.0 + lo > widest or (not positive and 1.0 + hi < -widest):
        return np.add(mu_p, 1.0, out=mu_p)
    factors, band = _factors(mu_p)
    bad = (factors <= band) if positive else (np.abs(factors) <= band)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "loses positive regressivity" if positive else "is not regressive"
        raise RegressivityError(
            f"coefficient {kind}: factor 1 + mu*p = {factors[i]:.3e} at index {i}",
            worst_index=i, worst_factor=float(factors[i]))
    return factors


def circle_plus(f: GridFn1, g: GridFn1) -> GridFn1:
    """Circle addition f + g + mu*f*g on a shared scale."""
    _require_one_scale(f, g)
    mu = f.scale.graininess
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.values + g.values + mu * f.values * g.values
    return _computed(f.scale, vals, "circle plus")


def circle_minus(g: GridFn1) -> GridFn1:
    """Circle negation -g / (1 + mu*g); g must be regressive."""
    _require_one_scale(g)
    # the last mu is 0, so the last factor is 1, and only the others are screened
    factors = _mu_p(g.scale.graininess, g.values)
    factors[:-1] = _require_regressive(factors[:-1])
    factors[-1] = 1.0
    with np.errstate(over="ignore"):
        vals = -g.values / factors
    return _computed(g.scale, vals, "circle minus")


class ProductLadder:
    """Prefix products P[k] = factors[0] * ... * factors[k-1], P[0] = 1, down
    axis 0 of factors of shape (n, ...); every other axis is a separate
    product.

    The prefixes are first one plain running product under
    core._plain_floats: while it raises no IEEE flag, these are the bits the
    mantissa-and-exponent ladder below gives.  A flag builds that ladder
    from the factors kept.

    There a prefix is a mantissa times 2**exponent.  Each factor splits into
    a mantissa of magnitude within 2**±0.5 and an integer exponent; the
    mantissas multiply in one running product and the exponents add.  The
    first mantissa of every later block of PRODUCT_BLOCK factors is scaled
    by the power of two that brings the running product back near 1,
    estimated from the blocks' own products, and its exponent takes the
    opposite power.  So every running mantissa stays within about
    2**±501, where a product rounds as it would at any other power of two:
    while every prefix is a normal double this is a plain running product
    bit for bit; past that no prefix overflows or underflows on its own,
    and zeros stay zero.  The exponent of a product of factors near 1 stays
    near the product's own.
    """

    def __init__(self, factors: np.ndarray):
        self.factors = np.asarray(factors, dtype=float)
        self.plain = np.empty((len(self.factors) + 1,) + self.factors.shape[1:])
        self.plain[0] = 1.0
        try:
            with _plain_floats():
                np.multiply.accumulate(self.factors, axis=0, out=self.plain[1:])
        except FloatingPointError:
            self._carry_exponents()

    def _carry_exponents(self) -> None:
        """Build the mantissas and exponents, the mantissas over the plain
        prefixes, whose first entry is already 1."""
        factors = self.factors
        self.mantissas, self.plain = self.plain, None
        self.exponents = np.empty(self.mantissas.shape, dtype=np.int64)
        self.exponents[0] = 0
        mant, expo = self.mantissas[1:], self.exponents[1:]
        np.frexp(factors, out=(mant, expo))
        low = np.abs(mant) < math.sqrt(0.5)
        np.multiply(mant, 2.0, out=mant, where=low)
        expo -= low
        later = max(len(factors) - 1, 0) // PRODUCT_BLOCK     # blocks after the first
        if later:
            blocks = mant[:later * PRODUCT_BLOCK].reshape(later, PRODUCT_BLOCK, *mant.shape[1:])
            # log2 of the running product at each block's end; a zero or
            # non-finite block makes it and every later one non-finite, and
            # past that point the products are 0, inf or NaN at any scale
            with np.errstate(divide="ignore", invalid="ignore"):
                drift = np.rint(np.cumsum(np.log2(np.abs(np.multiply.reduce(blocks, 1))), 0))
                shift = -np.diff(drift, axis=0, prepend=0.0)
            shift[~np.isfinite(shift)] = 0.0
            shift = shift.astype(np.int64)
            first = mant[PRODUCT_BLOCK::PRODUCT_BLOCK]
            np.ldexp(first, shift, out=first)
            expo[PRODUCT_BLOCK::PRODUCT_BLOCK] -= shift
        np.multiply.accumulate(self.mantissas, axis=0, out=self.mantissas)
        np.add.accumulate(self.exponents, axis=0, out=self.exponents)

    @property
    def log_mode(self) -> bool:
        """Whether some finite nonzero prefix lies outside the normal doubles,
        whose frexp exponents run -1021..1024.  Plain prefixes overflowed
        none, but an exact subnormal one raises no flag."""
        if self.plain is not None:
            mags = np.abs(self.plain)
            return bool(np.any((0.0 < mags) & (mags < TINY)))
        mant = self.mantissas
        own = np.frexp(mant)[1] + self.exponents
        return bool(np.any(np.isfinite(mant) & (mant != 0.0) & ((own < -1021) | (own > 1024))))

    def prefixes(self) -> np.ndarray:
        """P[0..n], as one fresh array."""
        if self.plain is not None:
            return self.plain.copy()
        with np.errstate(over="ignore"):
            return np.ldexp(self.mantissas, self.exponents)


def exp_fn(p: GridFn1, t0: int) -> GridFn1:
    """Scale exponential e_p(t, t0) of a regressive coefficient.

    Satisfies the dynamic equation x^{delta} = p*x with x(t0) = 1: the value
    at t right of t0 is the product of 1 + mu*p over [t0, t), and left of t0
    the reciprocal of the product over [t, t0).  Each side is one running
    product outward from t0, left of t0 of the reciprocal factors.
    """
    _require_one_scale(p)
    t0 = p.scale._check_index(t0)
    factors = _require_regressive(_mu_p(p.scale.graininess, p.values)[:-1])
    vals = ProductLadder(factors[t0:]).prefixes()
    if t0:
        # no factor lies in the zero band, so every reciprocal is finite
        left = ProductLadder(1.0 / factors[:t0][::-1]).prefixes()
        vals = np.concatenate((left[:0:-1], vals))
    return _computed(p.scale, vals, "scale exponential")


def comparison_bound(x_a: float, f: GridFn1, g: GridFn1, a: int) -> GridFn1:
    """Sharp upper bound for x with x^{delta} <= f + g*x and x(a) <= x_a.

    Returns x_a * e_g(t, a) + integral over [a, t) of f(s) e_g(t, sigma(s)),
    evaluated on the sub-scale starting at a.  g must stay positively
    regressive on the window, which keeps the direction of the inequality.
    """
    _require_one_scale(f, g)
    if not math.isfinite(x_a):
        raise DomainError(f"x_a must be finite, got {x_a}")
    scale = f.scale
    a = scale._check_index(a)
    mu = scale.graininess
    window = slice(a, len(scale) - 1)  # only the window [a, n - 1) is checked
    factors = _require_regressive(_mu_p(mu, g.values, a), positive=True)[window]
    q = ProductLadder(factors).prefixes()              # q[k] = e_g(t_{a+k}, t_a)
    # a value past the float range becomes inf or NaN, which _computed names
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the weights f*mu, then their running sums, written over mu, read no more
        weighted = np.multiply(f.values[window], mu[window], out=mu[window])
        weighted /= q[1:]
        neumaier_cumsum(weighted, out=weighted)
        weighted += x_a
        q[1:] *= weighted
    q[0] = x_a
    return _computed(scale.tail(a), q, "comparison bound")
