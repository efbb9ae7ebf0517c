"""Regressivity, the scale exponential, and the first-order comparison bound."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from tscale import (DomainError, GridFn1, RegressivityError, antiderivative, circle_minus,
                    circle_plus, comparison_bound, dense_mesh, exp_fn,
                    explicit_scale, integer_segment, q_grid, regressivity)
from tscale import exponential
from tscale.exponential import _factors, _require_regressive
from tscale.witnesses import witness_comparison


def const(scale, v):
    return GridFn1(scale, np.full(len(scale), float(v)))


def test_regressivity_report_flags_zero_factor():
    s = integer_segment(0, 4)
    rep = regressivity(const(s, -1.0))  # 1 + mu*p = 0 on every gap
    assert not rep.is_regressive
    assert rep.worst_index == 0
    rep2 = regressivity(const(s, -2.0))  # factor -1: regressive, not positively
    assert rep2.is_regressive
    assert not rep2.is_positively_regressive
    rep3 = regressivity(const(s, 0.5))
    assert rep3.is_positively_regressive


def test_exp_rejects_non_regressive_coefficient():
    s = integer_segment(0, 4)
    with pytest.raises(RegressivityError, match="index 0"):
        exp_fn(const(s, -1.0), 0)


# mu*p = 10 * 1e308 at index 0 passes the float range
@pytest.mark.parametrize("call", [
    lambda p: regressivity(p),
    lambda p: circle_minus(p),
    lambda p: exp_fn(p, 0),
    lambda p: comparison_bound(1.0, const(p.scale, 1.0), p, 0),
], ids=["regressivity", "circle_minus", "exp_fn", "comparison_bound"])
def test_an_overflowing_mu_p_is_named_not_read_as_a_zero_factor(call):
    """An infinite mu*p would sit in the zero band (inf <= inf *
    REGRESSIVITY_TOL); it is named instead, with no RuntimeWarning (an error
    under this suite's filter)."""
    p = const(explicit_scale([0.0, 10.0, 20.0]), 1e308)
    with pytest.raises(DomainError, match=r"^mu\*p overflows the float range at index 0$"):
        call(p)


def test_comparison_bound_ignores_an_overflowing_mu_g_before_its_start():
    s = explicit_scale([0.0, 10.0, 11.0, 12.0])
    g = GridFn1(s, np.array([1e308, 1.0, 1.0, 1.0]))
    bound = comparison_bound(1.0, const(s, 0.0), g, 1)
    assert np.array_equal(bound.values, [1.0, 2.0, 4.0])


def test_circle_minus_past_the_float_range_names_the_operation():
    # mu*g = -(1 - 1e-11) leaves a factor near 1e-11, outside the zero
    # band, and -g / 1e-11 passes the float range
    s = explicit_scale([0.0, 1e-299, 1.0])
    g = GridFn1(s, np.array([-(1.0 - 1e-11) * 1e299, 0.0, 0.0]))
    assert regressivity(g).is_regressive
    with pytest.raises(DomainError, match="^circle minus overflowed the representable range$"):
        circle_minus(g)


def test_exp_doubling_on_integer_segment():
    s = integer_segment(0, 5)
    e = exp_fn(const(s, 1.0), 0)
    assert np.array_equal(e.values, 2.0 ** s.points)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_exp_closed_form_on_integer_segment(alpha):
    s = integer_segment(0, 12)
    e = exp_fn(const(s, alpha), 0)
    ref = (1.0 + alpha) ** s.points
    assert np.abs(e.values / ref - 1.0).max() <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_exp_closed_form_on_q_grid(alpha):
    s = q_grid(2.0, 8)
    e = exp_fn(const(s, alpha), 0)
    ref = np.cumprod(np.concatenate([[1.0], 1.0 + alpha * s.graininess[:-1]]))
    assert np.abs(e.values / ref - 1.0).max() <= 1e-12


def test_exp_solves_its_dynamic_equation():
    s = explicit_scale([0.0, 0.4, 1.0, 1.1, 3.0])
    p = GridFn1(s, np.array([0.3, -0.2, 0.8, 0.1, 0.5]))
    e = exp_fn(p, 0)
    lhs = np.diff(e.values) / s.graininess[:-1]
    rhs = p.values[:-1] * e.values[:-1]
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_exp_semigroup_identity():
    s = explicit_scale([0.0, 0.4, 1.0, 1.1, 3.0])
    p = GridFn1(s, np.array([0.3, -0.2, 0.8, 0.1, 0.5]))
    e0 = exp_fn(p, 0).values
    e2 = exp_fn(p, 2).values
    assert np.allclose(e0, e0[2] * e2, rtol=1e-13)


def test_exp_before_the_anchor_is_reciprocal():
    s = integer_segment(0, 6)
    e = exp_fn(const(s, 1.0), 3)
    assert np.allclose(e.values, 2.0 ** (s.points - 3.0), rtol=1e-13)
    assert e.values[0] == 0.125


def test_exp_of_circle_plus_is_product():
    s = explicit_scale([0.0, 0.5, 1.25, 2.0, 2.2])
    f = GridFn1(s, np.array([0.2, 1.0, -0.3, 0.7, 0.1]))
    g = GridFn1(s, np.array([0.5, -0.1, 0.4, 0.9, 0.2]))
    both = circle_plus(f, g)
    lhs = exp_fn(both, 0).values
    rhs = exp_fn(f, 0).values * exp_fn(g, 0).values
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_circle_minus_inverts_the_exponential():
    s = explicit_scale([0.0, 0.5, 1.25, 2.0, 2.2])
    g = GridFn1(s, np.array([0.5, -0.1, 0.4, 0.9, 0.2]))
    prod = exp_fn(g, 0).values * exp_fn(circle_minus(g), 0).values
    assert np.allclose(prod, 1.0, rtol=1e-12)


def test_exp_long_product_runs_outward_from_a_mid_scale_anchor():
    # prefix products from index 0 would reach 2^1200 (not representable);
    # the running products outward from the anchor stay within 2^±600
    s = integer_segment(0, 1200)
    e = exp_fn(const(s, 1.0), 600)
    assert np.array_equal(e.values, 2.0 ** np.arange(-600.0, 601.0))


def test_exp_left_of_the_anchor_past_the_normals_is_exact():
    # the reciprocal factors 1/2 run below 2^-1022, where the binary
    # exponents carry every prefix exactly
    s = integer_segment(0, 1030)
    e = exp_fn(const(s, 1.0), 1030).values
    assert e[0] == 2.0 ** -1030
    assert np.array_equal(e, 2.0 ** np.arange(-1030.0, 1.0))


def test_exp_of_a_calculus_1d_input_takes_no_exponents(monkeypatch):
    """A coefficient whose integral, 800, takes products from index 0 past
    e^800, anchored at the midpoint of that integral as the calculus-1d
    benchmark anchors it: each side stays within about e^400, so both run in
    plain floats and none calls np.frexp."""
    s = dense_mesh(0.0, 1000.0, 0.01)
    mu = np.diff(s.points)
    vals = np.random.Generator(np.random.PCG64(11)).random(len(s)) + 0.5
    vals *= 800.0 / float(np.dot(mu, vals[:-1]))
    t0 = int(np.searchsorted(np.cumsum(mu * vals[:-1]), 400.0))

    def frexp(*args, **kwargs):
        raise AssertionError("np.frexp called")

    monkeypatch.setattr(np, "frexp", frexp)
    e = exp_fn(GridFn1(s, vals), t0).values
    assert e[t0] == 1.0 and 1e-180 < e[0] < 1e-160 and 1e160 < e[-1] < 1e180


def test_comparison_bound_doubles_with_unit_coefficient():
    s = integer_segment(0, 5)
    bound = comparison_bound(1.0, const(s, 0.0), const(s, 1.0), 0)
    assert np.array_equal(bound.values, 2.0 ** s.points)


def test_comparison_bound_accumulates_pure_forcing():
    s = integer_segment(0, 5)
    bound = comparison_bound(0.0, const(s, 1.0), const(s, 0.0), 0)
    assert np.array_equal(bound.values, s.points.astype(float))


@pytest.mark.parametrize("x_a, f", [(1e308, 1.0), (0.0, 1e308)])
def test_comparison_bound_past_the_float_range_raises_domain_error(x_a, f):
    """An overflow inside the bound's arithmetic is named by DomainError, not
    let through as a RuntimeWarning (an error under this suite's filter)."""
    s = integer_segment(0, 3)
    with pytest.raises(DomainError, match="comparison bound overflowed"):
        comparison_bound(x_a, const(s, f), const(s, 1.0), 0)


def test_comparison_bound_rejects_non_positively_regressive_coefficient():
    s = integer_segment(0, 5)
    with pytest.raises(RegressivityError, match="positive regressivity"):
        comparison_bound(1.0, const(s, 0.0), const(s, -2.0), 0)


def test_comparison_bound_checks_positive_regressivity_from_the_start_only():
    s = integer_segment(0, 8)
    g = np.ones(len(s))
    g[:3] = -3.0                        # factors -2 before a = 3
    bound = comparison_bound(1.0, const(s, 0.0), GridFn1(s, g), 3)
    assert np.array_equal(bound.values, 2.0 ** np.arange(6.0))
    g = g.copy()
    g[5] = -1.0                         # factor 0 at absolute index 5
    with pytest.raises(RegressivityError, match="positive regressivity.* at index 5") as err:
        comparison_bound(1.0, const(s, 0.0), GridFn1(s, g), 3)
    assert err.value.worst_index == 5


def test_comparison_bound_matches_equality_dynamics():
    s = explicit_scale([0.0, 0.5, 1.25, 2.0, 2.2, 3.0])
    f = GridFn1(s, np.abs(np.sin(s.points)) + 0.1)
    g = GridFn1(s, 0.3 + 0.1 * s.points)
    x = witness_comparison(f, g, 2.0, 0)
    bound = comparison_bound(2.0, f, g, 0)
    assert np.abs(x.values / bound.values - 1.0).max() <= 1e-12


def test_comparison_bound_starts_mid_scale():
    s = integer_segment(0, 6)
    bound = comparison_bound(1.0, const(s, 0.0), const(s, 1.0), 2)
    assert np.array_equal(bound.scale.points, s.points[2:])
    assert np.array_equal(bound.values, 2.0 ** (bound.scale.points - 2.0))


@pytest.mark.parametrize("x_a", [math.nan, math.inf, -math.inf])
def test_comparison_pair_rejects_a_non_finite_start(x_a):
    s = integer_segment(0, 5)
    f, g = const(s, 1.0), const(s, 0.1)
    with pytest.raises(DomainError, match="x_a must be finite"):
        comparison_bound(x_a, f, g, 0)
    with pytest.raises(DomainError, match="x_a must be finite"):
        witness_comparison(f, g, x_a, 0)


@pytest.mark.parametrize("slack", [math.nan, math.inf, -0.5])
def test_witness_comparison_rejects_a_bad_slack(slack):
    s = integer_segment(0, 5)
    with pytest.raises(DomainError, match="slack must be finite and nonnegative"):
        witness_comparison(const(s, 1.0), const(s, 0.1), 1.0, 0, slack=slack)


# the step from scale index 2 has mu = 1e300 - 2
@pytest.mark.parametrize("f, g, what", [(1e200, 1.0, r"mu\*\(f - slack\)"), (1.0, 1e200, r"mu\*g")],
                         ids=["mu_f", "mu_g"])
def test_witness_comparison_names_an_overflowing_step(f, g, what):
    """A step mu*(f - slack) or mu*g past the float range is named by its
    scale index, as comparison_bound names mu*g, with no RuntimeWarning (an
    error under this suite's filter)."""
    s = explicit_scale([0.0, 1.0, 2.0, 1e300])
    with pytest.raises(DomainError, match=f"^{what} overflows the float range at index 2$"):
        witness_comparison(const(s, f), const(s, g), 1.0, 1, 0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 50))
def test_slacked_solutions_never_exceed_comparison_bound(seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    s = integer_segment(0, n)
    f = GridFn1(s, np.abs(rng.standard_normal(len(s))))
    g = GridFn1(s, np.abs(rng.standard_normal(len(s))))
    slack = float(rng.uniform(0.0, 0.5))
    x_a = float(rng.uniform(0.0, 3.0))
    x = witness_comparison(f, g, x_a, 0, slack=slack)
    bound = comparison_bound(x_a, f, g, 0)
    excess = x.values - bound.values
    assert excess.max() <= 1e-9 * (1.0 + np.abs(bound.values).max())


# -- the zero band at its edge ---------------------------------------------

def _edge_products(side: str) -> tuple[float, float]:
    """The products mu*p whose factors 1 + mu*p are the last inside and the
    first outside the zero band on one side of zero.  Near zero the factors
    take the grid of 2**-53 (above zero) or 2**-52 (below) that 1 + mu*p
    has for mu*p near -1, steps of about 2**-14 of the band, so a factor at
    the band times (1 +- 2**-20) is not representable: the nearest ones on
    each side stand in for it."""
    steps = np.arange(1, 40000)
    mu_p = -1.0 + steps * 2.0 ** -53 if side == "above" else -1.0 - steps * 2.0 ** -52
    factors, band = _factors(mu_p)
    k = np.flatnonzero(np.abs(factors) <= band)[-1]
    return float(mu_p[k]), float(mu_p[k + 1])


EDGE_PRODUCTS = {side: _edge_products(side) for side in ("above", "below")}


@pytest.mark.parametrize("side", EDGE_PRODUCTS)
def test_a_factor_at_the_band_edge_raises_inside_and_passes_outside(side):
    inside, outside = EDGE_PRODUCTS[side]
    for mu_p, within in ((inside, True), (outside, False)):
        factor, band = (float(v[0]) for v in _factors(np.array([mu_p])))
        assert (1 - 2.0 ** -13 < abs(factor) / band <= 1) if within \
            else (1 < abs(factor) / band < 1 + 2.0 ** -13)
    s = integer_segment(0, 3)                       # mu = 1, so mu*p = p
    checks = [("is not regressive", lambda p: exp_fn(p, 0))]
    if side == "above":
        checks.append(("loses positive regressivity",
                       lambda p: comparison_bound(1.0, const(s, 1.0), p, 0)))
    for kind, call in checks:
        with pytest.raises(RegressivityError, match=f"{kind}: .* at index 1$") as err:
            call(GridFn1(s, [0.5, inside, 0.25, 0.0]))
        assert (err.value.worst_index, err.value.worst_factor) == (1, 1.0 + inside)
        call(GridFn1(s, [0.5, outside, 0.25, 0.0]))
    for mu_p, within in ((inside, True), (outside, False)):
        report = regressivity(GridFn1(s, [0.5, mu_p, 0.25, 0.0]))
        assert report.is_regressive is not within
        assert report.is_positively_regressive is (side == "above" and not within)


def test_no_factor_lies_on_its_band_edge():
    """`factors <= band` and `factors < band` give the same verdicts on every
    double mu*p, and so do `|factors| <= band` and `|factors| < band`: no
    factor's magnitude equals its band.  The band is positive.  For mu*p
    outside (-2, -0.5), |1 + mu*p| >= (1 + |mu*p|) / 3 rounds to far more than
    the band (1 + |mu*p|) * 1e-12.  Inside it, 1 + mu*p is exact (Sterbenz)
    and each band is at most the one at |mu*p| = 2 (fl is monotone), so an
    equal magnitude needs |1 + mu*p| within that band: every double in that
    interval is checked here."""
    widest = float(_factors(np.array([2.0]))[1][0])
    ends = np.array([-1.0 + 2 * widest, -1.0 - 2 * widest])
    assert np.all(np.abs(1.0 + ends) > widest)
    # the bits of doubles of one sign are in the order of their magnitudes
    lo, hi = ends.view(np.int64)
    mu_p = np.arange(lo, hi + 1).view(np.float64)
    factors, band = _factors(mu_p)
    assert np.all(np.abs(factors) != band)


@st.composite
def band_edge_products(draw):
    """Products mu*p all clear of zero on one side, or mixing both sides
    with products whose factors lie within 40 grid steps of the band edge."""
    above, below = EDGE_PRODUCTS["above"][0], EDGE_PRODUCTS["below"][0]
    floats = dict(allow_nan=False, allow_infinity=False)
    clear_above, clear_below = st.floats(-0.99, 3.0, **floats), st.floats(-5.0, -1.01, **floats)
    near = st.one_of(st.integers(-40, 40).map(lambda d: above + d * 2.0 ** -53),
                     st.integers(-40, 40).map(lambda d: below - d * 2.0 ** -52))
    element = draw(st.sampled_from([clear_above, clear_below,
                                    st.one_of(near, clear_above, clear_below, st.just(0.0))]))
    return np.array(draw(st.lists(element, min_size=1, max_size=30)))


def _verdict(check, mu_p: np.ndarray, positive: bool):
    try:
        return check(mu_p.copy(), positive).view(np.uint64).tolist()
    except RegressivityError as err:
        return str(err), err.worst_index, err.worst_factor


@settings(max_examples=300, deadline=None)
@given(band_edge_products(), st.booleans())
def test_the_band_screen_agrees_with_every_band(mu_p, positive):
    """The screen against the widest band gives the verdict, the factors,
    and on failure the message, index and factor of the check that builds
    every factor's band."""
    assert _verdict(_require_regressive, mu_p, positive) == \
        _verdict(ref.require_regressive, mu_p, positive)


def test_clear_factors_build_no_bands(monkeypatch):
    """Where every factor clears the widest band on one side of zero, no
    band is built."""
    def no_bands(mu_p):
        raise AssertionError("bands built")
    monkeypatch.setattr(exponential, "_factors", no_bands)
    s = dense_mesh(0.0, 1.0, 0.01)
    exp_fn(const(s, -90.0), 50)                     # factors 0.1 and a last 1
    exp_fn(const(s, -190.0), 50)                    # factors -0.9: the last 1 is not used
    comparison_bound(1.0, const(s, 1.0), const(s, 3.0), 10)
    # the factor 1 at the maximum lies above zero, so only products taken
    # apart from it can all lie below
    assert np.array_equal(_require_regressive(np.full(5, -1.9)), 1.0 + np.full(5, -1.9))


# -- memory -----------------------------------------------------------------

def _calculus_inputs():
    """A calculus-1d-like 20 001-point mesh: a positive coefficient whose
    exponential spans about e^100, anchored at the midpoint."""
    s = dense_mesh(0.0, 1.0, 5e-5)
    rng = np.random.Generator(np.random.PCG64(20001))
    f, g, p = (GridFn1(s, rng.random(len(s)) + 0.5) for _ in range(3))
    return s, f, g, GridFn1(s, p.values * 100.0)


@pytest.mark.parametrize("call, budget", [
    (lambda s, f, g, p: antiderivative(f, len(s) // 3, 0.5), 24),
    (lambda s, f, g, p: comparison_bound(1.5, f, g, 10), 40),
    (lambda s, f, g, p: exp_fn(p, len(s) // 2), 28),
], ids=["antiderivative", "comparison_bound", "exp_fn"])
def test_one_variable_calls_keep_to_their_scratch_budget(call, budget):
    """Peak traced bytes per point of one call, its result included: the
    sums take chunk-sized scratch and the exact screen builds no bands."""
    inputs = _calculus_inputs()
    call(*inputs)
    tracemalloc.start()
    try:
        call(*inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(inputs[0]) <= budget
