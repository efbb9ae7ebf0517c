"""Scales, grid functions, delta derivative, Cauchy integral."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscale import (DomainError, GridFn1, ScaleMismatchError, TimeScale, TimeScale2D,
                    TscaleError, core,
                    antiderivative, cauchy_integral, circle_minus, circle_plus, comparison_bound,
                    delta_derivative, dense_mesh, exp_fn, explicit_scale, h_grid,
                    integer_segment, q_grid, regressivity, union_scales,
                    witness_comparison)
import references as ref
from tscale.core import _two_sum_error, exact_sum, neumaier_cumsum


def test_sigma_steps_forward_and_stops_at_max():
    s = integer_segment(0, 3)
    assert s.points[s.sigma(1)] == 2
    assert s.sigma(3) == 3


def test_rho_steps_backward_and_stops_at_min():
    s = integer_segment(0, 3)
    assert s.rho(0) == 0
    assert s.points[s.rho(2)] == 1


def test_graininess_on_geometric_scale():
    s = explicit_scale([1.0, 2.0, 4.0, 8.0])
    assert s.mu(0) == 1.0
    assert s.mu(2) == 4.0
    assert s.mu(3) == 0.0
    assert np.array_equal(s.graininess, [1.0, 2.0, 4.0, 0.0])


def test_points_must_strictly_increase():
    with pytest.raises(DomainError):
        explicit_scale([0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        explicit_scale([0.0, 2.0, 1.0])


def test_points_are_read_only():
    s = integer_segment(0, 3)
    with pytest.raises(ValueError):
        s.points[0] = 5.0


def test_h_grid_snaps_the_endpoint():
    s = h_grid(0.0, 1.0, 0.25)
    assert len(s) == 5
    assert s.points[-1] == 1.0
    # step not dividing the span: endpoint still appended exactly once
    s2 = h_grid(0.0, 1.0, 0.6)
    assert s2.points[-1] == 1.0
    assert np.all(np.diff(s2.points) > 0)


def test_h_grid_merges_a_sliver_and_takes_back_an_overshoot():
    """A last full step that ends within a millionth of h of end, short of it
    or past it, is snapped onto end: no sliver step, no step past end."""
    s = h_grid(0.0, 1.0, 0.099999999)
    assert len(s) == 11 and s.points[-1] == 1.0
    assert np.diff(s.points).min() > 0.0999999
    s2 = h_grid(-10.0, 0.0, 10.000000005)
    assert s2.points.tolist() == [-10.0, 0.0]
    # farther than that from end, end is appended after the last full step
    s3 = h_grid(0.0, 1.0, 0.0999)
    assert len(s3) == 12 and s3.points[-1] == 1.0
    # a span shorter than one step keeps its start
    assert h_grid(0.0, 1e-7, 1.0).points.tolist() == [0.0, 1e-7]


def test_q_grid_points_and_errors():
    s = q_grid(2.0, 3)
    assert np.array_equal(s.points, [1.0, 2.0, 4.0, 8.0])
    with pytest.raises(DomainError, match="q must exceed 1"):
        q_grid(1.0, 3)


# Constructor arguments: any float (huge, tiny, subnormal, NaN, +-inf and
# non-whole ones among them), the float range's edges, and small integers.
NUMBERS = st.one_of(st.floats(), st.integers(-50, 50),
                    st.sampled_from([1e308, -1e308, 1e-300, 5e-324, 2.5, math.nan, math.inf]))


def explicit_union(a, b):
    return union_scales(explicit_scale(a), explicit_scale(b))


CALLS = st.one_of(
    *(st.tuples(st.just(make), st.tuples(*[NUMBERS] * arity))
      for make, arity in ((integer_segment, 2), (h_grid, 3), (dense_mesh, 3), (q_grid, 2))),
    st.tuples(st.just(explicit_scale), st.tuples(st.lists(NUMBERS, max_size=6))),
    st.tuples(st.just(explicit_union),
              st.tuples(*[st.lists(NUMBERS, min_size=1, max_size=4, unique=True).map(sorted)] * 2)))


@settings(max_examples=400, deadline=None)
@given(CALLS)
@example((h_grid, (-1e308, 1e308, 1e307)))
@example((h_grid, (0, math.inf, 1)))
@example((h_grid, (0, 1, math.nan)))
@example((h_grid, (math.nan, 1, 0.1)))
@example((q_grid, (2, 1100)))
@example((q_grid, (1e308, 3)))
@example((integer_segment, (0, 10 ** 16)))
@example((q_grid, (1.5, 10 ** 12)))
@example((explicit_scale, ([-1e308, 0, 1e308],)))
@example((explicit_union, ([-1e308, -9e307], [9e307, 1e308])))
def test_constructors_return_a_scale_or_raise_a_tscale_error(call):
    """Each constructor checks its numbers before it allocates: it returns a
    finite, strictly increasing scale within the float range and the point
    limit, or raises TscaleError, and warns nothing."""
    make, args = call
    with mock.patch.object(core, "MAX_LATTICE_POINTS", 10 ** 4):
        try:
            s = make(*args)
        except TscaleError:
            return
    pts = s.points
    assert isinstance(s, TimeScale) and len(pts) <= 10 ** 4
    assert math.isfinite(float(pts[-1]) - float(pts[0])) and np.all(pts[1:] > pts[:-1])


def test_locate_names_the_missing_point():
    s = integer_segment(0, 5)
    assert s.locate(3.0) == 3
    with pytest.raises(DomainError, match="4.5 is not a point"):
        s.locate(4.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_locate_rejects_a_non_finite_value(value):
    with pytest.raises(DomainError, match=f"^{value} is not a point of the scale$"):
        integer_segment(0, 5).locate(value)


def test_a_step_past_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="^a scale from -1e[+]308 to 1e[+]308 leaves the float range$"):
        TimeScale(np.array([-1e308, 1e308]))
    with pytest.raises(DomainError, match="^time scale points must be strictly increasing$"):
        TimeScale(np.array([1e308, -1e308]))


def test_a_scale_is_the_same_as_itself_without_comparing_points(monkeypatch):
    s, s2 = integer_segment(0, 3), q_grid(2.0, 2)
    d = TimeScale2D(s, s2)

    def array_equal(*args):
        raise AssertionError("np.array_equal called")

    monkeypatch.setattr(np, "array_equal", array_equal)
    assert s.same_points(s) and d.same_points(d) and TimeScale2D(s, s2).same_points(d)
    f = GridFn1(s, np.ones(4))
    comparison_bound(1.0, f, GridFn1(s, np.zeros(4)), 0)
    with pytest.raises(AssertionError, match="np.array_equal called"):
        s.same_points(integer_segment(0, 3))


def test_union_merges_and_deduplicates():
    a = integer_segment(0, 3)
    b = explicit_scale([0.5, 1.0, 2.5])
    u = union_scales(a, b)
    assert np.array_equal(u.points, [0.0, 0.5, 1.0, 2.0, 2.5, 3.0])


def test_union_keeps_dense_tags():
    a = dense_mesh(0.0, 1.0, 0.5)
    b = explicit_scale([0.25, 0.5])
    u = union_scales(a, b)
    assert bool(u.dense[list(u.points).index(0.5)])


@pytest.mark.parametrize("scale", [integer_segment(0, 1), dense_mesh(0.0, 1.0, 0.25),
                                   explicit_scale([-2.0, 0.5, 1.0, 7.0], [True, False, True, True])])
def test_kappa_and_tail_are_read_only_windows_of_the_scale(scale):
    n = len(scale)
    for got, end in [(scale.kappa(), n - 1)] + [(scale.tail(a), (a, n)) for a in range(n)]:
        part = slice(*end) if isinstance(end, tuple) else slice(end)
        want = TimeScale(scale.points[part], scale.dense[part])
        assert isinstance(got, TimeScale) and len(got) == len(want)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.dense.tobytes() == want.dense.tobytes()
        for arr in (got.points, got.dense):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def test_kappa_and_tail_keep_their_errors():
    with pytest.raises(DomainError, match="^kappa needs at least two points$"):
        explicit_scale([3.0]).kappa()
    s = integer_segment(0, 3)
    for a in (-1, 4):
        with pytest.raises(DomainError, match=f"^index {a} outside scale of 4 points$"):
            s.tail(a)


def test_delta_derivative_is_forward_difference():
    s = integer_segment(0, 4)
    f = GridFn1(s, s.points ** 2)
    d = delta_derivative(f)
    assert np.array_equal(d.values, [1.0, 3.0, 5.0, 7.0])
    assert len(d.scale) == len(s) - 1


def test_delta_derivative_tracks_classical_on_dense_mesh():
    h = 1e-3
    s = dense_mesh(0.0, 1.0, h)
    f = GridFn1.from_function(s, math.sin)
    d = delta_derivative(f)
    ref = np.cos(d.scale.points)
    assert np.abs(d.values - ref).max() <= h


def test_delta_product_rule():
    s = explicit_scale([0.0, 0.5, 1.5, 2.0, 4.0])
    f = GridFn1(s, s.points ** 2)
    g = GridFn1(s, 1.0 + s.points)
    lhs = delta_derivative(GridFn1(s, f.values * g.values)).values
    fd = delta_derivative(f).values
    gd = delta_derivative(g).values
    f_sigma = f.values[[s.sigma(i) for i in range(len(s) - 1)]]
    rhs = fd * g.values[:-1] + f_sigma * gd
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_integral_of_identity_on_integer_segment():
    s = integer_segment(0, 5)
    f = GridFn1(s, s.points.astype(float))
    assert cauchy_integral(f, 0, 4) == 6.0


def test_integral_on_geometric_scale():
    s = q_grid(2.0, 2)  # 1, 2, 4
    f = GridFn1(s, s.points.astype(float))
    assert cauchy_integral(f, 0, 2) == 5.0


def test_integral_empty_and_reversed():
    s = integer_segment(0, 5)
    f = GridFn1(s, np.ones(6))
    assert cauchy_integral(f, 2, 2) == 0.0
    with pytest.raises(DomainError, match="reversed"):
        cauchy_integral(f, 3, 1)


def test_integral_is_additive_over_adjacent_windows():
    s = explicit_scale([0.0, 0.3, 1.0, 2.5, 3.0, 7.0])
    f = GridFn1(s, np.cos(s.points))
    whole = cauchy_integral(f, 0, 5)
    split = cauchy_integral(f, 0, 2) + cauchy_integral(f, 2, 5)
    assert math.isclose(whole, split, rel_tol=1e-14, abs_tol=1e-14)


@st.composite
def summands(draw):
    """0 to 2000 doubles: drawn ones, subnormals, magnitudes spread over
    2**+-1000 and signed zeros, with some of them cancelled by their
    negatives, in a drawn order.  Sums stay below 2**1012, where math.fsum
    never overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    head = draw(st.lists(st.floats(-2.0 ** 1000, 2.0 ** 1000), max_size=20))
    kinds = rng.integers(0, 4, draw(st.integers(0, 2000 - len(head))))
    subnormal = rng.integers(-2 ** 52, 2 ** 52, len(kinds)) * 2.0 ** -1074
    spread = rng.uniform(-1.0, 1.0, len(kinds)) * 2.0 ** rng.integers(-1000, 1001, len(kinds))
    zero = np.where(rng.random(len(kinds)) < 0.5, 0.0, -0.0)
    vals = np.concatenate((head, np.choose(kinds, (subnormal, spread, zero, spread * 1e-300))))
    pairs = vals[:draw(st.integers(0, len(vals)))]
    vals = np.concatenate((vals, -pairs))
    return vals[rng.permutation(len(vals))] if draw(st.booleans()) else vals


@settings(max_examples=200, deadline=None)
@given(summands())
def test_exact_sum_has_the_bits_of_fsum(vals):
    assert exact_sum(vals).hex() == math.fsum(vals).hex()


@pytest.mark.parametrize("vals", [[], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0],
                                  [5e-324, -5e-324], [1.0, -1.0], [-2.5, 1e-320],
                                  # high limbs cancel in their bin, low limbs leave 1
                                  [1.0, 1.0, -(2.0 - 2.0 ** -52)]])
def test_exact_sum_of_zeros_and_cancellations(vals):
    assert exact_sum(np.array(vals)).hex() == math.fsum(vals).hex()


@st.composite
def summands_near_the_top(draw):
    """1 to 200 doubles of either sign within 2**1010..2**1024, some of them
    cancelled by their negatives, among subnormals and signed zeros: partial
    sums pass the float range, and so do some totals."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 200))
    big = rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(1010, 1024, n).astype(float)
    big[rng.random(n) < draw(st.floats(0.0, 1.0))] *= -1.0
    small = rng.integers(-2 ** 52, 2 ** 52, n) * 2.0 ** -1074
    small[rng.random(n) < 0.3] = -0.0
    vals = np.where(rng.random(n) < 0.8, big, small)
    vals = np.concatenate((vals, -vals[:draw(st.integers(0, n))]))
    return vals[rng.permutation(len(vals))]


@settings(max_examples=200, deadline=None)
@given(summands_near_the_top())
def test_exact_sum_near_the_top_has_the_bits_of_the_frexp_sum(vals):
    """Significands read from the bits sum to the frexp significands' bits,
    where math.fsum's partial sums overflow too, and leave the float range
    where those do."""
    try:
        want = ref.exact_sum_frexp(vals)
    except ValueError:
        with pytest.raises(DomainError, match="float range"):
            exact_sum(vals)
    else:
        assert exact_sum(vals).hex() == want.hex()


def test_exact_sum_past_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        exact_sum([1e308] * 3)
    with pytest.raises(DomainError, match="float range"):
        exact_sum([-1e308, -1e308])
    with pytest.raises(DomainError, match="float range"):
        exact_sum([math.inf, -math.inf])
    # the largest double plus half its ulp rounds to 2**1024; a hair less rounds down
    top = float.fromhex("0x1.fffffffffffffp+1023")
    with pytest.raises(DomainError):
        exact_sum([top, 2.0 ** 970])
    assert exact_sum([top, 2.0 ** 970, -2.0 ** -1074]) == top
    for vals in ([math.inf, 1.0], [math.nan], [math.inf, 1e308, 1e308]):
        with pytest.raises(DomainError, match="float range"):
            exact_sum(vals)


def test_integral_is_exact_where_fsum_overflows_and_raises_past_the_range():
    vals = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(vals)
    assert exact_sum(vals) == 1e308
    f = GridFn1(integer_segment(0, 3), vals + [0.0])
    assert cauchy_integral(f, 0, 3) == 1e308
    with pytest.raises(DomainError, match="float range"):
        cauchy_integral(GridFn1(integer_segment(0, 3), np.full(4, 1e308)), 0, 3)
    # steps of 9 and 90 take each term f * mu past the range
    with pytest.raises(DomainError, match="float range"):
        cauchy_integral(GridFn1(q_grid(10.0, 2), np.full(3, 1e308)), 0, 2)


def test_antiderivative_anchors_and_differentiates_back():
    s = integer_segment(0, 5)
    f = GridFn1(s, s.points.astype(float))
    big_f = antiderivative(f, 0)
    assert big_f.values[0] == 0.0
    assert big_f.values[4] == 6.0
    d = delta_derivative(big_f)
    assert np.array_equal(d.values, f.values[:-1])


@pytest.mark.parametrize("values, call, message", [
    ([1e308, -1e308, 1e308], lambda f: delta_derivative(f), "delta derivative"),
    ([1e308, 1e308, 1e308], lambda f: antiderivative(f, 0), "antiderivative"),
    ([1e308, 1e308, 1e308], lambda f: antiderivative(f, 2), "antiderivative"),
    ([-1e308, 1.0, 1.0], lambda f: antiderivative(f, 2, x0=1e308), "antiderivative"),
    ([1e308, 1e308, 1.0], lambda f: witness_comparison(f, f, 1e308, 0), "comparison witness"),
])
def test_calculus_past_the_float_range_names_the_operation(values, call, message):
    # under the suite's error::RuntimeWarning filter a numpy warning would fail first
    with pytest.raises(DomainError, match=f"^{message} overflowed the representable range$"):
        call(GridFn1(integer_segment(0, 2), values))


def test_antiderivative_needs_a_finite_start():
    f = GridFn1(integer_segment(0, 2), [1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="x0 must be finite"):
        antiderivative(f, 1, x0=math.inf)


def test_antiderivative_backward_from_interior_anchor():
    s = explicit_scale([0.0, 1.0, 1.5, 4.0, 5.0])
    f = GridFn1(s, 2.0 + np.sin(s.points))
    big_f = antiderivative(f, 3, x0=2.0)
    assert big_f.values[3] == 2.0
    for k in range(len(s)):
        lo, hi = min(k, 3), max(k, 3)
        seg = cauchy_integral(f, lo, hi)
        expect = 2.0 - seg if k < 3 else 2.0 + seg
        assert math.isclose(big_f.values[k], expect, rel_tol=1e-13, abs_tol=1e-13)


def test_grid_fn_shape_and_finiteness_checks():
    s = integer_segment(0, 3)
    with pytest.raises(DomainError):
        GridFn1(s, np.ones(3))
    with pytest.raises(DomainError):
        GridFn1(s, np.array([0.0, 1.0, np.nan, 2.0]))


def test_neumaier_cumsum_matches_fsum_prefixes():
    vals = [1e16, 1.0, -1e16, 0.5, 1e-3, 7.0]
    out = neumaier_cumsum(vals)
    for k in range(len(vals)):
        assert out[k] == pytest.approx(math.fsum(vals[:k + 1]), abs=1e-12)


# Any double but NaN: signed zeros, subnormals, the largest finite values
# and the infinities.
DOUBLES = st.floats(allow_nan=False)


@st.composite
def addend_pairs(draw):
    """(a, b) with b any double, or a times a power of two out to 2**+-80,
    so the pair's magnitudes spread past the 2**53 a double resolves."""
    a = draw(DOUBLES)
    if draw(st.booleans()):
        return a, draw(DOUBLES)
    with np.errstate(over="ignore"):
        b = a * 2.0 ** draw(st.integers(-80, 80)) * draw(st.floats(-2.0, 2.0))
    return a, float(b)


@settings(max_examples=300, deadline=None)
@given(st.lists(addend_pairs(), min_size=1, max_size=40))
def test_two_sum_error_keeps_the_branching_forms_bits(pairs):
    """Knuth's branch-free TwoSum gives the exact error of fl(a + b) with the
    bits of the branching Neumaier form, signed zeros included, wherever the
    sum is finite; where it is not, both forms are non-finite, and NaN
    wherever either form is."""
    a, b = (np.array(x) for x in zip(*pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        s = a + b
        new, old = _two_sum_error(a, b, s), ref.two_sum_error(a, b, s)
    finite = np.isfinite(s)
    assert new[finite].tobytes() == old[finite].tobytes()
    assert not np.any(np.isfinite(new[~finite]) | np.isfinite(old[~finite]))
    assert np.array_equal(np.isnan(new) | np.isnan(old), np.isnan(new))


def test_two_sum_error_on_signed_zeros_and_subnormals():
    tiny = 5e-324
    a = np.array([0.0, -0.0, 0.0, -0.0, tiny, -tiny, tiny, 2.0 ** 60, 1.0, 2.0 ** -1022])
    b = np.array([0.0, -0.0, -0.0, 0.0, -tiny, tiny, tiny, 1.0, 2.0 ** -60, -tiny])
    s = a + b
    assert _two_sum_error(a, b, s).tobytes() == ref.two_sum_error(a, b, s).tobytes()
    assert _two_sum_error(a, b, s)[7:9].tolist() == [1.0, 2.0 ** -60]


@st.composite
def small_scale(draw):
    # hundredths keep graininess bounded away from zero, so quotients of
    # nearly equal floats cannot blow up the round-trip error
    ticks = draw(st.lists(st.integers(-5000, 5000),
                          min_size=2, max_size=12, unique=True))
    return explicit_scale(np.array(sorted(ticks)) / 100.0)


@settings(max_examples=60, deadline=None)
@given(small_scale(), st.integers(0, 3))
def test_fundamental_theorem_forward(scale, deg):
    coeffs = np.arange(1.0, deg + 2.0)
    f = GridFn1(scale, np.polyval(coeffs, scale.points))
    big_f = antiderivative(f, 0)
    d = delta_derivative(big_f)
    tol = 1e-12 * (1.0 + np.abs(f.values[:-1]).max())
    assert np.abs(d.values - f.values[:-1]).max() <= tol


@settings(max_examples=60, deadline=None)
@given(small_scale())
def test_integral_linearity(scale):
    f = GridFn1(scale, np.sin(scale.points))
    g = GridFn1(scale, scale.points ** 2 / 10.0)
    combo = GridFn1(scale, 2.0 * f.values + 3.0 * g.values)
    a, b = 0, len(scale) - 1
    lhs = cauchy_integral(combo, a, b)
    rhs = 2.0 * cauchy_integral(f, a, b) + 3.0 * cauchy_integral(g, a, b)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 3))
def test_round_trip_on_integer_segments(n, deg):
    s = integer_segment(0, n)
    coeffs = np.arange(1.0, deg + 2.0)
    f = GridFn1(s, np.polyval(coeffs, s.points))
    back = antiderivative(delta_derivative(f), 0, x0=f.values[0])
    tol = 1e-12 * (1.0 + np.abs(f.values[:-1]).max())
    assert np.abs(back.values - f.values[:-1]).max() <= tol


# Every public 1-D call that takes a GridFn1, as a function of its grid functions.
ONE_D_CALLS = {
    "delta_derivative": lambda f: delta_derivative(f),
    "cauchy_integral": lambda f: cauchy_integral(f, 0, 1),
    "antiderivative": lambda f: antiderivative(f, 0),
    "regressivity": lambda f: regressivity(f),
    "circle_plus": lambda f, g: circle_plus(f, g),
    "circle_minus": lambda f: circle_minus(f),
    "exp_fn": lambda f: exp_fn(f, 0),
    "comparison_bound": lambda f, g: comparison_bound(1.0, f, g, 0),
    "witness_comparison": lambda f, g: witness_comparison(f, g, 1.0, 0),
}


@pytest.mark.parametrize("call", ONE_D_CALLS)
def test_the_1d_calculus_takes_one_instance(call):
    """A stacked GridFn1, shape (count, n), serves the two-variable bound code
    only: each 1-D call rejects it in any argument, where it used to mix its
    instances up (cauchy_integral of five instances of ones over (0, 1) gave
    4.0, exp_fn of two ran its product down the instance axis)."""
    fn = ONE_D_CALLS[call]
    s = integer_segment(0, 3)
    one = GridFn1(s, np.full(4, 0.1))
    fn(*[one] * fn.__code__.co_argcount)
    for count in (1, 2, 5):
        for k in range(fn.__code__.co_argcount):
            args = [one] * fn.__code__.co_argcount
            args[k] = GridFn1(s, np.full((count, 4), 0.1))
            with pytest.raises(ScaleMismatchError, match="one instance, not a stack"):
                fn(*args)
