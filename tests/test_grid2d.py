"""Product scales: partial deltas, double integrals, Darboux sums, kernels."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscale import (ConfigError, DomainError, FnSpec, GridFn1, GridFn2, KernelOracle,
                    RectPartition, ScaleMismatchError, TimeScale2D, cauchy_integral, darboux_sums,
                    double_integral, explicit_scale, integer_segment,
                    mixed_partial, partial_delta, q_grid, realize_kernel,
                    running_double_integral, running_integral)
from tscale import grid2d


def zz(n1=3, n2=3):
    return TimeScale2D(integer_segment(0, n1), integer_segment(0, n2))


def product_fn(domain, fn):
    return GridFn2.from_function(domain, fn)


def test_partial_delta_of_product():
    d = zz()
    f = product_fn(d, lambda a, b: a * b)
    d1 = partial_delta(f, 1)
    # ((t1+1) t2 - t1 t2) / 1 = t2
    expect = np.broadcast_to(d.scale2.points, (3, 4))
    assert np.array_equal(d1.values, expect)
    d2 = partial_delta(f, 2)
    assert np.array_equal(d2.values, np.broadcast_to(d.scale1.points[:, None], (4, 3)))


def test_partial_delta_rejects_other_axes():
    d = zz()
    f = GridFn2.constant(d, 1.0)
    with pytest.raises(DomainError, match="axis must be 1 or 2"):
        partial_delta(f, 3)


def test_mixed_partial_of_quadratic():
    d = zz()
    f = product_fn(d, lambda a, b: a * a * b)
    m = mixed_partial(f)
    # delta_1 gives (2 t1 + 1) t2, then delta_2 strips t2
    expect = (2.0 * d.scale1.points[:-1] + 1.0)[:, None] * np.ones(3)
    assert np.array_equal(m.values, expect)


def test_mixed_partial_commutes():
    d = TimeScale2D(explicit_scale([0.0, 0.7, 1.0, 2.5]),
                    explicit_scale([0.0, 1.0, 1.25, 3.0]))
    f = product_fn(d, lambda a, b: math.sin(a) * math.exp(0.3 * b) + a * a)
    one_two = partial_delta(partial_delta(f, 1), 2)
    two_one = partial_delta(partial_delta(f, 2), 1)
    assert np.allclose(one_two.values, two_one.values, rtol=1e-12, atol=1e-12)


def test_double_integral_of_constant_is_the_area():
    d = zz()
    f = GridFn2.constant(d, 1.0)
    assert double_integral(f, (0, 2, 0, 3)) == 6.0
    assert double_integral(f, (0, 3, 0, 3)) == 9.0
    assert double_integral(f, (1, 1, 0, 3)) == 0.0


def test_double_integral_left_endpoint_rule():
    d = zz()
    f = product_fn(d, lambda a, b: a + b)
    # sum over i,j in {0,1}: (i + j) = 0 + 1 + 1 + 2
    assert double_integral(f, (0, 2, 0, 2)) == 4.0


def test_double_integral_validates_the_rectangle():
    d = zz()
    f = GridFn2.constant(d, 1.0)
    with pytest.raises(DomainError):
        double_integral(f, (2, 1, 0, 3))
    with pytest.raises(DomainError):
        double_integral(f, (0, 4, 0, 3))


def test_double_integral_past_the_float_range_is_a_domain_error():
    d = zz()
    with pytest.raises(DomainError, match="float range"):
        double_integral(GridFn2.constant(d, 1e308), (0, 3, 0, 3))
    # on steps of 9 and 90 every term f * mu1 * mu2 is past the range
    q = TimeScale2D(q_grid(10.0, 2), q_grid(10.0, 2))
    with pytest.raises(DomainError, match="float range"):
        double_integral(GridFn2.constant(q, 1e308), (0, 2, 0, 2))
    # fsum's partial sums overflow on the first two cells, the exact sum does not
    vals = np.zeros(d.shape)
    vals[0, :3] = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(vals[0, :3])
    assert double_integral(GridFn2(d, vals), (0, 3, 0, 3)) == 1e308


def test_double_integral_matches_iterated_integrals():
    d = TimeScale2D(q_grid(2.0, 3), explicit_scale([0.0, 0.5, 2.0, 3.0]))
    f = product_fn(d, lambda a, b: a * b + 1.0)
    whole = double_integral(f, (0, 3, 0, 3))
    rows = GridFn1(d.scale1, np.array([
        cauchy_integral(GridFn1(d.scale2, f.values[i]), 0, 3)
        for i in range(4)]))
    iterated = cauchy_integral(rows, 0, 3)
    assert math.isclose(whole, iterated, rel_tol=1e-13)
    cols = GridFn1(d.scale2, np.array([
        cauchy_integral(GridFn1(d.scale1, f.values[:, j]), 0, 3)
        for j in range(4)]))
    swapped = cauchy_integral(cols, 0, 3)
    assert math.isclose(whole, swapped, rel_tol=1e-12)


def test_running_integral_accumulates_from_the_origin():
    d = zz()
    f = GridFn2.constant(d, 1.0)
    r1 = running_integral(f, 1)
    assert np.array_equal(r1.values, np.broadcast_to(d.scale1.points[:, None], (4, 4)))
    r2 = running_integral(f, 2)
    assert np.array_equal(r2.values, np.broadcast_to(d.scale2.points, (4, 4)))
    rr = running_double_integral(f)
    assert np.array_equal(rr.values, np.outer(d.scale1.points, d.scale2.points))
    assert rr.values[0, 3] == 0.0 and rr.values[3, 0] == 0.0


def test_running_double_integral_matches_rectangles():
    d = TimeScale2D(explicit_scale([0.0, 0.5, 2.0]), q_grid(2.0, 2))
    f = product_fn(d, lambda a, b: a + 2.0 * b)
    rr = running_double_integral(f)
    for i in range(3):
        for j in range(3):
            assert math.isclose(rr.values[i, j], double_integral(f, (0, i, 0, j)),
                                rel_tol=1e-13, abs_tol=1e-13)


def test_darboux_single_cell_brackets_the_integral():
    d = zz(2, 2)
    f = product_fn(d, lambda a, b: a + b)
    part = RectPartition((0, 2), (0, 2))
    upper, lower = darboux_sums(f, part)
    assert upper == 8.0   # sup over {0,1}^2 is 2, weight 4
    assert lower == 0.0


def test_darboux_finest_partition_is_exact():
    d = TimeScale2D(explicit_scale([0.0, 0.5, 2.0, 2.5]), q_grid(2.0, 3))
    f = product_fn(d, lambda a, b: math.cos(a) * b + 2.0)
    part = RectPartition.finest(d)
    upper, lower = darboux_sums(f, part)
    ref = double_integral(f, (0, 3, 0, 3))
    assert math.isclose(upper, ref, rel_tol=1e-13)
    assert math.isclose(lower, ref, rel_tol=1e-13)


def test_darboux_refinement_tightens_both_sums():
    d = zz(5, 5)
    rng = np.random.Generator(np.random.PCG64(5))
    f = GridFn2(d, rng.uniform(0.0, 4.0, d.shape))
    coarse = RectPartition((0, 5), (0, 2, 5))
    fine = coarse.refine(RectPartition((0, 3, 5), (0, 1, 2, 4, 5)))
    u_c, l_c = darboux_sums(f, coarse)
    u_f, l_f = darboux_sums(f, fine)
    ref = double_integral(f, (0, 5, 0, 5))
    assert l_c <= l_f <= ref <= u_f <= u_c


def test_double_integral_and_darboux_sums_take_one_instance():
    """Both slice the lattice from the front, so a stack would be cut along
    its instance axis: five instances of ones gave 4.0 over one cell."""
    d = zz()
    ones = GridFn2(d, np.ones(d.shape))
    for count in (1, 2, 5):
        stack = GridFn2(d, np.ones((count, *d.shape)))
        with pytest.raises(ScaleMismatchError, match="takes one instance, not a stack"):
            double_integral(stack, (0, 1, 0, 1))
        with pytest.raises(ScaleMismatchError, match="takes one instance, not a stack"):
            darboux_sums(stack, RectPartition.finest(d))
    assert double_integral(ones, (0, 1, 0, 1)) == 1.0
    assert darboux_sums(ones, RectPartition.finest(d)) == (9.0, 9.0)


def test_instances_of_one_grid_function_is_itself():
    d = zz()
    ones = GridFn2(d, np.ones(d.shape))
    assert ones.instances() == [ones] and ones.instances()[0] is ones
    stack = GridFn2(d, np.arange(2.0 * 16).reshape(2, *d.shape))
    parts = stack.instances()
    assert [p.values.shape for p in parts] == [d.shape] * 2
    assert all(np.shares_memory(p.values, stack.values) for p in parts)


def test_rect_partition_validates_cuts():
    d = zz()
    f = GridFn2.constant(d, 1.0)
    with pytest.raises(DomainError):
        RectPartition((0,), (0, 3))
    with pytest.raises(DomainError):
        RectPartition((0, 0, 3), (0, 3))
    with pytest.raises(DomainError):
        darboux_sums(f, RectPartition((0, 2), (0, 3)))  # must span to the last index


def test_kernel_oracle_table_and_pointwise_agree():
    d = zz(2, 2)
    ko = KernelOracle.from_point_function(
        d, lambda t1, t2, s1, s2: t1 + 2.0 * t2 + 3.0 * s1 + 4.0 * s2)
    table = ko.table()
    assert table is not None
    assert table.shape == (3, 3, 3, 3)
    assert ko.eval(2, 1, 0, 2) == 2.0 + 2.0 + 0.0 + 8.0
    assert table[2, 1, 0, 2] == ko.eval(2, 1, 0, 2)
    same = KernelOracle.from_table(d, table)
    assert same.eval(1, 1, 1, 1) == ko.eval(1, 1, 1, 1)


def test_kernel_oracle_validates_table_shape():
    d = zz(2, 2)
    with pytest.raises(DomainError):
        KernelOracle.from_table(d, np.zeros((3, 3, 3)))


def test_kernel_oracle_constant():
    d = zz(2, 2)
    ko = KernelOracle.constant(d, 2.5)
    assert ko.eval(0, 0, 2, 2) == 2.5


def test_kernel_table_over_budget_raises_before_allocating(monkeypatch):
    """A dense kernel counts its table; a factored one of several terms its
    factors plus four row slabs; a one-term kernel its factors alone.  Each
    builder raises just over its own count, before it draws or allocates
    anything as large as one factor."""
    d = zz(29, 29)    # a 30x30 lattice: a 6.5 MB table, a 216 kB row slab
    table = np.zeros(d.shape * 2)
    one_term = 8 * 2 * 900
    calls = []

    def fn(t1, t2, s1, s2):
        calls.append(1)
        return t1 + s2

    ones, twos = np.ones((1, *d.shape)), np.ones((2, *d.shape))
    # made before tracing: a process's first generator imports about 1 MB
    rng = np.random.default_rng(0)
    builders = [
        (table.nbytes, lambda: KernelOracle.from_point_function(d, fn)),
        (table.nbytes, lambda: KernelOracle.from_table(d, table)),
        (8 * (2 * 2 * 900 + 4 * 30 ** 3), lambda: KernelOracle.separable(d, twos, twos)),
        (one_term, lambda: KernelOracle.constant(d, 1.0)),
        (one_term, lambda: KernelOracle.separable(d, ones, ones)),
        (one_term, lambda: realize_kernel(FnSpec("constant", value=1.0), d)),
        (one_term, lambda: realize_kernel(FnSpec("affine_product", params=(1.0,) * 7), d)),
        (one_term, lambda: realize_kernel(FnSpec("any"), d, rng)),
    ]
    tracemalloc.start()
    try:
        for need, build in builders:
            monkeypatch.setattr(grid2d, "MAX_KERNEL_TABLE_BYTES", need - 1)
            with pytest.raises(ConfigError, match="MAX_KERNEL_TABLE_BYTES"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 900
    assert not calls
    for need, build in builders:
        monkeypatch.setattr(grid2d, "MAX_KERNEL_TABLE_BYTES", need)
        assert build().domain is d


def test_one_term_kernel_budget_counts_its_factors_alone():
    # no one-term path builds a row slab, so a 1000x1000 config kernel needs
    # 16 MB of factors, not the 8 GB slab a two-term kernel sweeps
    big = TimeScale2D(integer_segment(0, 999), integer_segment(0, 999))
    grid2d.check_kernel_budget(big, rank=1)
    with pytest.raises(ConfigError, match="factors and row slab"):
        grid2d.check_kernel_budget(big, rank=2)
    with pytest.raises(ConfigError, match="bytes of table"):
        grid2d.check_kernel_budget(big)
    kernel = realize_kernel(FnSpec("affine_product", params=(1.0,) * 7), big)
    assert kernel.factors[0].shape == (1, 1000, 1000)
    side = math.isqrt(grid2d.MAX_KERNEL_TABLE_BYTES // 16)
    square = TimeScale2D(integer_segment(0, side - 1), integer_segment(0, side - 1))
    grid2d.check_kernel_budget(square, rank=1)
    with pytest.raises(ConfigError, match=f"needs {16 * side * (side + 1)} bytes of factors"):
        grid2d.check_kernel_budget(TimeScale2D(square.scale1, integer_segment(0, side)), rank=1)


def test_multi_term_budget_counts_what_the_hypothesis_sweep_holds(monkeypatch):
    # the sweep of a two-term 40x40 kernel holds more than its factors and
    # three row slabs, and the budget counts at most one slab more than that
    from tscale import bounds
    d = zz(39, 39)
    rng = np.random.Generator(np.random.PCG64(5))
    kernel = KernelOracle.separable(d, *rng.uniform(-1.0, 1.0, (2, 2, *d.shape)))
    tracemalloc.start()
    try:
        bounds._kernel_checks(kernel)
        held = tracemalloc.get_traced_memory()[1] + sum(f.nbytes for f in kernel.factors)
    finally:
        tracemalloc.stop()
    slab = 8 * 40 ** 3
    assert held > sum(f.nbytes for f in kernel.factors) + 3 * slab
    monkeypatch.setattr(grid2d, "MAX_KERNEL_TABLE_BYTES", held - 1)
    with pytest.raises(ConfigError, match="factors and row slabs"):
        grid2d.check_kernel_budget(d, rank=2)
    monkeypatch.setattr(grid2d, "MAX_KERNEL_TABLE_BYTES", held + slab)
    grid2d.check_kernel_budget(d, rank=2)


def test_dense_kernel_integrals_hold_two_row_slabs_at_most():
    # A and c of a dense 40x40 table read the table's row slabs as views and
    # copy one first-variable difference per row, so beside the table, which
    # check_kernel_budget counts, they hold at most two slabs of n2*n1*n2
    from tscale import bounds
    d = zz(39, 39)
    rng = np.random.Generator(np.random.PCG64(7))
    kernel = KernelOracle.from_table(d, rng.uniform(-1.0, 1.0, (40, 40, 40, 40)))
    p, q = (GridFn2(d, rng.uniform(0.0, 1.0, d.shape)) for _ in "pq")
    tracemalloc.start()
    try:
        bounds._kernel_integrals(kernel, p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * 40 ** 3


def test_kernel_table_at_budget_is_built(monkeypatch):
    d = zz(2, 2)
    monkeypatch.setattr(grid2d, "MAX_KERNEL_TABLE_BYTES", 8 * 9 ** 2)
    assert KernelOracle.constant(d, 1.5).table().shape == (3, 3, 3, 3)
    ko = KernelOracle.from_point_function(d, lambda t1, t2, s1, s2: 2.0)
    assert np.array_equal(ko.table(), np.full((3, 3, 3, 3), 2.0))


def test_separable_kernel_expands_on_demand(monkeypatch):
    d = TimeScale2D(integer_segment(0, 2), q_grid(2.0, 3))
    rng = np.random.default_rng(5)
    alpha, beta = rng.uniform(-1.0, 1.0, (2, 2, *d.shape))
    ko = KernelOracle.separable(d, alpha, beta)
    assert ko.factors is not None and ko._table is None
    table = ko.table()
    expect = np.einsum("rij,rab->ijab", alpha, beta)
    assert np.allclose(table, expect, rtol=1e-15, atol=0.0)
    # every row slab and every value has the bits of the expanded table
    for i in range(d.shape[0]):
        assert ko.slab(i).tobytes() == table[i].tobytes()
        assert ko.slab(i, i, 2).tobytes() == np.ascontiguousarray(table[i, :, :i, :2]).tobytes()
    assert ko.eval(2, 1, 0, 3) == table[2, 1, 0, 3]
    # the table is built on demand only, within the dense budget
    monkeypatch.setattr(grid2d, "MAX_KERNEL_TABLE_BYTES", table.nbytes - 1)
    with pytest.raises(ConfigError, match="MAX_KERNEL_TABLE_BYTES"):
        ko.table()
    assert ko.slab(2).shape == (4, 3, 4)


def test_separable_kernel_checks_its_factors():
    d = zz(2, 2)
    good = np.ones((2, 3, 3))
    for alpha, beta in ((good, np.ones((1, 3, 3))), (good[0], good[0]),
                        (np.ones((0, 3, 3)), np.ones((0, 3, 3))), (good, np.ones((2, 3, 4)))):
        with pytest.raises(DomainError, match="do not fit"):
            KernelOracle.separable(d, alpha, beta)
    with pytest.raises(DomainError, match="finite"):
        KernelOracle.separable(d, good, np.full((2, 3, 3), np.nan))


def test_lattice_point_limit(monkeypatch):
    grid2d.check_lattice_points(1000 * 1000, "product lattice")
    with pytest.raises(ConfigError, match="MAX_LATTICE_POINTS"):
        grid2d.check_lattice_points(grid2d.MAX_LATTICE_POINTS + 1, "product lattice")
    with pytest.raises(ConfigError, match="MAX_LATTICE_POINTS"):
        grid2d.check_lattice_points(math.inf, "h_grid")


@st.composite
def small_domain(draw):
    def axis():
        ticks = draw(st.lists(st.integers(0, 60), min_size=2, max_size=7,
                              unique=True))
        return explicit_scale(np.array(sorted(ticks)) / 4.0)
    return TimeScale2D(axis(), axis())


@settings(max_examples=50, deadline=None)
@given(small_domain(), st.integers(0, 2 ** 31 - 1))
def test_darboux_always_brackets(domain, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    f = GridFn2(domain, rng.uniform(-3.0, 3.0, domain.shape))
    n1, n2 = domain.shape
    part = RectPartition((0, n1 - 1), (0, n2 - 1))
    upper, lower = darboux_sums(f, part)
    ref = double_integral(f, (0, n1 - 1, 0, n2 - 1))
    slack = 1e-12 * (1.0 + abs(ref))
    assert lower <= ref + slack
    assert ref <= upper + slack


@settings(max_examples=50, deadline=None)
@given(small_domain())
def test_fubini_for_running_integrals(domain):
    f = GridFn2.from_function(domain, lambda a, b: math.sin(a + 0.5 * b) + 1.5)
    one_then_two = running_integral(running_integral(f, 2), 1)
    two_then_one = running_integral(running_integral(f, 1), 2)
    tol = 1e-12 * (1.0 + np.abs(one_then_two.values).max())
    assert np.abs(one_then_two.values - two_then_one.values).max() <= tol
