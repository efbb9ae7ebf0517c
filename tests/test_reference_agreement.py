"""The vectorized witnesses, re-checks and compensated sums against loop references.

tests/references.py keeps the per-cell math.fsum recursions, the kernel
bound's per-cell a/b and diagnostics loops, and the sequential Neumaier loop.
The row sweep sums in another order, so witnesses must agree to 1e-13
relative and re-check residuals to 1e-12.  The kernel bound's A and c agree
with the integrated per-cell a and b to 1e-13 relative on kernels that meet
the hypotheses and to 1e-11 * (1 + |reference|) on random tables, whose
differences cancel, and bit for bit on integer data; its diagnostics must be
the same strings.  The vectorized Neumaier sum keeps the loop's
order of operations and must agree bit for bit, and the columnar verify
report writers must write the same bytes as the per-row loops.  The
first-order comparison witness composes its steps by a two-level scan and
must agree with the point-by-point loop, and with the one-level doubling scan
it replaced, to 1e-13 of the magnitude recursion plus a floor for gradual
underflow; run in plain floats, or past the normal doubles on its fallback,
it must have the bits of the scan that carries mantissas and exponents
throughout.  The
mantissa/exponent product ladder must have the bits of a plain running
product while every prefix is a normal double, and agree with the log-space
reference ladder to 1e-12 relative elsewhere.  The axis-generic coefficient
realizer must give the bits of the two per-dimension family switches and
leave the random stream in the same state; a config kernel's factors expand
to the reference's dense table within 1e-15 relative, one rounding of the
VALUE_CAP scaling.  A factored kernel's witness, A, c, bound, difference
minima must agree with the dense table it expands to.  The factored
hypothesis re-check serves every kernel, the pointwise one as the single
term (1, k); it agrees to 1e-12 with the per-cell loops and with the
row-slab contraction it replaced, and the pointwise witness, now the one-term
factored sweep, keeps the bits of the pointwise row sweep.  The in-place row
sweep keeps the bits of the allocating sweep for every witness built on it,
overflowing rows included, and a report's violation counts and indices give
the list of the tuple loop.
"""

from __future__ import annotations

import functools
import io
import math
import sys
import warnings
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import references as ref
from tscale import (ConfigError, DomainError, FnSpec, GridFn1, GridFn2, KernelInputs,
                    KernelOracle, TimeScale2D, TscaleError, cauchy_integral, classical_forms,
                    comparison_bound, dense_mesh, exp_fn, explicit_scale, h_grid,
                    integer_segment, q_grid, realize_1d, realize_2d, realize_kernel,
                    realize_scalar, running_integral, union_scales)
from tscale import bounds, cli, config, verify, witnesses
from tscale.config import FN_FAMILIES, VALUE_CAP
from tscale.core import SUM_CHUNK, neumaier_cumsum
from tscale.core import MERGE_TOL, TimeScale
from tscale.exponential import PRODUCT_BLOCK, ProductLadder
from tscale.witnesses import (witness_comparison, witness_integrodynamic,
                              witness_kernel, witness_pointwise, witness_system)

WITNESS_RTOL = 1e-13
# A and c of the kernel bound on tables whose differences cancel, relative
# to 1 + |reference|
AB_CANCEL_TOL = 1e-11
RECHECK_TOL = 1e-12
# Lattice shapes too thin for the drawn scales to hit reliably.
EDGE_SHAPES = [(1, 6), (6, 1), (2, 2), (1, 1)]


@st.composite
def scales(draw, max_points=8):
    """Integer, q and explicit scales of 1 to max_points points."""
    n = draw(st.integers(1, max_points))
    kind = draw(st.sampled_from(["integer", "q", "explicit"]))
    if n == 1 or kind == "explicit":
        ticks = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n,
                              unique=True))
        return explicit_scale(np.sort(ticks) / 10.0)
    if kind == "integer":
        start = draw(st.integers(-5, 5))
        return integer_segment(start, start + n - 1)
    return q_grid(draw(st.sampled_from([1.05, 1.5, 2.0])), n - 1)


def edge_domain(shape) -> TimeScale2D:
    def axis(n):
        return explicit_scale(np.arange(n) * 0.7)
    return TimeScale2D(axis(shape[0]), axis(shape[1]))


def draws(domain: TimeScale2D, seed: int):
    """Nonnegative coefficients on the lattice, as the bounds assume."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def grid():
        return GridFn2(domain, rng.uniform(0.0, 2.0, domain.shape))
    return rng, grid


def assert_close(new: np.ndarray, old: np.ndarray) -> None:
    assert np.all(np.abs(new - old) <= WITNESS_RTOL * np.abs(old))


def assert_residuals_match(new: float, old: float) -> None:
    assert abs(new - old) <= RECHECK_TOL * (1.0 + abs(old))


def assert_same_array_bits(new: np.ndarray, old: np.ndarray) -> None:
    assert new.shape == old.shape and new.tobytes() == old.tobytes()


def table_factors(kernel):
    """A dense kernel as n1*n2 separable terms: alpha[r](t) = k(t, s_r) and
    beta[r] the indicator of the lattice point s_r."""
    n1, n2 = kernel.domain.shape
    alpha = np.moveaxis(kernel.table().reshape(n1, n2, n1 * n2), -1, 0)
    return alpha, np.eye(n1 * n2).reshape(n1 * n2, n1, n2)


def check_pointwise(domain, seed, rho):
    _, grid = draws(domain, seed)
    p, q, k = grid(), grid(), grid()
    u = witness_pointwise(p, q, k, rho)
    assert_close(u.values, ref.witness_pointwise(p, q, k, rho))
    # the one-term factored sweep keeps the bits of the pointwise row sweep
    assert_same_array_bits(u.values, ref.witness_pointwise_rows(p, q, k, rho))
    # an oversized u gives a residual of the order of the excess
    for cand in (u, GridFn2(domain, 1.01 * u.values)):
        assert_residuals_match(verify._recheck_kernel(p, q, witnesses._unit_factors(k), cand),
                               ref.recheck_pointwise(p, q, k, cand))


def check_kernel(domain, seed, rho):
    rng, grid = draws(domain, seed)
    p, q = grid(), grid()
    n1, n2 = domain.shape
    kernel = KernelOracle.from_table(domain, rng.uniform(0.0, 2.0, (n1, n2, n1, n2)))
    u = witness_kernel(p, q, kernel, rho)
    assert_close(u.values, ref.witness_kernel(p, q, kernel, rho))
    for cand in (u, GridFn2(domain, 1.01 * u.values)):
        assert_residuals_match(verify._recheck_kernel(p, q, table_factors(kernel), cand),
                               ref.recheck_kernel(p, q, kernel, cand))
    # a random table's differences take both signs and cancel in c and in
    # the reference's a and b
    for new, old in zip(bounds._kernel_integrals(kernel, p, q),
                        ref.kernel_integrals(kernel, p, q)):
        assert np.all(np.abs(new - old) <= AB_CANCEL_TOL * (1.0 + np.abs(old)))
    # p and q are nonnegative, so only the kernel's own diagnostics remain
    assert (KernelInputs(p, q, kernel).check_hypotheses()
            == ref.kernel_difference_diagnostics(kernel))
    # kernels that meet the hypotheses sum nonnegative terms
    monotone = KernelOracle.from_point_function(
        domain, lambda t1, t2, s1, s2:
        np.exp(0.02 * t1) * (3.0 + np.tanh(t2)) * (1.0 + (s1 - s2) ** 2))
    affine = realize_kernel(FnSpec("affine_product"), domain, rng)
    for good in (KernelOracle.constant(domain, rng.uniform(0.0, 2.0)),
                 KernelOracle.from_table(domain, affine.table()), monotone):
        for new, old in zip(bounds._kernel_integrals(good, p, q),
                            ref.kernel_integrals(good, p, q)):
            assert_close(new, old)
        assert (KernelInputs(p, q, good).check_hypotheses()
                == ref.kernel_difference_diagnostics(good))


def check_system(domain, seed, rho):
    rng, grid = draws(domain, seed)
    c1, c2 = rng.uniform(0.0, 2.0, 2)
    hs = tuple(grid() for _ in range(4))
    u, v = witness_system(c1, c2, *hs, feedback_scale=rho)
    u_ref, v_ref = ref.witness_system(c1, c2, *hs, rho=rho)
    assert_close(u.values, u_ref)
    assert_close(v.values, v_ref)
    for cu, cv in ((u, v), (u, GridFn2(domain, 1.01 * v.values))):
        assert_residuals_match(verify._recheck_system(c1, c2, hs, cu, cv),
                               ref.recheck_system(c1, c2, hs, cu, cv))


def check_integrodynamic(domain, seed, rho):
    rng, grid = draws(domain, seed)
    a = GridFn1(domain.scale1, np.sort(rng.uniform(0.1, 2.0, domain.shape[0])))
    b = GridFn1(domain.scale2, np.sort(rng.uniform(0.1, 2.0, domain.shape[1])))
    c = grid()
    u, w = witness_integrodynamic(a, b, c, rho)
    u_ref, w_ref = ref.witness_integrodynamic(a, b, c, rho)
    assert_close(u.values, u_ref)
    assert_close(w.values, w_ref)
    for cu, cw in ((u, w), (u, GridFn2(domain, 1.01 * w.values))):
        assert_residuals_match(verify._recheck_integrodynamic(a, b, c, cu, cw),
                               ref.recheck_integrodynamic(a, b, c, cu, cw))


CHECKS = [check_pointwise, check_kernel, check_system, check_integrodynamic]


@pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__[6:])
@settings(max_examples=40, deadline=None)
@given(scales(), scales(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.37, 1.0]))
def test_witness_and_recheck_match_references(check, s1, s2, seed, rho):
    check(TimeScale2D(s1, s2), seed, rho)


@pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__[6:])
@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_thin_lattices_match_references(check, shape):
    check(edge_domain(shape), 7, 1.0)


# -- the in-place row sweep against the allocating one ----------------------

@st.composite
def sweep_scales(draw, max_points=6):
    """scales(), or an explicit axis whose first 1 to 3 steps are 1e-300,
    so that mu1 * mu2 underflows."""
    if draw(st.booleans()):
        return draw(scales(max_points))
    tiny = draw(st.integers(1, 3))
    wide = draw(st.integers(0, max_points - tiny - 1))
    return explicit_scale(np.concatenate((np.arange(tiny + 1) * 1e-300, 1.0 + np.arange(wide))))


def raw_grid(domain, values):
    """A stand-in for GridFn2 that keeps non-finite values."""
    return SimpleNamespace(domain=domain, values=values)


@settings(max_examples=80, deadline=None)
@given(s1=sweep_scales(), s2=sweep_scales(), case=st.sampled_from(
           ["pointwise", "kernel", "system", "integrodynamic"]),
       count=st.sampled_from([None, 0, 1, 2, 3]), terms=st.integers(1, 3),
       magnitude=st.sampled_from([1.0, 1e300]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_in_place_sweep_keeps_the_allocating_sweeps_bits(s1, s2, case, count, terms, magnitude,
                                                         seed, data):
    """Each witness of the in-place row sweep has the bits of the same
    witness on the allocating sweep in references.py, on stacks of 0 to 3
    instances, with feedback factors 0, 0.37 and 1; a magnitude of 1e300
    makes rows overflow to inf and then NaN, which GridFn2 rejects."""
    domain = TimeScale2D(s1, s2)
    if case == "kernel" and count == 0:
        count = 1    # KernelOracle holds no empty stack
    lead = () if count is None else (count,)
    rng = np.random.Generator(np.random.PCG64(seed))

    def grid():
        return GridFn2(domain, magnitude * rng.uniform(0.0, 2.0, (*lead, *domain.shape)))

    size = 1 if count is None else count
    rho = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.37, 1.0]),
                                      min_size=size, max_size=size)))
    rho = rho if count is not None else float(rho[0])
    rho_col = np.asarray(rho, dtype=float)[..., None]    # as _check_feedback shapes it
    if case in ("pointwise", "kernel"):
        p, q = grid(), grid()
        if case == "pointwise":
            k = grid()
            factors = (np.ones((1, *k.values.shape)), k.values[None])
            build = functools.partial(witness_pointwise, p, q, k, rho)
        else:
            factors = magnitude * rng.uniform(0.0, 2.0, (2, terms, *lead, *domain.shape))
            build = functools.partial(witness_kernel, p, q,
                                      KernelOracle.separable(domain, *factors), rho)
        expected = (ref.witness_factored_rows(p, q, *factors, rho_col),)
    elif case == "system":
        c1, c2 = (magnitude * rng.uniform(0.0, 2.0, lead) for _ in range(2))
        c1, c2 = (c if count is not None else float(c) for c in (c1, c2))
        hs = [grid() for _ in range(4)]
        build = functools.partial(witness_system, c1, c2, *hs, rho)
        expected = ref.witness_system_rows(c1, c2, *hs, rho_col)
    else:
        a, b = (GridFn1(scale, magnitude * np.sort(rng.uniform(0.1, 2.0, (*lead, len(scale)))))
                for scale in (s1, s2))
        c = grid()
        build = functools.partial(witness_integrodynamic, a, b, c, rho)
        expected = ref.witness_integrodynamic_rows(a, b, c, rho_col)
    with mock.patch.object(witnesses, "GridFn2", raw_grid):
        got = build()
    for new, old in zip(got if isinstance(got, tuple) else (got,), expected, strict=True):
        assert_same_array_bits(new.values, old)
    if not all(np.all(np.isfinite(x)) for x in expected):
        with pytest.raises(DomainError, match="finite"):
            build()


def test_in_place_sweep_overflows_where_the_allocating_sweep_does():
    """A row past the float range: inf, then NaN through the compensated
    sums, each with the allocating sweep's bits."""
    domain = TimeScale2D(integer_segment(0, 4), integer_segment(0, 3))
    p = GridFn2(domain, np.full(domain.shape, 1e150))
    with mock.patch.object(witnesses, "GridFn2", raw_grid):
        u = witness_pointwise(p, p, p).values
    assert np.all(np.isinf(u[1, 1:])) and np.all(np.isnan(u[2:, 2:]))
    assert_same_array_bits(u, ref.witness_pointwise_rows(p, p, p))


# -- violations as counts and indices against the tuple loop ----------------

@settings(max_examples=60, deadline=None)
@given(s1=scales(), s2=scales(), count=st.sampled_from([None, 1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_violations_are_the_tuple_loops(s1, s2, count, seed):
    """report.violations, stacked and per instance, is the list that the
    tuple loop of references.violations builds, on witnesses planted at,
    just below, just above and far past the bound's tolerance."""
    domain = TimeScale2D(s1, s2)
    assume(min(domain.shape) >= 2)
    lead = () if count is None else (count,)
    rng = np.random.Generator(np.random.PCG64(seed))
    p, q, k = (GridFn2(domain, rng.uniform(0.0, 2.0, (*lead, *domain.shape))) for _ in range(3))
    b = bounds.compute_bound(bounds.PointwiseInputs(p, q, k)).bound.values
    tol = bounds.VIOLATION_TOL * (1.0 + np.abs(b))
    steps = np.stack((-b, np.zeros_like(b), 0.5 * tol, tol, np.nextafter(tol, np.inf), 2 * tol,
                      1.0 + b))
    u = rng.uniform(0.0, 2.0, (*lead, *domain.shape))
    u[..., :-1, :-1] = b + np.take_along_axis(steps, rng.integers(0, 7, (1, *b.shape)), 0)[0]
    report = bounds.compute_bound(bounds.PointwiseInputs(p, q, k, GridFn2(domain, u)))
    stack = report.witness.values.reshape(-1, *b.shape[-2:]), report.bound.values.reshape(
        -1, *b.shape[-2:])
    expected = ref.violations(*stack)
    parts = report.unstack()
    assert [part.violations for part in parts] == expected
    assert report.violations == (expected if count else expected[0])
    assert np.atleast_1d(report.violation_count).tolist() == [len(x) for x in expected]
    for part, found in zip(parts, expected):
        assert part.violation_count == len(found)
        assert [divmod(int(x), b.shape[-1]) for x in part.violation_at] == \
            [(i, j) for i, j, _, _ in found]


def test_a_violation_is_an_excess_past_the_tolerance_not_at_it():
    """An excess equal to VIOLATION_TOL * (1 + |bound|) is no violation; one
    step past it is, as in the tuple loop.  Bounds of 2**-40 and below make
    bound + tolerance, and so the excess, exact."""
    domain = TimeScale2D(integer_segment(0, 2), integer_segment(0, 3))
    b = np.ldexp(1.0, -40 - np.arange(24)).reshape(2, *domain.shape)
    w = b + bounds.VIOLATION_TOL * (1.0 + np.abs(b))
    assert np.array_equal(w - b, bounds.VIOLATION_TOL * (1.0 + np.abs(b)))
    past = np.zeros(b.shape, bool)
    past[0, 1, 2] = past[1, 0, 0] = past[1, 2, 3] = True
    w[past] = np.nextafter(w[past], np.inf)
    report = bounds._finish(b, domain, bounds.BoundCase.POINTWISE, GridFn2(domain, w), [[], []])
    assert report.violations == ref.violations(w, b)
    assert [[(i, j) for i, j, _, _ in found] for found in report.violations] == \
        [[(1, 2)], [(0, 0), (2, 3)]]
    assert report.violation_count.tolist() == [1, 2]


# -- factored kernels against their dense tables ----------------------------

LOWS_TOL = 1e-12


def exact_factors(domain, rng, shape, monotone=False):
    """Factors alpha and beta of the given shape, lattice axes last.
    Random-sign factors make every diagnostic fire; monotone ones are
    nonnegative with nonnegative lattice differences.

    The factors are small integers, alpha times one power of two, so every
    product and every sum over terms is exact and a table holds the kernel
    itself: a rounded table's lattice differences would move by a rounding
    of k over a step mu, which no other path can recover.  The power of two
    keeps the kernel times the lattice's area below one, so nothing
    overflows."""
    if monotone:
        alpha = rng.integers(0, 4, shape).cumsum(axis=-2).cumsum(axis=-1)
        beta = rng.integers(0, 4, shape)
    else:
        alpha, beta = rng.integers(-4, 5, (2, *shape))
    area = (1.0 + np.ptp(domain.scale1.points)) * (1.0 + np.ptp(domain.scale2.points))
    size = (1 + np.abs(alpha).max()) * (1 + np.abs(beta).max()) * area
    return np.ldexp(alpha.astype(float), -math.ceil(math.log2(size))), beta


def factored_pair(domain, seed, monotone):
    """A kernel of 1 to 3 separable exact_factors terms, and the same kernel
    as the dense table it expands to."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (int(rng.integers(1, 4)), *domain.shape)
    factored = KernelOracle.separable(domain, *exact_factors(domain, rng, shape, monotone))
    return factored, KernelOracle.from_table(domain, factored.table())


def assert_agree(new, old, monotone):
    """Relative agreement; random-sign terms cancel, so there relative to 1 + |old|."""
    scale = np.abs(old) if monotone else 1.0 + np.abs(old)
    assert np.all(np.abs(new - old) <= WITNESS_RTOL * scale)


def kinds(diags):
    return [d.split(" negative")[0] for d in diags]


def check_factored(domain, seed, rho):
    _, grid = draws(domain, seed)
    p, q = grid(), grid()
    for monotone in (True, False):
        factored, dense = factored_pair(domain, seed, monotone)
        u = witness_kernel(p, q, factored, rho)
        assert_agree(u.values, witness_kernel(p, q, dense, rho).values, monotone)
        equality = witness_kernel(p, q, factored)
        for cand in (u, equality, GridFn2(domain, 1.01 * u.values)):
            assert_residuals_match(verify._recheck_kernel(p, q, factored.factors, cand),
                                   ref.recheck_kernel_slabs(p, q, dense, cand))
        assert verify._recheck_kernel(p, q, factored.factors, equality) <= RECHECK_TOL
        if min(domain.shape) < 2:
            continue
        for new, old in zip(bounds._kernel_integrals(factored, p, q),
                            bounds._kernel_integrals(dense, p, q)):
            assert_agree(new, old, monotone)
        lows = [bounds._kernel_checks(k)[1] for k in (factored, dense)]
        empty = np.isinf(lows[1])
        assert np.array_equal(np.isinf(lows[0]), empty)
        new, old = lows[0][~empty], lows[1][~empty]
        assert np.all(np.abs(new - old) <= LOWS_TOL * (1.0 + np.abs(old)))
        for new, old in zip(*lows):
            near = old <= old.min() + LOWS_TOL * (1.0 + abs(old.min()))
            if near.sum() == 1:
                assert np.argmin(new) == np.argmin(old)
        reports = [bounds.bound_kernel_variants(KernelInputs(p, q, k)) for k in (factored, dense)]
        for new, old in zip(*(r.values() for r in reports)):
            new_diags, old_diags = new.hypothesis_diagnostics, old.hypothesis_diagnostics
            assert kinds(new_diags) == kinds(old_diags)
            # the kernel's own minimum reads the same values in the same order
            assert [d for d in new_diags if " at index " in d] \
                == [d for d in old_diags if " at index " in d]
            if monotone:
                assert not new_diags
                assert_agree(new.bound.values, old.bound.values, monotone)


@settings(max_examples=40, deadline=None)
@given(scales(max_points=31), scales(max_points=31), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.37, 1.0]))
def test_factored_kernel_matches_its_dense_table(s1, s2, seed, rho):
    check_factored(TimeScale2D(s1, s2), seed, rho)


@st.composite
def one_term_factors(draw, domain):
    """alpha and beta of one separable term on domain: affine in the points,
    as config kernels are, with parameters of either sign (the scales reach
    below zero), or small integers, whose products tie and take both signs
    of zero."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    if draw(st.booleans()):
        return rng.integers(-3, 4, (2, *domain.shape)).astype(float) * [[[1.0]], [[-1.0]]]
    a0, a1, b0, b1, c0, c1, c2 = rng.uniform(-2.0, 2.0, 7)
    x1, x2 = domain.scale1.points[:, None], domain.scale2.points[None, :]
    return np.stack(np.broadcast_arrays((a0 + a1 * x1) * (b0 + b1 * x2), c0 + c1 * x1 + c2 * x2))


@settings(max_examples=200, deadline=None)
@given(scales(), scales(), st.data())
def test_rank_one_minimum_is_the_slab_sweeps(s1, s2, data):
    """The O(N) minimum of a one-term kernel has the bits and the first
    location in row order that the row-slab sweep finds."""
    d = TimeScale2D(s1, s2)
    alpha, beta = data.draw(one_term_factors(d))
    kernel = KernelOracle.separable(d, alpha[None], beta[None])
    (value, at), = bounds._kernel_checks(kernel)[0]
    old_value, old_at = ref.kernel_min(kernel)
    assert np.float64(value).tobytes() == np.float64(old_value).tobytes()
    assert at == old_at


@settings(max_examples=100, deadline=None)
@given(scales(max_points=9), scales(max_points=9), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_kernel_checks_match_the_slab_references(s1, s2, count, rank, dense, seed):
    """The minimum and the difference minima of a dense table, and of each
    instance of a stack of one-term or multi-term kernels, against the slab
    references: the swept body bit for bit, the one-term body's minimum in
    bits and first index and its difference minima within LOWS_TOL."""
    d = TimeScale2D(s1, s2)
    rng = np.random.Generator(np.random.PCG64(seed))
    kernel = KernelOracle.separable(d, *exact_factors(d, rng, (rank, count, *d.shape)))
    if dense:
        kernel = KernelOracle.from_table(d, kernel.instances()[0].table())
    mins, lows = bounds._kernel_checks(kernel)
    assert lows.shape == (3, len(mins), *(n - 1 for n in d.shape))
    for (value, at), low, one in zip(mins, np.moveaxis(lows, 1, 0), kernel.instances()):
        old_value, old_at = ref.kernel_min(one)
        assert np.float64(value).tobytes() == np.float64(old_value).tobytes()
        assert at == old_at
        old = ref.swept_lows(one)
        if rank > 1 or dense:
            assert low.tobytes() == old.tobytes()
            continue
        empty = np.isinf(old)
        assert np.array_equal(np.isinf(low), empty)
        low, old = low[~empty], old[~empty]
        assert np.all(np.abs(low - old) <= LOWS_TOL * (1.0 + np.abs(old)))


def overflow_probe(points, alpha_rows, beta_at_origin):
    """A one-term kernel on the points x integer:0..3 whose alpha jumps
    across a tiny step, and its dense table; alpha_rows holds one value per
    row, or a row of four values."""
    d = TimeScale2D(explicit_scale(points), integer_segment(0, 3))
    alpha = np.array([np.broadcast_to(row, d.shape[1]) for row in alpha_rows])
    beta = np.ones(d.shape)
    beta[0, 0] = beta_at_origin
    factored = KernelOracle.separable(d, alpha[None], beta[None])
    return factored, KernelOracle.from_table(d, factored.table())


@pytest.mark.parametrize("points, alpha_rows, beta_at_origin, fired", [
    # alpha falls by 1e300 over a step of 2.2e-16: its difference quotient
    # overflows, and times beta = 0 must not hide the -inf beside it
    ((0.0, 1.0, 1.0000000000000002, 3.0), (1.0, 1.0, -1e300, -1e300), 0.0,
     ["kernel negative at index (2, 0, 0, 1): -1e+300",
      "kernel first-variable difference negative near (1, 1): -inf"]),
    # alpha rises by 1e10 over a 1e-300 step, where ii(beta q) is still 0
    ((0.0, 1e-300, 1.0, 2.0), (1.0, 1e10, 1e10, 1e10), 1.0, []),
    # ... and over the next 1e-300 step, where ii(beta q) is about 1e-300:
    # the Leibniz term is finite, about 1e10, as in the dense table
    ((0.0, 1e-300, 2e-300, 1.0, 2.0),
     (1.0, 1.0, 1e10, (1e10, 1e10, 1e10, 1e10 - 1), (1e10, 1e10, 1e10, 1e10 - 1)), 1.0,
     ["kernel second-variable difference negative near (2, 2): -1",
      "kernel first-variable difference negative near (2, 2): -1",
      "kernel mixed difference negative near (2, 2): -1"]),
])
def test_overflowing_factor_differences_read_as_the_dense_table(points, alpha_rows,
                                                                beta_at_origin, fired):
    """A factored kernel whose alpha differences overflow gives its dense
    table's diagnostics, without a RuntimeWarning, and its bound's bits or
    error."""
    outcomes = []
    for kernel in overflow_probe(points, alpha_rows, beta_at_origin):
        inputs = KernelInputs(*(GridFn2.constant(kernel.domain, 1.0) for _ in "pq"), kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags = inputs.check_hypotheses()
            try:
                reports = bounds.bound_kernel_variants(inputs)
                outcomes.append((diags, [r.bound.values.tobytes() for r in reports.values()]))
            except DomainError as exc:
                outcomes.append((diags, str(exc)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == fired


def test_a_mixed_difference_between_overflowed_quotients_reads_as_the_dense_table():
    """alpha's first difference quotients overflow in two neighbouring
    columns; the mixed difference, taken from alpha itself before dividing
    by mu1 * mu2, is -1 there, as in the dense table, not inf - inf."""
    row = (1e10, 1e10, 1e10, 1e10 - 1)
    diags = []
    for kernel in overflow_probe((0.0, 1e-300, 2e-300, 1.0, 2.0),
                                 (1.0, 1.0, 1e10, row, row), 1.0):
        inputs = KernelInputs(*(GridFn2.constant(kernel.domain, 1.0) for _ in "pq"), kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags.append(inputs.check_hypotheses())
    assert diags[0] == diags[1] == [
        "kernel second-variable difference negative near (2, 2): -1",
        "kernel first-variable difference negative near (2, 2): -1",
        "kernel mixed difference negative near (2, 2): -1"]


def test_a_zero_mixed_difference_stays_zero_where_mu1_mu2_underflows():
    # 1e-300 * 1e-300 is 0, and 0 / 0 would be a NaN that fails the check
    axis = explicit_scale([0.0, 1e-300, 2e-300, 1.0])
    d = TimeScale2D(axis, axis)
    for kernel in (KernelOracle.constant(d, 1.0), KernelOracle.from_table(d, np.ones((4,) * 4))):
        inputs = KernelInputs(*(GridFn2.constant(d, 1.0) for _ in "pq"), kernel)
        assert inputs.check_hypotheses() == []
        assert not np.isnan(bounds._kernel_checks(kernel)[1]).any()


def test_a_nan_minimum_counts_as_failing():
    diags = [[], []]
    bounds._check_nonneg(np.array([[[0.0, np.nan], [-np.inf, 1.0]], [[0.0, 1.0], [2.0, 3.0]]]),
                         "f", diags)
    assert diags == [["f negative at index (0, 1): nan"], []]


@settings(max_examples=60, deadline=None)
@given(scales(max_points=7), scales(max_points=7), st.integers(1, 4), st.integers(1, 2),
       st.data())
def test_a_stack_of_kernels_checks_and_bounds_each_instance_as_alone(s1, s2, count, rank,
                                                                     data):
    """A KernelOracle of count instances, one or two terms each, some of
    them nonnegative: the hypotheses, the difference minima, the kernel's
    minimum and both bound variants of each instance are those of the
    instance alone."""
    d = TimeScale2D(s1, s2)
    alpha, beta = np.array([[data.draw(one_term_factors(d)) for _ in range(rank)]
                            for _ in range(count)]).transpose(2, 1, 0, 3, 4)
    for k in np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=count,
                                               max_size=count))):
        alpha[:, k], beta[:, k] = np.abs(alpha[:, k]), np.abs(beta[:, k])
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2 ** 32 - 1))))
    p, q, u = (GridFn2(d, rng.uniform(-0.1, 2.0, (count, *d.shape))) for _ in range(3))
    stack = KernelOracle.separable(d, alpha, beta)
    alone = [KernelInputs(*(GridFn2(d, g.values[k]) for g in (p, q)), one,
                          GridFn2(d, u.values[k]))
             for k, one in enumerate(stack.instances())]
    inputs = KernelInputs(p, q, stack, u)
    mins, lows = bounds._kernel_checks(stack)
    for k, (single, minimum) in enumerate(zip(alone, mins)):
        assert inputs.check_hypotheses()[k] == single.check_hypotheses()
        (alone_min,), alone_lows = bounds._kernel_checks(single.k)
        assert lows[:, k].tobytes() == alone_lows.tobytes()
        assert minimum == alone_min == ref.kernel_min(single.k)
    if min(d.shape) < 2:
        return
    try:
        by_variant = bounds.bound_kernel_variants(inputs)
    except DomainError:
        with pytest.raises(DomainError):
            for single in alone:
                bounds.bound_kernel_variants(single)
        return
    for k, single in enumerate(alone):
        for variant, report in bounds.bound_kernel_variants(single).items():
            part = by_variant[variant].unstack()[k]
            assert part.bound.values.tobytes() == report.bound.values.tobytes()
            assert (part.max_violation, part.min_slack, part.violations,
                    part.hypothesis_diagnostics) == (report.max_violation, report.min_slack,
                                                     report.violations,
                                                     report.hypothesis_diagnostics)


@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_factored_kernel_matches_its_dense_table_on_thin_lattices(shape):
    check_factored(edge_domain(shape), 7, 1.0)


def shifted_block_sums(cells, block_sums=verify._block_sums):
    """The block sums one column late: out[..., i, j] sums cells[..., :i, :j - 1]."""
    out = block_sums(cells)
    out[..., 1:] = out[..., :-1].copy()
    return out


def recheck_mutants(p, q, factors, u):
    """Residuals of three broken factored re-checks: block sums one column
    late, the last term dropped, and alpha and beta swapped."""
    alpha, beta = factors
    with mock.patch.object(verify, "_block_sums", shifted_block_sums):
        yield "shifted block sum", verify._recheck_kernel(p, q, factors, u)
    yield "dropped term", verify._recheck_kernel(p, q, (alpha[:-1], beta[:-1]), u)
    yield "swapped alpha/beta", verify._recheck_kernel(p, q, (beta, alpha), u)


def test_factored_recheck_catches_its_mutants():
    """Each mutant of the factored re-check misses the slab reference by far
    more than the agreement tolerance, at the equality witness and above it."""
    domain = TimeScale2D(q_grid(1.5, 6), integer_segment(0, 5))
    rng, grid = draws(domain, 11)
    p, q = grid(), grid()
    alpha, beta = rng.uniform(-2.0, 2.0, (2, 2, *domain.shape))
    factored = KernelOracle.separable(domain, alpha, beta)
    dense = KernelOracle.from_table(domain, factored.table())
    u = witness_kernel(p, q, factored)
    for cand in (u, GridFn2(domain, 1.01 * u.values)):
        old = ref.recheck_kernel_slabs(p, q, dense, cand)
        assert_residuals_match(verify._recheck_kernel(p, q, factored.factors, cand), old)
        for name, new in recheck_mutants(p, q, factored.factors, cand):
            assert abs(new - old) > 1e3 * RECHECK_TOL * (1.0 + abs(old)), name


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=6),
       st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_kernel_integrals_telescope_exactly(steps1, steps2, seed):
    """On integer data with power-of-two steps every sum and quotient is
    exact, so the kernel integral equals the integrated a and b bit for bit:
    their corner and difference terms telescope away."""
    domain = TimeScale2D(explicit_scale(np.cumsum([0, *steps1])),
                         explicit_scale(np.cumsum([0, *steps2])))
    rng = np.random.Generator(np.random.PCG64(seed))
    p, q = (GridFn2(domain, rng.integers(-4, 5, domain.shape)) for _ in range(2))
    alpha, beta = rng.integers(-4, 5, (2, int(rng.integers(1, 4)), *domain.shape))
    for kernel in (KernelOracle.from_table(domain, rng.integers(-4, 5, domain.shape * 2)),
                   KernelOracle.separable(domain, alpha, beta)):
        for new, old in zip(bounds._kernel_integrals(kernel, p, q),
                            ref.kernel_integrals(kernel, p, q)):
            assert np.array_equal(new, old)


def test_integrodynamic_recheck_rejects_u_off_the_axes():
    d = edge_domain((4, 5))
    a = GridFn1(d.scale1, np.ones(4))
    b = GridFn1(d.scale2, np.ones(5))
    c = GridFn2.constant(d, 0.5)
    u, w = witness_integrodynamic(a, b, c)
    assert verify._recheck_integrodynamic(a, b, c, u, w) <= 1e-10
    for axis_point in ((0, 3), (2, 0)):
        bad = u.values.copy()
        bad[axis_point] = 1e-300
        assert verify._recheck_integrodynamic(a, b, c, GridFn2(d, bad), w) == math.inf


# -- first-order comparison witness -----------------------------------------

COMPARISON_TOL = 1e-13
UNDERFLOW_FLOOR = 4 * 2.0 ** -1074
TINY = np.finfo(float).tiny    # the smallest normal double


@st.composite
def comparison_inputs(draw):
    """f, g, x_a, a and slack on an integer, q, explicit or integer-then-dense
    scale, with a anywhere on the scale, the last point included.

    g takes both signs through factors 1 + mu*g drawn from [-2, -0.5] and
    [0.5, 3]: the loop's step x + mu*(f + g*x - slack) rounds at the size of
    (1 + |mu*g|)*|x|, which the magnitude recursion follows only while the
    factor does not nearly cancel.  Exact zero factors are pinned below.
    """
    if draw(st.booleans()):
        scale = draw(scales(max_points=40))
    else:
        end = draw(st.integers(1, 20))
        scale = union_scales(integer_segment(0, end),
                             dense_mesh(end, end + draw(st.integers(1, 3)),
                                        draw(st.sampled_from([0.1, 0.25]))))
    n = len(scale)
    floats = functools.partial(st.floats, allow_nan=False, allow_infinity=False)
    factors = st.one_of(floats(-2.0, -0.5), floats(0.5, 3.0))
    mu = scale.graininess
    g = (np.array(draw(st.lists(factors, min_size=n, max_size=n))) - 1.0) \
        / np.where(mu > 0, mu, 1.0)
    f = draw(st.lists(floats(-2.0, 2.0), min_size=n, max_size=n))
    return (GridFn1(scale, f), GridFn1(scale, g), draw(floats(-2.0, 2.0)),
            draw(st.integers(0, n - 1)), draw(floats(0.0, 1.0)))


def _pinned(scale, f, g, x_a, slack=0.0):
    """Inputs anchored at the first point; f and g repeat their last entry."""
    def fn(vals):
        return GridFn1(scale, np.pad(vals, (0, len(scale) - len(vals)), mode="edge"))
    return fn(np.atleast_1d(f)), fn(np.atleast_1d(g)), x_a, 0, slack


def _underflows(result, a, b) -> bool:
    """Whether the product a*b rounded to result on the subnormal grid."""
    return abs(result) < TINY and Fraction(result) != Fraction(a) * Fraction(b)


def tolerance(f, g, x_a, a, slack) -> np.ndarray:
    """COMPARISON_TOL * m + d + UNDERFLOW_FLOOR.  m[0] = |x_a|, m[k + 1] =
    |1 + mu_k*g_k|*m[k] + mu_k*(|f_k| + slack) is the magnitude that relative
    rounding errors scale with.  Gradual underflow adds an absolute error of
    at most 2**-1075 to a product that rounds to a subnormal (Higham 2002,
    section 2.1), and later factors carry it: d[0] = 0 and d[k + 1] =
    |1 + mu_k*g_k|*d[k] + UNDERFLOW_FLOOR where step k rounds so, in the
    loop's g*x or mu*(f + g*x - slack), or has a subnormal step term
    mu*(f - slack) that the scan's compositions may round.  An exact
    subnormal x_a, or exact steps, add nothing to d; the scan's one ldexp of
    A*x_a + B per point rounds once more, uncarried."""
    mu = f.scale.graininess[a:]
    x = ref.witness_comparison_loop(f, g, x_a, a, slack)
    m, d = np.zeros((2, len(mu)))
    m[0] = abs(x_a)
    for k in range(len(mu) - 1):
        fk, gk = f.values[a + k], g.values[a + k]
        gx = gk * x[k]
        inner = fk + gx - slack
        step = (fk - slack) * mu[k]
        rounds = (_underflows(gx, gk, x[k]) or _underflows(mu[k] * inner, mu[k], inner)
                  or _underflows(step, fk - slack, mu[k]) or 0.0 < abs(step) < TINY)
        factor = abs(1.0 + mu[k] * gk)
        m[k + 1] = factor * m[k] + mu[k] * (abs(fk) + slack)
        d[k + 1] = factor * d[k] + UNDERFLOW_FLOOR * rounds
    return COMPARISON_TOL * m + d + UNDERFLOW_FLOOR


@settings(max_examples=300, deadline=None)
@given(comparison_inputs())
# a subnormal slack on a 0.1 mesh, where step terms round to the subnormal
# grid; x_a and slack one subnormal step with factor -1; and x_a one
# subnormal step that exact factors 3 carry into the normal range
@example(inputs=_pinned(union_scales(integer_segment(0, 1), dense_mesh(1, 2, 0.1)), 0.0,
                        [-2.0] + [-20.0] * 10 + [-2.0], 0.0, 2.2250738585e-313))
@example(inputs=_pinned(integer_segment(0, 3), 0.0, -2.0, 5e-324))
@example(inputs=_pinned(integer_segment(0, 3), 0.0, -2.0, 0.0, 5e-324))
@example(inputs=_pinned(integer_segment(0, 39), 0.0, 2.0, 5e-324))
def test_comparison_witness_matches_the_loop(inputs):
    x = witness_comparison(*inputs)
    old = ref.witness_comparison_loop(*inputs)
    assert x.scale.points[0] == inputs[0].scale.points[inputs[3]]
    assert x.values[0] == inputs[2]
    assert np.all(np.abs(x.values - old) <= tolerance(*inputs))


_LONG = np.random.default_rng(16).uniform(-1.0, 1.0, (2, 601))


@settings(max_examples=200, deadline=None)
@given(comparison_inputs())
# 600 steps: 38 blocks, whose totals take 6 doubling rounds
@example(inputs=_pinned(integer_segment(0, 600), 2.0 * _LONG[0], 0.02 * _LONG[1], 1.5, 0.25))
def test_comparison_witness_matches_the_doubling_scan(inputs):
    # the two-level scan composes the steps in another order than the one
    # doubling scan over all of them: both stay within the loop's tolerance
    x = witness_comparison(*inputs).values
    old = ref.witness_comparison_doubling(*inputs)
    tol = tolerance(*inputs)
    assert np.all(np.abs(old - ref.witness_comparison_loop(*inputs)) <= tol)
    assert np.all(np.abs(x - old) <= tol)


def test_comparison_witness_keeps_the_bits_of_a_subnormal_start():
    # the loop's steps x + 2*x are exact until 3**k passes 2**53, so the
    # scan may not lose x_a's bit before the factors 3 carry it up
    inputs = _pinned(integer_segment(0, 39), 0.0, 2.0, 5e-324)
    x = witness_comparison(*inputs).values
    assert x[-1] > 1e-305
    assert np.allclose(x, ref.witness_comparison_loop(*inputs), rtol=COMPARISON_TOL, atol=0)
    # and the matching test's tolerance carries no underflow floor up here
    assert tolerance(*inputs)[-1] <= 1.001 * COMPARISON_TOL * x[-1]


# Each case's loop makes no rounding error, so the scan must match it exactly.
EXACT_ZERO_CASES = {
    # factors 1e20: their products leave the float range, but B is 0
    "overflowing_factors_times_zero": _pinned(integer_segment(0, 40), 0.25, 1e20,
                                              0.0, 0.25),
    # factor 0 at index 3, negative factors -1 and -2 around it
    "zero_and_negative_factors": _pinned(integer_segment(0, 12), [1.0, -2.0, 3.0],
                                         [1.0, -2.0, -3.0, -1.0, 1.0, -3.0], 1.0),
    # g = -1/mu on a half step
    "zero_factor_on_a_half_step": _pinned(h_grid(0.0, 6.0, 0.5), [2.0, -4.0, 1.0],
                                          [2.0, -2.0, -6.0, 2.0], 3.0),
    # 1e20**20 overflows, then a zero factor, then forcing starts
    "zero_factor_after_an_overflowing_product": _pinned(
        integer_segment(0, 30), [0.25] * 21 + [1.25], [1e20] * 20 + [-1.0, 1.0],
        0.0, 0.25),
}


@pytest.mark.parametrize("case", EXACT_ZERO_CASES)
def test_comparison_witness_keeps_exact_zeros(case):
    inputs = EXACT_ZERO_CASES[case]
    assert np.array_equal(witness_comparison(*inputs).values,
                          ref.witness_comparison_loop(*inputs))


# 1e200 * 1e200 overflows, but x only passes through 1e-300 * 1e200
OVERFLOWING_WINDOW = _pinned(integer_segment(0, 4), [1e-300, 0.0], [0.0, 1e200, 1e200, 0.0],
                             0.0)
# a factor 4, then factors near 1e-5 whose products pass below 1e-308 by
# rounding, which sets the underflow flag; x stays near -0.8
UNDERFLOWING_STEPS = _pinned(integer_segment(0, 80), [1.0, -0.5], [3.0, -0.99999], 2.0, 0.3)


def test_comparison_witness_finite_past_an_overflowing_window():
    inputs = OVERFLOWING_WINDOW
    x = witness_comparison(*inputs).values
    assert np.allclose(x, ref.witness_comparison_loop(*inputs), rtol=COMPARISON_TOL, atol=0)
    assert x[3] == pytest.approx(1e100, rel=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_comparison_witness_raises_where_the_loop_overflows():
    inputs = _pinned(integer_segment(0, 40), 1.0, 1e20, 0.0)
    assert not np.all(np.isfinite(ref.witness_comparison_loop(*inputs)))
    with pytest.raises(DomainError):
        witness_comparison(*inputs)


def _assert_exponent_scan_bits(inputs) -> None:
    x = witness_comparison(*inputs).values
    old = ref.witness_comparison_exponents(*inputs)
    assert np.array_equal(x.view(np.uint64), old.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(comparison_inputs())
# one subnormal step that exact factors 3 carry into the normal range
@example(inputs=_pinned(integer_segment(0, 39), 0.0, 2.0, 5e-324))
def test_comparison_witness_has_the_exponent_scans_bits(inputs):
    """The scan in plain floats, and where an IEEE flag fires the scan it
    falls back to, give the bits of the scan that carries mantissas and
    exponents throughout."""
    _assert_exponent_scan_bits(inputs)


@pytest.mark.parametrize("inputs", [*EXACT_ZERO_CASES.values(), OVERFLOWING_WINDOW,
                                    UNDERFLOWING_STEPS],
                         ids=[*EXACT_ZERO_CASES, "overflowing_window", "underflowing_steps"])
def test_comparison_witness_has_the_exponent_scans_bits_past_the_normals(inputs):
    _assert_exponent_scan_bits(inputs)


@st.composite
def blocked_comparison_inputs(draw):
    """f, g, x_a, a and slack with n steps from a, n = 15, 0 or 1 mod 16, so
    the last block of 16 steps is short by one, full, or holds one step; a
    starts up to 3 points in, and slack is 0 or drawn.  The factors
    1 + mu*g take both signs and stay within [0.5, 1.5] in magnitude."""
    n = 16 * draw(st.integers(0, 48)) + draw(st.sampled_from([15, 16, 17]))
    a = draw(st.integers(0, 3))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    scale = explicit_scale(np.cumsum(rng.uniform(0.05, 2.0, a + n + 1)))
    mu = scale.graininess
    sign = rng.choice([-1.0, 1.0], a + n + 1)
    g = (sign * rng.uniform(0.5, 1.5, a + n + 1) - 1.0) / np.where(mu > 0, mu, 1.0)
    slack = draw(st.sampled_from([0.0, float(rng.uniform(0.0, 1.0))]))
    return (GridFn1(scale, rng.uniform(-2.0, 2.0, a + n + 1)), GridFn1(scale, g),
            float(rng.uniform(-2.0, 2.0)), a, slack)


@settings(max_examples=150, deadline=None)
@given(blocked_comparison_inputs())
# a > 0 with slack, on each residue of n mod 16, and n = 1, 15, 16
@example(inputs=_pinned(integer_segment(0, 34), 0.5, [0.25, -1.5], 1.5, 0.125)[:3] + (3, 0.125))
@example(inputs=_pinned(integer_segment(0, 34), 0.5, [0.25, -1.5], 1.5, 0.125)[:3] + (2, 0.125))
@example(inputs=_pinned(integer_segment(0, 35), 0.5, [0.25, -1.5], 1.5)[:3] + (2, 0.0))
@example(inputs=_pinned(integer_segment(0, 1), 0.5, 0.25, 1.5))
@example(inputs=_pinned(integer_segment(0, 15), 0.5, 0.25, 1.5, 0.25))
@example(inputs=_pinned(integer_segment(0, 16), -0.5, -1.75, 1.5))
def test_comparison_witness_has_the_all_rows_scans_bits(inputs):
    """The in-block rounds run in place, the steps are formed in step order
    and x is written from a contiguous sum: each composes the same values in
    the same order as the scan over all rows, so every bit is kept."""
    x = witness_comparison(*inputs).values
    old = ref.witness_comparison_plain(*inputs)
    assert np.array_equal(x.view(np.uint64), old.view(np.uint64))


def test_in_range_calculus_takes_no_exponents(monkeypatch):
    """exp_fn, comparison_bound and witness_comparison whose running products
    stay normal doubles run in plain floats: none calls np.frexp."""
    s = h_grid(0.0, 10.0, 0.01)
    rng = np.random.Generator(np.random.PCG64(3))
    f, g = (GridFn1(s, rng.uniform(-1.0, 1.0, len(s))) for _ in "fg")

    def frexp(*args, **kwargs):
        raise AssertionError("np.frexp called")

    monkeypatch.setattr(np, "frexp", frexp)
    exp_fn(g, 500)
    comparison_bound(1.5, f, g, 40)
    witness_comparison(f, g, 1.5, 40)
    witness_comparison(f, g, 1.5, 40, 0.25)


# -- product ladder ------------------------------------------------------------

LADDER_RTOL = 1e-12


def _leaves_the_normals(factors: np.ndarray) -> bool:
    """Whether a plain running product of 1-D factors has a prefix that is
    not a normal double, before any exact zero factor.  A prefix past the
    float range times a zero factor is NaN; it lies after the zero, so it is
    masked."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        plain = np.cumprod(factors)
    before_zero = np.cumsum(factors == 0.0) == 0
    mags = np.abs(plain[before_zero])
    return bool(np.any((mags < TINY) | ~np.isfinite(mags)))


def _check_column(factors: np.ndarray, got: np.ndarray) -> None:
    """got = the prefixes P of one column: the plain running product's bits
    while every prefix is normal, else within LADDER_RTOL of the reference
    log path; zeros from the first zero factor on either way."""
    zeros = np.flatnonzero(factors == 0.0)
    z = int(zeros[0]) if len(zeros) else len(factors)
    if not _leaves_the_normals(factors):
        assert np.array_equal(got, np.concatenate(([1.0], np.cumprod(factors))))
        return
    old = ref.ProductLadder(factors[:z])
    assert old.log_mode
    np.testing.assert_allclose(got[:z + 1], old.ratios_from(0),
                               rtol=LADDER_RTOL, atol=TINY)
    assert np.all(got[z + 1:] == 0.0)


@st.composite
def ladder_factors(draw, columns):
    """Factor arrays of shape (n,) or (n, columns) with n on both sides of one
    and two mantissa blocks, log magnitudes drifting up or down so that some
    prefixes overflow or underflow, negative factors and exact zeros."""
    n = draw(st.one_of(st.integers(0, 2100),
                       st.sampled_from([1, 999, 1000, 1001, 1999, 2000, 2001])))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    drift = draw(st.floats(-0.7, 0.7))
    width = draw(st.floats(0.0, 0.8))
    shape = (n,) if columns is None else (n, columns)
    factors = np.exp(rng.uniform(drift - width, drift + width, shape))
    factors[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.5]))] *= -1.0
    factors[rng.random(shape) < draw(st.sampled_from([0.0, 0.0, 1e-3, 0.02]))] = 0.0
    return factors


@settings(max_examples=120, deadline=None)
@given(st.one_of(ladder_factors(None), ladder_factors(3)))
# a column whose plain product overflows to inf and then meets a zero factor
# (1.95, not 2: the prefix 2**1024 rounds to inf, and the reference's sum of
# logs to just below it)
@example(np.concatenate((np.full(1100, 1.95), [0.0, 3.0])))
def test_product_ladder_matches_the_reference_ladder(factors):
    ladder = ProductLadder(factors)
    cols = factors if factors.ndim == 2 else factors[:, None]
    got = ladder.prefixes().reshape(len(factors) + 1, cols.shape[1])
    assert ladder.log_mode == any(_leaves_the_normals(c) for c in cols.T)
    for col, out in zip(cols.T, got.T):
        _check_column(col, out)


@pytest.mark.parametrize("factor, count, leaves", [
    (2.0, 1023, False), (2.0, 1024, True), (0.5, 1022, False), (0.5, 1023, True)])
def test_log_mode_starts_just_past_the_normal_doubles(factor, count, leaves):
    # 2**1023 and 2**-1022 are the largest and smallest normal powers of two
    assert ProductLadder(np.full(count, factor)).log_mode == leaves


@st.composite
def block_chains(draw):
    """Factor arrays of shape (n,) or (n, 2), n of 0, 1, 2, or at and around
    one to three multiples of PRODUCT_BLOCK: factors near 1, log magnitudes
    drifting up or down so that some prefixes leave the normal doubles, or
    spread over 2000 binades; some negative, and some zero, infinite or NaN."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2]),
                       st.builds(lambda k, d: k * PRODUCT_BLOCK + d,
                                 st.integers(1, 3), st.integers(-2, 2)),
                       st.integers(0, 3 * PRODUCT_BLOCK + 10)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    shape = (n,) if draw(st.booleans()) else (n, 2)
    kind = draw(st.sampled_from(["near one", "drift", "wide"]))
    if kind == "near one":
        width = draw(st.sampled_from([1e-4, 1e-2, 0.3]))
        factors = 1.0 + rng.uniform(-width, width, shape)
    elif kind == "drift":
        drift, width = draw(st.floats(-0.8, 0.8)), draw(st.floats(0.0, 1.0))
        factors = np.exp(rng.uniform(drift - width, drift + width, shape))
    else:
        factors = np.exp(rng.uniform(-700.0, 700.0, shape))
    factors[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] *= -1.0
    for value in draw(st.sets(st.sampled_from([0.0, np.inf, -np.inf, np.nan]), max_size=2)):
        factors[rng.random(shape) < draw(st.sampled_from([1e-4, 1e-3]))] = value
    return factors


def _finite_log_mode(ladder) -> bool:
    """Whether some finite nonzero prefix of a ladder lies outside the normal
    doubles, from its mantissas and exponents."""
    mant = ladder.mantissas
    own = np.frexp(mant)[1] + ladder.exponents
    return bool(np.any(np.isfinite(mant) & (mant != 0.0) & ((own < -1021) | (own > 1024))))


@settings(max_examples=150, deadline=None)
@given(block_chains())
# the calculus-1d comparison factors: 1 + mu*g just above 1 over four blocks
@example(np.full(3001, 1.002))
# prefixes past the float range both ways, across blocks
@example(np.full(2500, 2.0))
@example(np.full(2500, 0.5))
# a subnormal prefix whose exponent is still that of a normal double
@example(np.array([0.7777777777777777, 2.0 ** -1022, 3.0]))
# non-finite factors in a later block, after a zero, and in one column only
@example(np.concatenate((np.full(1500, 1.5), [np.inf], np.full(700, 0.7))))
@example(np.concatenate((np.full(1200, 0.9), [0.0], np.full(900, 1.1), [np.nan, 2.0])))
@example(np.stack((np.full(2100, 1.3), np.r_[np.full(1100, 0.8), -np.inf, np.ones(999)]), 1))
def test_product_ladder_has_the_block_loop_bits(factors):
    finite = bool(np.all(np.isfinite(factors)))
    def quiet():
        return np.errstate(invalid="ignore", over="ignore", divide="ignore")

    with nullcontext() if finite else quiet():
        ladder, loop = ProductLadder(factors), ref.BlockLadder(factors)
    with quiet():
        assert ladder.prefixes().tobytes() == loop.ratios_from(0).tobytes()
    # the exponent the loop carries for a non-finite prefix depends on where
    # its block starts, so a non-finite prefix is not counted
    assert ladder.log_mode == _finite_log_mode(loop)
    if finite:
        assert ladder.log_mode == loop.log_mode


@st.composite
def merged_pairs(draw):
    """Two scales to merge: b holds some of a's points, moved by 0, 0.5, 1 or
    1.5 merge tolerances either way, and both plant chains of points each
    within a merge tolerance of the one before; tags drawn at random."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    base = draw(st.sampled_from([0.0, -0.0, -7.0, 1.0, 1e6, 1e-300]))
    tol = MERGE_TOL * (1.0 + abs(base))

    def points(n):
        steps = rng.choice([0.4, 0.7, 1.0, 1.6, 3.0, 1e6, 2e11], n) * tol
        return base + np.cumsum(np.r_[0.0, steps[1:]])

    a = np.unique(points(draw(st.integers(1, 40))))
    moved = rng.choice(a, int(rng.integers(0, len(a) + 1)), replace=False)
    moved = moved + rng.choice([-1.5, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 1.5], len(moved)) * tol
    b = np.unique(np.concatenate((moved, points(draw(st.integers(1, 30))))))
    return tuple(TimeScale(x, rng.random(len(x)) < 0.5) for x in (a, b))


@settings(max_examples=200, deadline=None)
@given(merged_pairs())
@example((TimeScale(np.array([-0.0, 1.0]), np.array([False, True])),
          TimeScale(np.array([0.0, 1.0 + 1e-12]), np.array([True, False]))))
def test_union_scales_is_the_merge_loop(pair):
    got, want = union_scales(*pair), ref.union_scales_loop(*pair)
    assert got.points.tobytes() == want.points.tobytes()
    assert np.array_equal(got.dense, want.dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2]))
def test_exp_axis_matches_the_raw_cumprod(n1, n2, seed, axis):
    rng = np.random.Generator(np.random.PCG64(seed))
    c = rng.uniform(-3.0, 3.0, (n1, n2))
    c[rng.random((n1, n2)) < 0.1] = -1.0                  # zero factors
    mu = np.concatenate((rng.uniform(0.25, 2.0, max(n1, n2) - 1), [0.0]))
    mu[rng.random(len(mu)) < 0.2] = 1.0
    assert np.array_equal(bounds._exp_axis(c, mu, axis), ref.exp_axis(c, mu, axis))


# Each side of exp_fn and the anchored ratio round once per factor (the
# reciprocals once more), so at n <= 2100 factors they differ by at most
# about 4n unit roundoffs, 9.3e-13.
EXP_ANCHOR_RTOL = 1e-12


@st.composite
def anchored_coefficients(draw):
    """A regressive coefficient on n + 1 points with gaps in [0.25, 2] and an
    anchor t0: factors 1 + mu*p of log magnitude drifting by up to 600 from
    t0 to either end, spread by a drawn width, and some negative.  Anchored
    near the middle, prefixes from index 0 leave the normal doubles."""
    n = draw(st.one_of(st.integers(1, 2100), st.sampled_from([1, 2, 1000, 2100])))
    t0 = draw(st.integers(0, n))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    reach = max(t0, n - t0) / n
    drift = draw(st.floats(-1.0, 1.0)) * min(600.0 / reach, float(n)) / n
    width = draw(st.floats(0.0, 0.8))
    factors = np.exp(rng.uniform(drift - width, drift + width, n))
    factors[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.5]))] *= -1.0
    mu = rng.uniform(0.25, 2.0, n)
    s = TimeScale(np.concatenate(([0.0], np.cumsum(mu))))
    return GridFn1(s, np.append((factors - 1.0) / s.graininess[:-1], 0.0)), t0


@settings(max_examples=150, deadline=None)
@given(anchored_coefficients())
def test_exp_fn_agrees_with_the_anchored_ratio(case):
    """exp_fn, running outward from its anchor, has the bits of the prefixes
    from index 0 over the prefix at the anchor where the anchor is 0, and is
    within EXP_ANCHOR_RTOL of them elsewhere."""
    p, t0 = case
    want0 = ref.exp_fn_anchored(p, 0)
    if np.all(np.isfinite(want0)):
        assert exp_fn(p, 0).values.tobytes() == want0.tobytes()
    else:
        with pytest.raises(DomainError):
            exp_fn(p, 0)
    np.testing.assert_allclose(exp_fn(p, t0).values, ref.exp_fn_anchored(p, t0),
                               rtol=EXP_ANCHOR_RTOL, atol=0)


def test_exp_fn_of_a_product_that_underflows_and_comes_back():
    # 32 factors near 1e-11, then 32 near 1e11: the running product passes
    # through 1e-352, which a plain cumprod flushes to 0
    rng = np.random.Generator(np.random.PCG64(5))
    mags = np.concatenate((rng.uniform(1.0, 2.0, 32) * 1e-11,
                           rng.uniform(1.0, 2.0, 32) * 1e11))
    s = integer_segment(0, 64)
    p = GridFn1(s, np.append(mags - 1.0, 0.0))
    factors = 1.0 + p.values[:-1]
    exact = np.cumprod([Fraction(1)] + [Fraction(x) for x in factors])
    want = np.array([float(x) for x in exact])
    got = exp_fn(p, 0).values
    with np.errstate(under="ignore"):
        old = ref.ProductLadder(factors).ratios_from(0)
        assert np.cumprod(factors)[-1] == 0.0
    normal = want >= TINY
    assert normal[-1] and got[-1] > 0.1
    new_err = np.abs(got[normal] / want[normal] - 1.0).max()
    old_err = np.abs(old[normal] / want[normal] - 1.0).max()
    assert new_err <= 1e-14 and new_err <= old_err
    assert np.all(got[~normal] < TINY)


def test_a_zero_two_variable_factor_gives_zeros():
    d = TimeScale2D(integer_segment(0, 4), integer_segment(0, 4))
    b = np.full(d.shape, 0.5)
    b[0, 0] = -1.0                      # c[0, 1] = -1, so 1 + mu1*c is 0 there
    A = GridFn2(d, np.ones(d.shape))
    z = bounds.gronwall_2d(A, GridFn2(d, b)).values
    c = running_integral(GridFn2(d, b), 2).values
    assert np.array_equal(z, ref.exp_axis(c, d.mu1, 1))
    assert np.all(z[1:, 1] == 0.0) and np.all(z[:, 0] == 1.0)


@pytest.mark.parametrize("axis", [1, 2])
def test_an_overflowing_axis_product_names_its_axis(axis):
    c = np.full((40, 40), 1e20)
    mu = np.ones(40)
    name = ("first", "second")[axis - 1]
    with pytest.raises(DomainError, match=f"{name}-variable exponential overflowed"):
        bounds._exp_axis(c, mu, axis)
    with pytest.raises(ValueError, match=f"{name}-variable exponential overflowed"):
        ref.exp_axis(c, mu, axis)


@pytest.mark.parametrize("points", [[0.0], [0.0, 0.5]], ids=["one", "two"])
def test_exponentials_on_one_and_two_point_scales(points):
    s = explicit_scale(points)
    g = GridFn1(s, np.full(len(s), 3.0))
    assert np.array_equal(exp_fn(g, len(s) - 1).values, [1.0, 1.0 / 2.5][:len(s)][::-1])
    assert np.array_equal(comparison_bound(2.0, g, g, 0).values, [2.0, 6.5][:len(s)])
    c = np.full((len(s), 3), 3.0)
    assert np.array_equal(bounds._exp_axis(c, s.graininess, 1),
                          ref.exp_axis(c, s.graininess, 1))
    assert np.array_equal(bounds._exp_axis(c.T, s.graininess, 2),
                          ref.exp_axis(c.T, s.graininess, 2))


# -- compensated cumulative sums --------------------------------------------

# Magnitudes from 1e-200 to 1e200, kept far enough from the float limits
# that no prefix overflows.
mixed = st.builds(lambda m, e: m * 10.0 ** e,
                  st.floats(-10.0, 10.0, allow_nan=False), st.integers(-200, 200))


@st.composite
def cancelling(draw):
    """Terms followed later by their negatives, interleaved with small ones."""
    big = draw(st.lists(mixed, max_size=20))
    small = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(big), max_size=len(big)))
    vals = [x for pair in zip(big, small) for x in pair] + [-x for x in big[::-1]]
    return draw(st.permutations(vals)) if draw(st.booleans()) else vals


def _seamed(n: int) -> np.ndarray:
    """n terms of both signs and sizes 1e-200 to 1e200, some cancelling."""
    rng = np.random.Generator(np.random.PCG64(n))
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)
    vals[n // 2::7] = -vals[:len(vals[n // 2::7])]
    return vals


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(mixed, max_size=60), cancelling()))
# chunks of SUM_CHUNK terms: one short, one full, one and one term, and four
@example(vals=_seamed(SUM_CHUNK - 1))
@example(vals=_seamed(SUM_CHUNK))
@example(vals=_seamed(SUM_CHUNK + 1))
@example(vals=_seamed(3 * SUM_CHUNK + 5))
def test_neumaier_cumsum_is_bit_identical_to_the_loop(vals):
    want = ref.neumaier_cumsum_loop(vals).view(np.uint64)
    assert np.array_equal(neumaier_cumsum(vals).view(np.uint64), want)
    # into a reversed view of fresh memory, and over the values themselves
    arr = np.array(vals, dtype=float)
    rev = np.empty(len(arr))[::-1]
    assert neumaier_cumsum(arr, out=rev) is rev
    assert np.array_equal(rev.view(np.uint64), want)
    assert neumaier_cumsum(arr, out=arr) is arr
    assert np.array_equal(arr.view(np.uint64), want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
def test_neumaier_cumsum_of_a_matrix_is_the_loop_per_column(rows, cols, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
    down = np.array([ref.neumaier_cumsum_loop(vals[:, j]) for j in range(cols)]).T
    assert np.array_equal(neumaier_cumsum(vals), down.reshape(rows, cols))


@pytest.mark.parametrize("vals", [[], [3.5], [-0.0], [1e300]])
def test_neumaier_cumsum_of_zero_and_one_terms(vals):
    out = neumaier_cumsum(vals)
    assert out.shape == (len(vals),)
    assert np.array_equal(out, ref.neumaier_cumsum_loop(vals))


@pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
def test_running_integral_on_a_single_row_or_column(shape):
    d = edge_domain(shape)
    f = GridFn2(d, np.arange(1.0, 6.0).reshape(shape))
    along = 1 if shape[0] > 1 else 2
    across = 3 - along
    assert np.array_equal(running_integral(f, across).values, np.zeros(shape))
    expect = np.concatenate(([0.0], np.cumsum(0.7 * np.arange(1.0, 5.0)))).reshape(shape)
    assert np.allclose(running_integral(f, along).values, expect, rtol=1e-15)


# -- verify report writers ---------------------------------------------------

# Values whose spelling differs between CSV and JSON, or that a formatter can
# get wrong: signed zero, integer-valued floats (6.0 writes as 6 in CSV), the
# largest exponents, the smallest subnormal and the non-finite values.
SPECIAL_FLOATS = [-0.0, 0.0, 6.0, -3.0, 0.1, 1e16, -1e300, 5e-324, math.inf,
                  -math.inf, math.nan]
# A summary with a nested "points" key and a string that spells the
# top-level key, which the streamed JSON must not mistake for its own.
SUMMARY = {"instances_run": 2, "worst_relative_violation": 0.0,
           "variant_comparison": None, "theorem": "pointwise",
           "scale1": {"kind": "explicit", "points": [0.0, 0.5]},
           "digests": [{"min_slack": math.inf, "max_violation": -0.0,
                        "diagnostics": ['p negative\n  "points": []']}]}


def fake_report(domain, bound, witness=None):
    """What the writers read of a BoundReport; GridFn2 would refuse the
    non-finite values."""
    return SimpleNamespace(
        bound=SimpleNamespace(domain=domain, values=np.asarray(bound, dtype=float)),
        witness=None if witness is None else SimpleNamespace(values=np.asarray(witness)))


def instances(reports) -> list:
    """reports, each one instance or a stack of several, as one report per
    instance."""
    parts = []
    for r in reports:
        shape = (-1, *r.bound.domain.shape)
        bounds = np.reshape(r.bound.values, shape)
        witnesses = [None] * len(bounds) if r.witness is None \
            else np.reshape(r.witness.values, shape)
        parts += [fake_report(r.bound.domain, b, w) for b, w in zip(bounds, witnesses)]
    return parts


def assert_writers_match(reports):
    """The writers on reports, each one instance or a stack, against the row
    loops and the block writer of one report per instance."""
    parts = instances(reports)
    old_csv, old_json = io.StringIO(), io.StringIO()
    ref.write_csv(old_csv, parts)
    ref.write_json(old_json, SUMMARY, parts)
    # blocks of one point and of a few; of part of an instance, so that an
    # instance is split across blocks; of one point more than an instance, so
    # that a block spans two instances of a stack; and the default
    size = reports[0].bound.domain.shape[0] * reports[0].bound.domain.shape[1] \
        if reports else 1
    for block in (1, 5, size // 2 + 1, size + 1, cli._BLOCK_POINTS):
        new_csv, new_json, ref_csv, ref_json = (io.BytesIO() for _ in range(4))
        with mock.patch.object(cli, "_BLOCK_POINTS", block):
            cli._write_csv(new_csv, reports)
            cli._write_json(new_json, SUMMARY, reports)
            ref.write_csv_instances(ref_csv, parts)
            ref.write_json_instances(ref_json, SUMMARY, parts)
        assert new_csv.getvalue() == ref_csv.getvalue() == old_csv.getvalue().encode()
        assert new_json.getvalue() == ref_json.getvalue() == old_json.getvalue().encode()


@st.composite
def report_batches(draw):
    """One to three reports on a drawn lattice, each one instance or a stack
    of one to three, some without a witness."""
    domain = TimeScale2D(draw(scales()), draw(scales()))
    n = domain.shape[0] * domain.shape[1]
    values = st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                      min_size=n, max_size=n)

    def report():
        stack = draw(st.sampled_from([(), (1,), (2,), (3,)]))
        count = math.prod(stack)

        def grid():
            return np.reshape([draw(values) for _ in range(count)], (*stack, *domain.shape))
        return fake_report(domain, grid(), draw(st.one_of(st.none(), st.builds(grid))))
    return [report() for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=80, deadline=None)
@given(report_batches())
def test_report_writers_match_the_row_loops(reports):
    assert_writers_match(reports)


@pytest.mark.parametrize("shape", EDGE_SHAPES + [(4, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_report_writers_match_on_thin_lattices(shape):
    domain = edge_domain(shape)
    special = np.resize(SPECIAL_FLOATS, shape)
    reports = [fake_report(domain, special, special[::-1, ::-1]),
               fake_report(domain, np.full(shape, 6.0)),
               fake_report(domain, np.full(shape, 1e16), np.full(shape, -0.0))]
    assert_writers_match(reports)
    assert_writers_match(reports[1:2])
    assert_writers_match([])
    stack = fake_report(domain, np.stack((special, -special)),
                        np.stack((special[::-1, ::-1], np.full(shape, 6.0))))
    assert_writers_match([stack, reports[1], fake_report(domain, np.stack((special,) * 3))])


# Digest values that a column formatter can spell wrong: NaN, the infinities
# and signed zero; text with quotes, backslashes, control characters, "%" and
# characters past ASCII; ints past 64 bits.  One key holds a quote, "%s" and
# a backslash.
DIGEST_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
DIGEST_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t%é€😀'),
                                st.characters()), max_size=8)
DIGEST_COLUMNS = {"instance": st.integers(), "case": DIGEST_TEXT,
                  "min_slack": DIGEST_FLOATS, "violation_count": st.integers(0, 2 ** 70),
                  "first_variable_dominates": st.booleans(),
                  "diagnostics": st.lists(DIGEST_TEXT, max_size=3),
                  'odd "%s" key\\': DIGEST_FLOATS}
# Values that no column of one type holds.
ODD_VALUES = st.one_of(st.none(), st.integers(), DIGEST_FLOATS, st.booleans(), DIGEST_TEXT,
                       st.lists(st.integers(), min_size=1, max_size=2),
                       st.dictionaries(DIGEST_TEXT, st.integers(), max_size=2))


@st.composite
def summaries(draw):
    """A summary payload whose digests share a drawn set of keys, or, at
    times, whose last digest has a key more, a key less or an odd value;
    and whether it is left as drawn, with digests and keys, which the
    column formatter takes."""
    keys = draw(st.lists(st.sampled_from(sorted(DIGEST_COLUMNS)), unique=True))
    digests = [{key: draw(DIGEST_COLUMNS[key]) for key in keys}
               for _ in range(draw(st.integers(0, 4)))]
    change = draw(st.sampled_from(["none", "none", "add", "drop", "odd"]))
    if digests and change == "add":
        digests[-1]["extra"] = draw(ODD_VALUES)
    elif digests and keys and change in ("drop", "odd"):
        key = draw(st.sampled_from(keys))
        if change == "drop":
            del digests[-1][key]
        else:
            digests[-1][key] = draw(ODD_VALUES)
    plain = bool(digests and keys) and change == "none"
    return {**SUMMARY, "digests": digests, "theorem": 'x\n  "digests": []'}, plain


@settings(max_examples=300, deadline=None)
@given(summaries())
def test_summary_text_matches_json_dumps(drawn):
    """The summary with its digests formatted by column is json.dumps's, byte
    for byte, in both report formats; the digests that the column formatter
    declines go to json.dumps."""
    payload, plain = drawn
    if plain:
        assert cli._digests_text(payload["digests"]) is not None
    assert cli._summary_text(payload) == ref.summary_json(payload)
    new, old = io.BytesIO(), io.BytesIO()
    cli._write_json(new, payload, [])
    ref.write_json_instances(old, payload, [])
    assert new.getvalue() == old.getvalue()


# -- complexity guard --------------------------------------------------------

# C-level entry points that reduce an array: math.fsum, ndarray.sum/cumsum/
# min/argmin, ufunc reduce/accumulate and einsum's core.
REDUCTIONS = {"fsum", "sum", "cumsum", "min", "argmin", "reduce", "accumulate",
              "c_einsum"}


@contextmanager
def counted_reductions():
    """Count calls of C reductions made in the block, whatever module makes them.

    ndarray methods cannot be monkeypatched, so the count comes from a
    profile hook that sees every C call.
    """
    seen = {"n": 0}

    def hook(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") in REDUCTIONS:
            seen["n"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


def _guard_inputs(n):
    d = TimeScale2D(integer_segment(0, n - 1), q_grid(1.01, n - 1))
    p = GridFn2(d, np.full(d.shape, 0.5))
    s = GridFn1(d.scale1, np.linspace(0.1, 0.2, n))
    t = GridFn1(d.scale2, np.linspace(0.1, 0.2, n))
    kernel = KernelOracle.from_table(d, np.full((n, n, n, n), 0.01))
    kernel_case = KernelInputs(p=p, q=p, k=kernel)
    ramp = np.linspace(0.01, 0.02, n * n).reshape(1, n, n)
    factored = KernelOracle.separable(d, np.concatenate((ramp, ramp.transpose(0, 2, 1))),
                                      np.concatenate((ramp[:, ::-1], ramp)))
    return {
        "pointwise": (witness_pointwise, ref.witness_pointwise, (p, p, p)),
        "kernel": (witness_kernel, ref.witness_kernel, (p, p, kernel)),
        "system": (witness_system, ref.witness_system, (0.5, 0.5, p, p, p, p)),
        "integrodynamic": (witness_integrodynamic, ref.witness_integrodynamic,
                           (s, t, p)),
        "bound_kernel": (bounds.compute_bound,
                         lambda inputs: ref.kernel_integrals(inputs.k, inputs.p, inputs.q),
                         (kernel_case,)),
        "kernel_hypotheses": (bounds.check_hypotheses,
                              lambda inputs: ref.kernel_difference_diagnostics(inputs.k),
                              (kernel_case,)),
        "factored_kernel": (witness_kernel, ref.witness_kernel, (p, p, factored)),
        "factored_integrals": (lambda k, p, q: (bounds._kernel_integrals(k, p, q),
                                                bounds._kernel_checks(k)),
                               ref.kernel_integrals, (factored, p, p)),
        "factored_bound": (bounds.compute_bound,
                           lambda inputs: ref.kernel_integrals(inputs.k, inputs.p,
                                                               inputs.q),
                           (KernelInputs(p=p, q=p, k=factored),)),
    }


@pytest.mark.parametrize("case", ["pointwise", "kernel", "system", "integrodynamic",
                                  "bound_kernel", "kernel_hypotheses", "factored_kernel",
                                  "factored_integrals", "factored_bound"])
def test_witness_reductions_grow_with_rows_not_cells(case):
    n = 40
    fast, slow, args = _guard_inputs(n)[case]
    with counted_reductions() as count:
        fast(*args)
    assert count["n"] <= 8 * n
    # the per-cell reference makes one reduction per lattice point, which
    # the bound above rules out
    with counted_reductions() as count:
        slow(*args)
    assert count["n"] >= (n - 1) ** 2 > 8 * n


@contextmanager
def counted_steps():
    """Count C calls and executed Python lines in the block.

    numpy ufuncs raise no C-call event, and the per-point loop makes no C
    call per point, so Python lines are what grows with a per-point step.
    """
    seen = {"n": 0}

    def profile(frame, event, arg):
        if event == "c_call":
            seen["n"] += 1

    def trace(frame, event, arg):
        if event == "line":
            seen["n"] += 1
        return trace

    previous = sys.getprofile(), sys.gettrace()
    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        yield seen
    finally:
        sys.settrace(previous[1])
        sys.setprofile(previous[0])


# Steps a doubling of the scale may add: one scan round.
STEPS_PER_DOUBLING = 16


def test_comparison_witness_steps_grow_with_log_n():
    def growth(fn):
        """Steps added from 2**10 to 2**14 points, four doublings."""
        counts = []
        for n in (2 ** 10, 2 ** 14):
            s = integer_segment(0, n - 1)
            args = (GridFn1(s, np.full(n, 0.5)), GridFn1(s, np.full(n, 1e-3)), 1.0, 0, 0.1)
            with counted_steps() as count:
                fn(*args)
            counts.append(count["n"])
        return counts[1] - counts[0]

    assert growth(witness_comparison) <= 4 * STEPS_PER_DOUBLING
    # the loop's steps per point, 15 * 2**10 more, break the bound above
    assert growth(ref.witness_comparison_loop) >= 15 * 2 ** 10


def test_cauchy_integral_steps_do_not_grow_with_n():
    # values in [0.5, 1.5) on unit steps take two binary exponents, so the
    # exact sum combines two bins whatever the length
    counts = []
    for n in (2 ** 10, 2 ** 14):
        f = GridFn1(integer_segment(0, n), np.random.default_rng(n).random(n + 1) + 0.5)
        with counted_steps() as count:
            cauchy_integral(f, 0, n)
        counts.append(count["n"])
    assert counts[1] == counts[0]


@st.composite
def realizer_scales(draw):
    """Integer, q, h and explicit scales of 1 to 5 points; one point only
    explicit, two points of every kind."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["integer", "q", "h", "explicit"]))
    if n == 1 or kind == "explicit":
        ticks = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
        return explicit_scale(np.sort(ticks) / 4.0)
    if kind == "integer":
        start = draw(st.integers(-3, 3))
        return integer_segment(start, start + n - 1)
    if kind == "q":
        return q_grid(draw(st.sampled_from([1.05, 1.5, 2.0])), n - 1)
    h = draw(st.sampled_from([0.1, 0.25, 1.5]))
    return h_grid(0.0, (n - 1) * h, h)


# Mostly nonnegative, as coefficients must be.
NUMBERS = st.floats(0.0, 2.0) | st.floats(-2.0, 2.0)


def number_lists(shape, numbers=NUMBERS):
    if not shape:
        return numbers
    return st.lists(number_lists(shape[1:], numbers), min_size=shape[0], max_size=shape[0])


@st.composite
def fn_specs(draw, shape, families=FN_FAMILIES):
    """A descriptor of one of families, sampled or with fixed fields drawn for a
    scale or lattice of the given shape: polynomial coefficients with one
    index level per axis, or a coefficient list on a lattice; tabulated
    values of that shape, one point short on the first axis, or transposed,
    and nonnegative so that only their shape can be wrong."""
    family = draw(st.sampled_from(families))
    fields = {}
    # 'any' takes no fields (test_family_any_rejects_every_field)
    if family != "any" and draw(st.booleans()):
        keys = {"constant": ["value"], "polynomial": ["coeffs"],
                "exponential": ["amplitude", "rate", "rate1", "rate2"],
                "tabulated": ["values"], "sin": ["omega"],
                "affine_product": ["params"]}[family]
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)):
            if key == "coeffs":
                levels = draw(st.sampled_from([len(shape), 1]))
                sizes = draw(st.lists(st.integers(1, 3), min_size=levels, max_size=levels))
                fields[key] = draw(number_lists(sizes))
            elif key == "values":
                short = (max(shape[0] - 1, 1), *shape[1:])
                fields[key] = draw(number_lists(draw(st.sampled_from(
                    [shape, short, shape[::-1]])), st.floats(0.0, 2.0)))
            elif key == "params":
                fields[key] = draw(st.lists(NUMBERS, min_size=7, max_size=7))
            else:
                fields[key] = draw(NUMBERS)
    return FnSpec(family, **fields)


@pytest.mark.parametrize("name", [*config._NUMBER_FIELDS, *config._LIST_FIELDS])
def test_family_any_rejects_every_field(name):
    """A field under family 'any', named or implied, raises ConfigError
    naming the field, rather than being ignored by the drawn family."""
    value = [1.0, 2.0] if name in config._LIST_FIELDS else 2.0
    for spec in (lambda: FnSpec(**{name: value}), lambda: FnSpec("any", **{name: value}),
                 lambda: config.parse_fn({name: value})):
        with pytest.raises(ConfigError, match=f"'{name}' needs a 'family'"):
            spec()
    assert realize_scalar(config.parse_fn({}), np.random.default_rng(0)) > 0.0


def outcome(call, seed):
    """(result, stream state after the call), ConfigError counted as a result."""
    rng = None if seed is None else np.random.Generator(np.random.PCG64(seed))
    try:
        out = call(rng)
    except ConfigError as exc:
        out = exc
    return out, None if rng is None else rng.bit_generator.state


def assert_same_bits(new, old):
    if isinstance(old, ConfigError):
        assert isinstance(new, ConfigError), f"{new!r} where the reference raised {old!r}"
        return
    assert not isinstance(new, ConfigError), f"{new!r} where the reference gave values"
    if isinstance(old, float):
        assert np.float64(new).tobytes() == np.float64(old).tobytes()
        return
    if isinstance(old, KernelOracle):
        # alpha takes the VALUE_CAP scaling that the table took: one rounding more
        new, old = new.table(), old.table()
        assert new.shape == old.shape
        assert np.all(np.abs(new - old) <= KERNEL_EXPANSION_RTOL * np.abs(old))
        return
    assert new.values.shape == old.values.shape
    assert new.values.tobytes() == old.values.tobytes()


# A factored config kernel expanded against the parent's dense table.
KERNEL_EXPANSION_RTOL = 1e-15

# A seed, or in one draw of five no random stream at all.
SEEDS = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 4)).map(
    lambda pair: pair[0] if pair[1] else None)


@settings(max_examples=200, deadline=None)
@given(realizer_scales(), realizer_scales(), SEEDS, st.booleans(), st.data())
def test_realizers_match_the_per_dimension_switches(s1, s2, seed, monotone, data):
    domain = TimeScale2D(s1, s2)
    spec1 = data.draw(fn_specs((len(s1),)))
    spec2 = data.draw(fn_specs(domain.shape))
    kernel = data.draw(fn_specs(domain.shape, ("constant", "affine_product", "any", "sin")))
    scalar = data.draw(fn_specs((1,), ("constant", "any", "polynomial")))
    calls = [
        (lambda rng: realize_1d(spec1, s1, rng, monotone),
         lambda rng: ref.realize_1d(spec1, s1, rng, monotone)),
        (lambda rng: realize_2d(spec2, domain, rng),
         lambda rng: ref.realize_2d(spec2, domain, rng)),
        (lambda rng: realize_kernel(kernel, domain, rng),
         lambda rng: ref.realize_kernel(kernel, domain, rng)),
        (lambda rng: realize_scalar(scalar, rng),
         lambda rng: ref.realize_scalar(scalar, rng)),
    ]
    for new_call, old_call in calls:
        (new, new_state), (old, old_state) = outcome(new_call, seed), outcome(old_call, seed)
        assert_same_bits(new, old)
        assert new_state == old_state


# Scales out to 1500 and to 1e200: a drawn exponential leaves the float range
# there and takes the log-space cap, and a drawn polynomial of degree 2 or
# more leaves it on the last.
FAR_SCALES = st.sampled_from([explicit_scale([0.0, 1.0, 1500.0]),
                              explicit_scale([-2.0, 0.0, 1e3, 1.5e3]),
                              explicit_scale([0.0, 1e200])])
STACK_SCALES = realizer_scales() | FAR_SCALES
STACK_FAMILIES = ("any", "constant", "polynomial", "exponential", "tabulated")


def instance_values(result, count: int) -> list[np.ndarray]:
    """The values of each instance a realizer returned for count draws."""
    vals = np.asarray(getattr(result, "values", result), dtype=float)
    return list(vals) if count > 1 else [vals]


def assert_stack_matches_the_reference(draw_one, realize, reference, seed, count):
    """count draws leave the stream where count reference calls leave it (a
    call draws all it draws before it checks anything).  Realized one at a
    time, as verify runs a stack that raised, each gives the reference's
    bits or its error.  The stack of all of them, and the stack of those
    that realize followed by those that raise, raise where one of them does;
    otherwise, like the stack of those that realize, they give each instance
    the reference's bits."""
    new_rng, old_rng = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    draws = [draw_one(new_rng) for _ in range(count)]

    def realized(call, n):
        try:
            return instance_values(call(), n)
        except TscaleError as exc:
            return [exc]

    expected = [realized(lambda: reference(old_rng), 1)[0] for _ in range(count)]
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    passed = [k for k, old in enumerate(expected) if not isinstance(old, TscaleError)]
    failed = [k for k in range(count) if k not in passed]
    for ks in [[k] for k in range(count)] + [list(range(count)), passed, passed + failed]:
        got = realized(lambda: realize([draws[k] for k in ks]), len(ks)) if ks else []
        if len(ks) > 1 and set(ks) & set(failed):
            assert isinstance(got[0], TscaleError), "a stack realized an instance that raises"
            continue
        for new, old in zip(got, (expected[k] for k in ks), strict=True):
            if isinstance(old, TscaleError):
                assert (type(new), str(new)) == (type(old), str(old))
            else:
                assert new.tobytes() == old.tobytes()


@settings(max_examples=200, deadline=None)
@given(STACK_SCALES, STACK_SCALES, st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
       st.booleans(), st.data())
def test_stacked_realizers_match_the_per_instance_reference(s1, s2, seed, count, monotone,
                                                            data):
    """Every family, fixed and sampled, on scales and lattices where draws take
    the VALUE_CAP scaling, the log-space cap or leave the float range; the
    monotone 1-D coefficients (a, b) and the system constants (c1, c2)."""
    domain = TimeScale2D(s1, s2)
    spec1 = data.draw(fn_specs((len(s1),), STACK_FAMILIES))
    spec2 = data.draw(fn_specs(domain.shape, STACK_FAMILIES))
    scalar = data.draw(fn_specs((1,), ("constant", "any")))
    cases = [
        (lambda rng: config.draw(spec1, (len(s1),), rng, monotone),
         lambda draws: realize_1d(spec1, s1, monotone_positive=monotone, draws=draws),
         lambda rng: ref.instance_realize_1d(spec1, s1, rng, monotone)),
        (lambda rng: config.draw(spec2, domain.shape, rng),
         lambda draws: realize_2d(spec2, domain, draws=draws),
         lambda rng: ref.instance_realize_2d(spec2, domain, rng)),
        (lambda rng: config.draw_scalar(scalar, rng),
         lambda draws: realize_scalar(scalar, draws=draws),
         lambda rng: ref.instance_realize_scalar(scalar, rng)),
    ]
    for draw_one, realize, reference in cases:
        assert_stack_matches_the_reference(draw_one, realize, reference, seed, count)


def test_a_stack_of_exponentials_takes_each_cap_as_the_reference_does():
    """Sampled exponentials on a scale and a lattice out to 3000: in one stack
    some take the log-space cap, some the VALUE_CAP scaling and, on the
    lattice, where rates may be negative, some neither, each with the
    reference's bits."""
    s = explicit_scale([0.0, 1.0, 3000.0])
    domain, spec, count = TimeScale2D(s, s), FnSpec("exponential"), 24
    for draw_one, realize, reference, uncapped in [
            (lambda rng: config.draw(spec, domain.shape, rng),
             lambda draws: realize_2d(spec, domain, draws=draws),
             lambda rng: ref.instance_realize_2d(spec, domain, rng), 3),
            (lambda rng: config.draw(spec, (len(s),), rng, True),
             lambda draws: realize_1d(spec, s, monotone_positive=True, draws=draws),
             lambda rng: ref.instance_realize_1d(spec, s, rng, True), 0)]:
        assert_stack_matches_the_reference(draw_one, realize, reference, 11, count)
        rng = np.random.Generator(np.random.PCG64(11))
        # the largest value before any cap: each positive rate at 3000
        with np.errstate(over="ignore"):
            raw = [amp * np.exp(3000.0 * sum(max(r, 0.0) for r in rates))
                   for _, (amp, rates) in (draw_one(rng) for _ in range(count))]
        assert sum(not math.isfinite(top) for top in raw) >= 3
        assert sum(VALUE_CAP < top < math.inf for top in raw) >= 3
        assert sum(top <= VALUE_CAP for top in raw) >= uncapped


@settings(max_examples=100, deadline=None)
@given(realizer_scales(), realizer_scales(), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.0, 3.0), min_size=7, max_size=7))
def test_config_kernel_factors_expand_to_the_dense_table(s1, s2, seed, params):
    """Fixed parameters give the reference table's bits.  Drawn ones leave the
    stream as the reference does and are capped at VALUE_CAP as the reference
    caps its table.  Where the factors are nonnegative, as drawn ones are, the
    largest value is max alpha * max beta exactly."""
    domain = TimeScale2D(s1, s2)
    fixed = FnSpec("affine_product", params=params)
    new = realize_kernel(fixed, domain)
    assert new.factors is not None and new._table is None
    assert new.table().tobytes() == ref.realize_kernel(fixed, domain).table().tobytes()
    alpha, beta = new.factors
    if alpha.min() >= 0 and beta.min() >= 0:
        assert new.table().max() == alpha.max() * beta.max()
    (new, new_state), (old, old_state) = (
        outcome(lambda rng: fn(FnSpec("affine_product"), domain, rng), seed)
        for fn in (realize_kernel, ref.realize_kernel))
    assert new_state == old_state
    assert_same_bits(new, old)
    top, old_top = new.table().max(), old.table().max()
    assert top == new.factors[0].max() * new.factors[1].max()
    assert top <= VALUE_CAP * (1 + KERNEL_EXPANSION_RTOL)
    assert abs(top - old_top) <= KERNEL_EXPANSION_RTOL * old_top


@settings(max_examples=100, deadline=None)
@given(realizer_scales(), st.data())
def test_classical_forms_match_the_reference(scale, data):
    spec = data.draw(fn_specs(data.draw(st.sampled_from([(len(scale),), (len(scale), 2)]))))
    try:
        forms = ref.classical_forms(spec)
    except ConfigError:
        with pytest.raises(ConfigError):
            classical_forms(spec)
        return
    if spec.family == "polynomial" and np.ndim(spec.coeffs) != 1:
        with pytest.raises(ConfigError, match="one nesting level per axis"):
            classical_forms(spec)
        return
    for new_fn, old_fn in zip(classical_forms(spec), forms):
        for t in scale.points:
            assert np.float64(new_fn(t)).tobytes() == np.float64(old_fn(t)).tobytes()
