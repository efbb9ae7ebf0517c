"""The pointwise and system bounds, and the default witnesses, on kappa x kappa.

Every bound is reported on kappa x kappa and computed there only, so a value
in the last row or column, which the bound never reads, cannot overflow it.
tests/references.py keeps the pointwise and system bounds as assembled on
the full lattice by gronwall_2d and then cut.  Wherever that reference
returns, the kappa bodies must have its bits; wherever it raises, they must
still return.  The default system and integro-dynamic witnesses are swept
on kappa x kappa and must have the bits of the full-lattice sweep's
kappa x kappa values wherever that sweep stays finite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import references as ref
from tscale import (GridFn1, GridFn2, IntegrodynamicInputs, KernelInputs, KernelOracle,
                    PointwiseInputs, SystemInputs, TimeScale2D, TscaleError, compute_bound,
                    explicit_scale, parse_scale, witnesses)

# Where a scale's last step may end: the next ordinary point (None, drawn
# half the time), or far out.
LAST_POINTS = [None, None, None, 1e10, 1e150, 1e300]
# Factors for the last row or column of a grid function's values, when they
# may be far out.
FAR_VALUES = [1.0, 1e200, 1e300]


@st.composite
def far_scales(draw):
    """An integer or geometric scale of 2 to 7 points whose last step is
    ordinary or reaches far out."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        points = list(np.arange(n, dtype=float) + draw(st.integers(-3, 3)))
    else:
        points = list(draw(st.sampled_from([1.5, 2.0])) ** np.arange(n, dtype=float))
    last = draw(st.sampled_from(LAST_POINTS))
    return explicit_scale(points + [points[-1] + 1.0 if last is None else last])


def returned(fn, *args):
    try:
        return fn(*args)
    except TscaleError:
        return None


@settings(max_examples=200, deadline=None)
@given(far_scales(), far_scales(), st.integers(0, 3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(explicit_scale([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 1e150]),
         explicit_scale([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 1e150]), 0, False, 989)
def test_kappa_bounds_keep_the_full_lattice_bits(s1, s2, count, far, seed):
    """Drawn lattices and stacks (count 0 is one instance), with values of
    moderate size on kappa x kappa and, where far, ordinary or huge values in
    the last row and column: the bounds and default witnesses have the
    reference's bits where it returns, and return where it raises."""
    d = TimeScale2D(s1, s2)
    rng = np.random.default_rng(seed)
    stack = (count,) if count else ()

    def grid(low=-0.5):
        vals = rng.uniform(low, 2.0, (*stack, *d.shape))
        if far:
            vals[..., -1, :] *= rng.choice(FAR_VALUES)
            vals[..., :-1, -1] *= rng.choice(FAR_VALUES)
        return GridFn2(d, vals)

    p, q, k = grid(), grid(), grid()
    new = compute_bound(PointwiseInputs(p, q, k)).bound.values
    old = returned(ref.pointwise_bound_full, p, q, k)
    assert np.all(np.isfinite(new))
    if old is not None:
        assert new.tobytes() == old.tobytes()

    c1, c2 = (rng.uniform(0.0, 2.0, stack) for _ in range(2))
    hs = [grid() for _ in range(4)]
    report = compute_bound(SystemInputs(c1, c2, *hs))
    old = returned(ref.system_bound_full, c1, c2, *hs)
    assert np.all(np.isfinite(report.bound.values))
    if old is not None:
        assert report.bound.values.tobytes() == old.tobytes()
    full = returned(witnesses.witness_system, c1, c2, *hs)
    if full is not None:
        # summed on kappa x kappa: the last row and column may overflow the sum
        combined = full[0].values[..., :-1, :-1] + full[1].values[..., :-1, :-1]
        assert report.witness.values.tobytes() == combined.tobytes()

    if min(d.shape) < 2:
        return
    a, b = (GridFn1(s, 1.0 + np.cumsum(rng.uniform(0.0, 1.0, (*stack, len(s))), axis=-1))
            for s in (s1, s2))
    c = grid(low=0.0)
    report = compute_bound(IntegrodynamicInputs(a, b, c))
    full = returned(witnesses.witness_integrodynamic, a, b, c)
    if full is not None:
        assert report.witness.values.tobytes() == full[0].values[..., :-1, :-1].tobytes()


def far_lattice() -> TimeScale2D:
    return TimeScale2D(parse_scale("explicit:0,1,2,1e300").build(),
                       parse_scale("explicit:0,1,1e300").build())


def test_a_far_last_point_leaves_the_bounds_finite():
    """p = q = k = 1, and the system whose H is 1 and c1 + c2 is 1, on a
    lattice whose last steps reach 1e300: the full-lattice assembly leaves
    the float range, the kappa bounds equal the constant-kernel bound."""
    d = far_lattice()
    one, half = GridFn2.constant(d, 1.0), GridFn2.constant(d, 0.5)
    kernel = compute_bound(KernelInputs(one, one, KernelOracle.constant(d, 1.0))).bound.values
    assert kernel.tolist() == [[1.0, 1.0], [1.0, 3.0], [1.0, 9.0]]
    pointwise = compute_bound(PointwiseInputs(one, one, one)).bound.values
    system = compute_bound(SystemInputs(0.5, 0.5, half, half, half, half, u=one)).bound.values
    assert pointwise.tobytes() == system.tobytes() == kernel.tobytes()
    with pytest.raises(TscaleError, match="must be finite"):
        ref.pointwise_bound_full(one, one, one)
    with pytest.raises(TscaleError, match="must be finite"):
        ref.system_bound_full(0.5, 0.5, half, half, half, half)


def test_default_witnesses_are_swept_on_kappa():
    """Without u, the system and integro-dynamic witnesses on the far lattice
    stay finite, where a sweep of the full lattice leaves the float range."""
    d = far_lattice()
    one, half = GridFn2.constant(d, 1.0), GridFn2.constant(d, 0.5)
    report = compute_bound(SystemInputs(0.5, 0.5, half, half, half, half))
    assert report.witness.values.tolist() == [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]
    assert not report.violations
    a, b = GridFn1(d.scale1, np.ones(4)), GridFn1(d.scale2, np.ones(3))
    report = compute_bound(IntegrodynamicInputs(a, b, one))
    assert report.bound.values.tolist() == [[0.0, 0.0], [0.0, 2.0], [0.0, 4.0]]
    assert report.witness.values.tolist() == [[0.0, 0.0], [0.0, 2.0], [0.0, 4.0]]
    with pytest.raises(TscaleError, match="must be finite"):
        witnesses.witness_system(0.5, 0.5, half, half, half, half)
    with pytest.raises(TscaleError, match="must be finite"):
        witnesses.witness_integrodynamic(a, b, one)


def test_an_overflow_in_the_dropped_column_leaves_the_bounds_finite():
    """p = 1, q = 10, k = 0.3 on 2001 unit steps, one step out to 1e110 and
    two columns: the first-variable product of 1 + 3 mu1 overflows only in
    the second column, which kappa x kappa drops, so every bound is p."""
    d = TimeScale2D(parse_scale({"kind": "union", "of": ["integer:0..2000",
                                                         "explicit:2001,1e110"]}).build(),
                    parse_scale("integer:0..1").build())
    one, q, k = (GridFn2.constant(d, v) for v in (1.0, 10.0, 0.3))
    h = GridFn2.constant(d, 1.5)
    bounds = [compute_bound(PointwiseInputs(one, q, k)),
              compute_bound(KernelInputs(one, q, KernelOracle.constant(d, 0.3))),
              compute_bound(SystemInputs(0.5, 0.5, h, h, h, h, u=one))]
    for report in bounds:
        assert report.bound.values.shape == (2002, 1)
        assert np.all(report.bound.values == 1.0)
    with pytest.raises(TscaleError, match="first-variable exponential overflowed"):
        ref.pointwise_bound_full(one, q, k)
    with pytest.raises(TscaleError, match="first-variable exponential overflowed"):
        ref.system_bound_full(0.5, 0.5, h, h, h, h)
