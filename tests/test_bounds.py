"""The four bound constructions, their hypotheses, and the 2-D Gronwall step."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from tscale import (DomainError, GridFn2, IntegrodynamicInputs, KernelInputs,
                    KernelOracle, PointwiseInputs, ScaleMismatchError, SystemInputs,
                    TimeScale2D, bound_kernel_variants, check_hypotheses,
                    compute_bound, explicit_scale, gronwall_2d, h_grid, integer_segment,
                    q_grid)
from tscale.bounds import BoundCase, ExponentVariant, _finish
from tscale.witnesses import (witness_integrodynamic, witness_kernel,
                              witness_pointwise, witness_system)
from tscale import GridFn1


def zz(n=3):
    return TimeScale2D(integer_segment(0, n), integer_segment(0, n))


def ones(domain):
    return GridFn2.constant(domain, 1.0)


def test_gronwall_closed_form_on_integer_lattice():
    # z <= t1*t2 + iint z gives z <= t1*t2 * (1 + t2)^t1
    d = zz(3)
    a = GridFn2.from_function(d, lambda x, y: x * y)
    z = gronwall_2d(a, ones(d))
    assert z.values[2, 1] == 8.0  # 2*1 * (1+1)^2
    assert z.values[1, 2] == 6.0  # 1*2 * (1+2)^1


def test_gronwall_with_zero_rate_returns_the_offset():
    d = zz(3)
    a = GridFn2.from_function(d, lambda x, y: 1.0 + x + y)
    z = gronwall_2d(a, GridFn2.constant(d, 0.0))
    assert np.array_equal(z.values, a.values)


def test_pointwise_bound_closed_form():
    d = zz(3)
    rep = compute_bound(PointwiseInputs(p=ones(d), q=ones(d), k=ones(d)))
    # bound = 1 + t1*t2 * (1+t2)^t1 on the kappa lattice
    t1 = np.arange(3.0)[:, None]
    t2 = np.arange(3.0)[None, :]
    expect = 1.0 + t1 * t2 * (1.0 + t2) ** t1
    assert np.array_equal(rep.bound.values, expect)
    assert rep.bound.values[2, 2] == 37.0


def test_pointwise_witness_closed_form_and_dominance():
    d = zz(3)
    u = witness_pointwise(ones(d), ones(d), ones(d))
    assert u.values[1, 1] == 2.0
    assert u.values[2, 2] == 6.0
    rep = compute_bound(PointwiseInputs(u=u, p=ones(d), q=ones(d), k=ones(d)))
    assert rep.max_violation == 0.0
    assert not rep.violations
    assert rep.min_slack >= 0.0
    assert rep.witness.values[2, 2] == 6.0


def test_pointwise_case_tends_to_its_continuum_limit():
    """p = q = k = 1 on h grids of [0, 1] on both axes: as h -> 0 the witness,
    u = 1 + iint u, tends to I0(2 sqrt(t1 t2)), and the bound 1 + A e_c, with
    A = t1 t2 and e_c = (1 + h t2)^(t1 / h), to 1 + t1 t2 e^(t1 t2), both at
    first order in h; the limit bound dominates the limit witness."""
    errors = []
    for n in (20, 40, 80, 160, 320):
        s = h_grid(0.0, 1.0, 1.0 / n)
        d = TimeScale2D(s, s)
        u = witness_pointwise(ones(d), ones(d), ones(d))
        rep = compute_bound(PointwiseInputs(ones(d), ones(d), ones(d), u=u))
        assert rep.violation_count == 0
        x = np.multiply.outer(s.points, s.points)
        kx = x[:-1, :-1]    # the bound lives on kappa x kappa
        errors.append((np.abs(u.values - np.i0(2.0 * np.sqrt(x))).max(),
                       np.abs(rep.bound.values - (1.0 + kx * np.exp(kx))).max()))
    orders = np.log2(np.divide(*errors[-2:]))
    assert np.all((0.9 <= orders) & (orders <= 1.1)), orders
    x = np.multiply.outer(*[np.linspace(0.0, 1.0, 201)] * 2)
    assert np.all(1.0 + x * np.exp(x) >= np.i0(2.0 * np.sqrt(x)))


def test_pointwise_witness_is_the_vandermonde_sum_on_h_lattices():
    """p = q = k = 1 on hZ x hZ: the witness is u(m, n) = sum over k of
    C(m, k) C(n, k) h^(2k), the discrete end of the limit above.  At h = 1 it
    is C(m + n, m) by Vandermonde's identity, bit for bit up to C(60, 30);
    at h = 2**-3 it lies within 1 ulp of the sum taken exactly."""
    s = integer_segment(0, 30)
    d = TimeScale2D(s, s)
    u = witness_pointwise(ones(d), ones(d), ones(d)).values
    assert np.array_equal(u, [[float(math.comb(m + n, m)) for n in range(31)]
                              for m in range(31)])
    h = 2.0 ** -3
    s = h_grid(0.0, 20 * h, h)
    d = TimeScale2D(s, s)
    u = witness_pointwise(ones(d), ones(d), ones(d)).values
    for m, n in np.ndindex(u.shape):
        exact = sum(math.comb(m, k) * math.comb(n, k) * Fraction(h) ** (2 * k)
                    for k in range(min(m, n) + 1))
        assert abs(Fraction(u[m, n]) - exact) <= Fraction(np.spacing(float(exact))), (m, n)


def test_pointwise_bound_requires_all_three_functions():
    d = zz(3)
    with pytest.raises(TypeError, match="q"):
        PointwiseInputs(p=ones(d), k=ones(d))


def _valid_fields(cls, d):
    """Keyword fields that make a valid cls on the product scale d."""
    s1, s2 = d.scale1, d.scale2
    return {
        PointwiseInputs: dict(p=ones(d), q=ones(d), k=ones(d)),
        KernelInputs: dict(p=ones(d), q=ones(d), k=KernelOracle.constant(d, 1.0)),
        SystemInputs: dict(c1=1.0, c2=1.0, h1=ones(d), h2=ones(d), h3=ones(d),
                           h4=ones(d)),
        IntegrodynamicInputs: dict(a=GridFn1(s1, np.ones(len(s1))),
                                   b=GridFn1(s2, np.ones(len(s2))), c=ones(d)),
    }[cls]


@pytest.mark.parametrize("cls", [PointwiseInputs, KernelInputs, SystemInputs,
                                 IntegrodynamicInputs])
def test_typed_inputs_reject_structural_mistakes_at_construction(cls):
    d = zz(3)
    fields = _valid_fields(cls, d)
    assert cls(**fields).check_hypotheses() == []
    # the last field on a larger product scale
    last = list(fields)[-1]
    with pytest.raises(ScaleMismatchError):
        cls(**{**fields, last: _valid_fields(cls, zz(4))[last]})
    for name in fields:
        with pytest.raises(TypeError, match=name):
            cls(**{key: v for key, v in fields.items() if key != name})
    if cls is KernelInputs:
        with pytest.raises(DomainError, match="KernelOracle"):
            cls(**{**fields, "k": ones(d)})


def test_zero_feedback_collapses_to_the_offset():
    d = zz(4)
    rng = np.random.Generator(np.random.PCG64(12))
    p = GridFn2(d, rng.uniform(0.5, 2.0, d.shape))
    u = witness_pointwise(p, ones(d), ones(d), feedback_scale=0.0)
    assert np.array_equal(u.values, p.values)


def test_pointwise_bound_scales_with_the_offset():
    # doubling p doubles both witness and bound when q*k holds fixed
    d = zz(4)
    rng = np.random.Generator(np.random.PCG64(3))
    p = GridFn2(d, rng.uniform(0.5, 2.0, d.shape))
    q = GridFn2(d, rng.uniform(0.0, 1.5, d.shape))
    k = GridFn2(d, rng.uniform(0.0, 1.5, d.shape))
    rep1 = compute_bound(PointwiseInputs(p=p, q=q, k=k))
    p2 = GridFn2(d, 2.0 * p.values)
    rep2 = compute_bound(PointwiseInputs(p=p2, q=q, k=k))
    assert np.allclose(rep2.bound.values, 2.0 * rep1.bound.values, rtol=1e-12)


def test_check_hypotheses_accepts_nonnegative_inputs():
    d = zz(3)
    assert check_hypotheses(PointwiseInputs(p=ones(d), q=ones(d), k=ones(d))) == []


def test_check_hypotheses_reports_negative_coefficient():
    d = zz(3)
    bad = GridFn2.from_function(d, lambda x, y: x - 1.0)
    diags = check_hypotheses(PointwiseInputs(p=ones(d), q=ones(d), k=bad))
    assert len(diags) == 1
    assert "k negative" in diags[0]


def test_check_hypotheses_kernel_families():
    d = zz(3)
    good = KernelOracle.from_point_function(
        d, lambda t1, t2, s1, s2: (1.0 + t1) * (1.0 + t2))
    assert check_hypotheses(KernelInputs(p=ones(d), q=ones(d), k=good)) == []
    bad = KernelOracle.constant(d, -1.0)
    diags = check_hypotheses(KernelInputs(p=ones(d), q=ones(d), k=bad))
    assert any("kernel negative" in msg for msg in diags)
    # decreasing in the first variable: negative first-variable difference
    shrink = KernelOracle.from_point_function(
        d, lambda t1, t2, s1, s2: 10.0 - 3.0 * t1)
    diags2 = check_hypotheses(KernelInputs(p=ones(d), q=ones(d), k=shrink))
    assert any("first-variable difference" in msg for msg in diags2)


def test_kernel_requires_an_oracle():
    d = zz(3)
    with pytest.raises(DomainError, match="KernelOracle"):
        KernelInputs(p=ones(d), q=ones(d), k=ones(d))


def test_kernel_constant_reduces_to_pointwise():
    d = TimeScale2D(integer_segment(0, 5), q_grid(2.0, 4))
    rng = np.random.Generator(np.random.PCG64(9))
    p = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
    q = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
    level = 1.7
    rep_k = compute_bound(KernelInputs(p=p, q=q, k=KernelOracle.constant(d, level)))
    rep_p = compute_bound(PointwiseInputs(p=p, q=q, k=GridFn2.constant(d, level)))
    assert np.abs(rep_k.bound.values / rep_p.bound.values - 1.0).max() <= 1e-12


def test_kernel_closed_form_small_lattice():
    d = zz(3)
    rep = compute_bound(KernelInputs(p=ones(d), q=ones(d),
                                     k=KernelOracle.constant(d, 1.0)))
    assert rep.bound.values[1, 1] == 3.0
    u = witness_kernel(ones(d), ones(d), KernelOracle.constant(d, 1.0))
    assert u.values[1, 1] == 2.0


def test_kernel_witness_sees_the_sigma_corner():
    # k(t1, t2, s1, s2) = t1 * t2 weights history by the evaluation corner
    d = zz(3)
    ko = KernelOracle.from_point_function(d, lambda t1, t2, s1, s2: t1 * t2)
    u = witness_kernel(ones(d), ones(d), ko)
    # u(1,1) = 1 + k(1,1,0,0)*u(0,0) = 2; u(2,2) accumulates four cells
    assert u.values[1, 1] == 2.0
    expected_22 = 1.0 + 4.0 * (u.values[0, 0] + u.values[0, 1]
                               + u.values[1, 0] + u.values[1, 1])
    assert u.values[2, 2] == expected_22
    rep = compute_bound(KernelInputs(u=u, p=ones(d), q=ones(d), k=ko))
    assert not rep.violations


@pytest.mark.parametrize("kernel", [
    lambda d: KernelOracle.from_table(d, np.full(d.shape * 2, 1e300)),
    lambda d: KernelOracle.separable(d, np.full((1, *d.shape), 1e300), np.ones((1, *d.shape))),
], ids=["dense", "factored"])
def test_kernel_witness_past_the_float_range_is_rejected_without_a_warning(kernel):
    """Both witness branches leave a witness past the float range to GridFn2,
    with no RuntimeWarning (an error under this suite's filter)."""
    d = zz(4)
    with pytest.raises(DomainError, match="^grid function values must be finite$"):
        witness_kernel(ones(d), ones(d), kernel(d))


def test_kernel_records_the_exponent_variant():
    d = zz(3)
    ko = KernelOracle.constant(d, 1.0)
    rep1 = compute_bound(KernelInputs(p=ones(d), q=ones(d), k=ko))
    assert rep1.exponent_variant is ExponentVariant.FIRST_VARIABLE
    rep2 = compute_bound(KernelInputs(p=ones(d), q=ones(d), k=ko,
                                      exponent_variant=ExponentVariant.SECOND_VARIABLE))
    assert rep2.exponent_variant is ExponentVariant.SECOND_VARIABLE
    # the rate c integrates over the second axis either way, so the two
    # running products disagree already on the unit lattice
    assert rep1.bound.values[2, 2] == 37.0
    assert rep2.bound.values[2, 2] != rep1.bound.values[2, 2]


def test_kernel_variants_differ_on_asymmetric_scales():
    d = TimeScale2D(integer_segment(0, 4), q_grid(2.0, 4))
    p = ones(d)
    ko = KernelOracle.constant(d, 1.0)
    rep1 = compute_bound(KernelInputs(p=p, q=p, k=ko))
    rep2 = compute_bound(KernelInputs(p=p, q=p, k=ko,
                                      exponent_variant=ExponentVariant.SECOND_VARIABLE))
    assert not np.allclose(rep1.bound.values, rep2.bound.values)


def test_bound_kernel_variants_match_compute_bound_bit_for_bit():
    d = TimeScale2D(integer_segment(0, 5), q_grid(2.0, 4))
    rng = np.random.Generator(np.random.PCG64(4))
    p = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
    q = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
    n1, n2 = d.shape
    # a random table breaks the difference hypotheses, and an inflated
    # witness crosses the bound, so both lists are nonempty
    ko = KernelOracle.from_table(d, rng.uniform(0.0, 2.0, (n1, n2, n1, n2)))
    u = GridFn2(d, 50.0 * witness_kernel(p, q, ko).values)
    both = bound_kernel_variants(KernelInputs(u=u, p=p, q=q, k=ko))
    assert list(both) == list(ExponentVariant)
    for variant, rep in both.items():
        one = compute_bound(KernelInputs(u=u, p=p, q=q, k=ko, exponent_variant=variant))
        assert rep.exponent_variant is variant
        assert np.array_equal(rep.bound.values, one.bound.values)
        assert rep.violations and rep.violations == one.violations
        assert rep.hypothesis_diagnostics \
            and rep.hypothesis_diagnostics == one.hypothesis_diagnostics
        assert (rep.max_violation, rep.min_slack) == (one.max_violation, one.min_slack)


def test_system_bound_closed_form():
    d = zz(3)
    rep = compute_bound(SystemInputs(c1=1.0, c2=1.0,
                                     h1=ones(d), h2=ones(d), h3=ones(d), h4=ones(d)))
    # c3 = 2, H = 2, A = 4 t1 t2, c = 2 t2, bound = 2 + 4 t1 t2 (1 + 2 t2)^t1
    assert rep.bound.values[1, 1] == 14.0
    assert rep.bound.values[2, 2] == 2.0 + 16.0 * 25.0
    assert rep.max_violation == 0.0


def test_system_witness_recursion_hand_values():
    d = zz(3)
    u, v = witness_system(1.0, 1.0, ones(d), ones(d), ones(d), ones(d))
    assert u.values[1, 1] == 3.0 and v.values[1, 1] == 3.0
    # u(2,2) = 1 + sum over four cells of (u + v) = 1 + (2+2+2+6+6+6+6) ...
    assert u.values[2, 2] == 1.0 + (u.values[:2, :2] + v.values[:2, :2]).sum()


def test_system_collapse_without_coupling():
    d = zz(4)
    zero = GridFn2.constant(d, 0.0)
    rep = compute_bound(SystemInputs(c1=2.0, c2=3.0, h1=zero, h2=zero, h3=zero, h4=zero))
    assert np.array_equal(rep.bound.values, np.full((4, 4), 5.0))
    assert rep.max_violation == 0.0
    assert rep.min_slack == 0.0


def test_system_rejects_negative_constants():
    d = zz(3)
    with pytest.raises(DomainError, match="nonnegative"):
        compute_bound(SystemInputs(c1=-1.0, c2=0.0,
                                   h1=ones(d), h2=ones(d), h3=ones(d), h4=ones(d)))


def test_integrodynamic_tight_when_uncoupled():
    d = zz(3)
    s = integer_segment(0, 3)
    a = GridFn1(s, np.ones(4))
    b = GridFn1(s, np.ones(4))
    zero = GridFn2.constant(d, 0.0)
    rep = compute_bound(IntegrodynamicInputs(a=a, b=b, c=zero))
    expect = 2.0 * np.outer(np.arange(3.0), np.arange(3.0))
    assert np.abs(rep.bound.values - expect).max() <= 1e-12
    assert np.abs(rep.witness.values - rep.bound.values).max() \
        <= 1e-12 * (1.0 + np.abs(rep.bound.values).max())


def test_integrodynamic_unit_coefficients_hand_values():
    d = zz(3)
    s = integer_segment(0, 3)
    a = GridFn1(s, np.ones(4))
    b = GridFn1(s, np.ones(4))
    c = GridFn2.constant(d, 1.0)
    u, w = witness_integrodynamic(a, b, c)
    assert w.values[0, 0] == 2.0
    assert w.values[1, 1] == 4.0   # 2 + (u+w)(0,0) = 2 + 0 + 2
    assert u.values[1, 1] == 2.0
    assert np.all(u.values[0, :] == 0.0) and np.all(u.values[:, 0] == 0.0)
    rep = compute_bound(IntegrodynamicInputs(u=u, a=a, b=b, c=c))
    assert not rep.violations
    # corner of the bound integrates h over one cell: h(0,0) = a0 + b0 = 2
    assert rep.bound.values[1, 1] == 2.0
    assert u.values[1, 1] == rep.bound.values[1, 1]


def test_integrodynamic_needs_positive_axis_coefficients():
    d = zz(3)
    s = integer_segment(0, 3)
    a = GridFn1(s, np.zeros(4))
    b = GridFn1(s, np.ones(4))
    with pytest.raises(DomainError, match="strictly positive"):
        compute_bound(IntegrodynamicInputs(a=a, b=b, c=GridFn2.constant(d, 0.0)))


def test_integrodynamic_hypothesis_diagnostics():
    d = zz(3)
    s = integer_segment(0, 3)
    a = GridFn1(s, np.array([4.0, 3.0, 2.0, 1.0]))  # decreasing
    b = GridFn1(s, np.ones(4))
    diags = check_hypotheses(IntegrodynamicInputs(a=a, b=b, c=GridFn2.constant(d, 0.0)))
    assert any("nondecreasing" in msg or "delta derivative" in msg for msg in diags)


def test_reports_carry_violations_for_oversized_witnesses():
    d = zz(3)
    huge = GridFn2.constant(d, 100.0)
    rep = compute_bound(PointwiseInputs(u=huge, p=ones(d), q=ones(d), k=ones(d)))
    assert rep.max_violation > 0.0
    assert rep.violations
    i, j, wit, bnd = rep.violations[0]
    assert wit == 100.0 and bnd == rep.bound.values[i, j]


def test_bound_domain_is_the_kappa_lattice():
    d = zz(3)
    rep = compute_bound(PointwiseInputs(p=ones(d), q=ones(d), k=ones(d)))
    assert rep.bound.domain.shape == (3, 3)
    assert np.array_equal(rep.bound.domain.scale1.points, [0.0, 1.0, 2.0])


def test_kernel_hypotheses_build_each_row_slab_once(monkeypatch):
    # a dense table and each instance of a two-term stack are swept one row
    # slab k(i, ., ., .) per row i; a one-term stack builds none
    d = TimeScale2D(integer_segment(0, 4), q_grid(2.0, 3))
    n1 = d.shape[0]
    rng = np.random.Generator(np.random.PCG64(9))
    calls = []
    slab = KernelOracle.slab

    def counted(self, *args):
        calls.append(args)
        return slab(self, *args)

    monkeypatch.setattr(KernelOracle, "slab", counted)
    for rank, count, swept in ((2, 3, 3), (1, 3, 0), (None, 1, 1)):
        if rank is None:
            kernel = KernelOracle.from_table(d, rng.uniform(-1.0, 1.0, d.shape * 2))
        else:
            kernel = KernelOracle.separable(
                d, *rng.uniform(-1.0, 1.0, (2, rank, count, *d.shape)))
        p = GridFn2(d, np.ones((count, *d.shape)) if rank else np.ones(d.shape))
        calls.clear()
        check_hypotheses(KernelInputs(p, p, kernel))
        assert calls == [(i,) for i in range(n1)] * swept


# -- verdicts at their thresholds --------------------------------------------

# A relative step of 2**-20 from a threshold: just inside it, then just outside.
EDGE = 2.0 ** -20
# The thresholds of bounds.py, written out here so that a change to them shows:
# a witness violates the bound past VIOLATION_TOL * (1 + |bound|) above it, and
# a hypothesis fails below -HYPOTHESIS_SLACK.
VIOLATION_TOL, HYPOTHESIS_SLACK = 1e-9, 1e-12


@pytest.mark.parametrize("bound", [0.0, 3.0, -2.0, 1e6])
def test_a_violation_starts_just_past_the_violation_tolerance(bound):
    """A witness above the bound by VIOLATION_TOL * (1 + |bound|) times
    1 - 2**-20 is no violation; times 1 + 2**-20 it is one."""
    d = zz(2)
    values = np.full((1, *d.shape), bound)
    for factor, count in ((1.0 - EDGE, 0), (1.0 + EDGE, 1)):
        witness = values.copy()
        witness[0, 1, 0] += VIOLATION_TOL * (1.0 + abs(bound)) * factor
        report = _finish(values, d, BoundCase.POINTWISE, GridFn2(d, witness), [[]])
        assert report.violation_count.tolist() == [count]
        assert report.violation_at.tolist() == [d.shape[1]] * count    # (1, 0), flat


def _one_point(d, value):
    """Ones on d, with value at (1, 0)."""
    values = np.ones(d.shape)
    values[1, 0] = value
    return GridFn2(d, values)


# Inputs with one value at v, for each input type whose hypotheses compare it
# with -HYPOTHESIS_SLACK, and each comparison they make.
SLACK_SITES = {
    "pointwise-p": lambda d, v: PointwiseInputs(p=_one_point(d, v), q=ones(d), k=ones(d)),
    "kernel-value": lambda d, v: KernelInputs(p=ones(d), q=ones(d),
                                              k=KernelOracle.constant(d, v)),
    "kernel-q": lambda d, v: KernelInputs(p=ones(d), q=_one_point(d, v),
                                          k=KernelOracle.constant(d, 1.0)),
    "system-c1": lambda d, v: SystemInputs(c1=v, c2=1.0, h1=ones(d), h2=ones(d),
                                           h3=ones(d), h4=ones(d)),
    "system-h4": lambda d, v: SystemInputs(c1=1.0, c2=1.0, h1=ones(d), h2=ones(d),
                                           h3=ones(d), h4=_one_point(d, v)),
    # a falls by -v over a unit step: its delta derivative is v, exactly
    "integrodynamic-a": lambda d, v: IntegrodynamicInputs(
        a=GridFn1(d.scale1, np.array([-2.0 * v, -v, -v, -v])),
        b=GridFn1(d.scale2, np.ones(4)), c=ones(d)),
    "integrodynamic-c": lambda d, v: IntegrodynamicInputs(
        a=GridFn1(d.scale1, np.ones(4)), b=GridFn1(d.scale2, np.ones(4)), c=_one_point(d, v)),
}


@pytest.mark.parametrize("site", SLACK_SITES.values(), ids=SLACK_SITES.keys())
def test_a_hypothesis_fails_just_past_its_slack(site):
    """A value of -HYPOTHESIS_SLACK times 1 - 2**-20 passes the hypothesis
    check; times 1 + 2**-20 it gives one diagnostic."""
    d = zz(3)
    assert check_hypotheses(site(d, -HYPOTHESIS_SLACK * (1.0 - EDGE))) == []
    assert len(check_hypotheses(site(d, -HYPOTHESIS_SLACK * (1.0 + EDGE)))) == 1
