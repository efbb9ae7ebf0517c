"""Witness recursions, seeded instance batches, and summary determinism."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from tscale import (BoundCase, ConfigError, DomainError, FnSpec, GridFn1,
                    GridFn2, InstanceSpec, KernelOracle, TimeScale2D,
                    WitnessMode, explicit_scale, grid2d, integer_segment, parse_scale,
                    realize_1d, realize_2d, run_verification)
from tscale.config import VALUE_CAP
from tscale.witnesses import (witness_integrodynamic, witness_kernel,
                              witness_pointwise, witness_system)
from tscale.bounds import ExponentVariant


def zz(n=3):
    return TimeScale2D(integer_segment(0, n), integer_segment(0, n))


def ones(domain):
    return GridFn2.constant(domain, 1.0)


def test_witness_pointwise_hand_recursion():
    d = zz(3)
    u = witness_pointwise(ones(d), ones(d), ones(d))
    assert u.values[0, 0] == 1.0
    assert u.values[1, 1] == 2.0
    assert u.values[2, 2] == 6.0
    # first row and column never accumulate history
    assert np.all(u.values[0, :] == 1.0)
    assert np.all(u.values[:, 0] == 1.0)


def test_witness_feedback_scaling_shrinks_the_interior():
    d = zz(4)
    full = witness_pointwise(ones(d), ones(d), ones(d), feedback_scale=1.0)
    half = witness_pointwise(ones(d), ones(d), ones(d), feedback_scale=0.5)
    assert np.all(half.values <= full.values)
    assert half.values[2, 2] < full.values[2, 2]
    assert half.values[0, 3] == full.values[0, 3]  # boundary stays tight


def test_witness_feedback_must_be_a_fraction():
    d = zz(3)
    with pytest.raises(DomainError, match="feedback_scale"):
        witness_pointwise(ones(d), ones(d), ones(d), feedback_scale=1.5)


def test_witness_kernel_matches_pointwise_for_constant_kernel():
    d = zz(4)
    rng = np.random.Generator(np.random.PCG64(2))
    p = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
    q = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
    u_k = witness_kernel(p, q, KernelOracle.constant(d, 1.3))
    u_p = witness_pointwise(p, q, GridFn2.constant(d, 1.3))
    assert np.allclose(u_k.values, u_p.values, rtol=1e-13)


def test_witness_system_hand_recursion():
    d = zz(3)
    u, v = witness_system(1.0, 2.0, ones(d), ones(d), ones(d), ones(d))
    assert u.values[0, 0] == 1.0 and v.values[0, 0] == 2.0
    # u(1,1) = 1 + (u+v)(0,0), v(1,1) = 2 + (u+v)(0,0)
    assert u.values[1, 1] == 4.0
    assert v.values[1, 1] == 5.0


def test_witness_integrodynamic_boundary_is_exactly_zero():
    d = zz(3)
    s = integer_segment(0, 3)
    a = GridFn1(s, 1.0 + s.points)
    b = GridFn1(s, np.full(4, 2.0))
    c = GridFn2.constant(d, 0.5)
    u, w = witness_integrodynamic(a, b, c)
    assert np.all(u.values[0, :] == 0.0)
    assert np.all(u.values[:, 0] == 0.0)
    assert w.values[0, 0] == a.values[0] + b.values[0]
    assert np.all(w.values > 0.0)


def test_instance_spec_validates_count_and_function_names():
    s = parse_scale("integer:0..5")
    with pytest.raises(ConfigError, match="count"):
        InstanceSpec(case=BoundCase.POINTWISE, scale1=s, scale2=s, count=0)
    with pytest.raises(ConfigError, match="unexpected function"):
        InstanceSpec(case=BoundCase.POINTWISE, scale1=s, scale2=s,
                     functions={"h1": FnSpec("constant", value=1.0)})


def test_run_verification_counts_and_digests():
    spec = InstanceSpec(case=BoundCase.POINTWISE,
                        scale1=parse_scale("integer:0..6"),
                        scale2=parse_scale("integer:0..6"),
                        rng_seed=11, count=7)
    out = run_verification(spec)
    assert out.instances_run == 7
    assert len(out.digests) == 7
    assert len(out.reports) == 7
    assert out.instances_with_violation == 0
    assert out.worst_relative_violation == 0.0
    for idx, digest in enumerate(out.digests):
        assert digest["instance"] == idx
        assert digest["violation_count"] == 0
        assert abs(digest["hypothesis_residual"]) <= 1e-10


def test_run_verification_closed_form_instance():
    fns = {name: FnSpec("constant", value=1.0) for name in ("p", "q", "k")}
    spec = InstanceSpec(case=BoundCase.POINTWISE,
                        scale1=parse_scale("integer:0..3"),
                        scale2=parse_scale("integer:0..3"),
                        functions=fns, rng_seed=0, count=1)
    out = run_verification(spec)
    report = out.reports[0]
    assert report.bound.values[2, 2] == 37.0
    assert report.witness.values[2, 2] == 6.0
    assert out.instances_with_violation == 0


def test_run_verification_strict_slack_stays_under_equality():
    base = dict(case=BoundCase.POINTWISE,
                scale1=parse_scale("integer:0..8"),
                scale2=parse_scale("integer:0..8"),
                rng_seed=5, count=1)
    eq = run_verification(InstanceSpec(witness_mode=WitnessMode.EQUALITY, **base))
    slack = run_verification(InstanceSpec(witness_mode=WitnessMode.STRICT_SLACK, **base))
    assert slack.instances_with_violation == 0
    # the slack factor draws after the functions, so instance 0 sees the
    # same p, q, k in both modes and only the feedback differs
    u_eq = eq.reports[0].witness.values
    u_sl = slack.reports[0].witness.values
    assert np.all(u_sl <= u_eq)
    assert u_sl[-1, -1] < u_eq[-1, -1]
    # boundary rows never accumulate feedback, so both modes agree there
    assert np.array_equal(u_sl[0, :], u_eq[0, :])
    # residuals: equality sits on the relation, slack stays inside it
    assert abs(eq.digests[0]["hypothesis_residual"]) <= 1e-10
    assert slack.digests[0]["hypothesis_residual"] <= 1e-10


def test_run_verification_kernel_records_both_variants():
    spec = InstanceSpec(case=BoundCase.KERNEL,
                        scale1=parse_scale("integer:0..5"),
                        scale2=parse_scale("q:2,4"),
                        rng_seed=9, count=3)
    out = run_verification(spec)
    assert out.variant_comparison is not None
    assert out.variant_comparison["first_variable"]["instances_with_violation"] == 0
    assert set(out.variant_comparison) == {"first_variable", "second_variable"}
    for digest in out.digests:
        assert digest["first_variable_dominates"] is True
        assert isinstance(digest["second_variable_dominates"], bool)
        assert "second_variable_max_violation" in digest


KERNEL_SPEC = InstanceSpec(case=BoundCase.KERNEL, scale1=parse_scale("integer:0..5"),
                           scale2=parse_scale("q:2,4"), rng_seed=9, count=3)
# KERNEL_SPEC's three instances on their 6x5 lattice run as one stack, or as
# three under a limit of 30 points: (MAX_STACK_POINTS, stacks).
KERNEL_STACKS = ((grid2d.MAX_STACK_POINTS, 1), (30, 3))


def test_kernel_instance_integrates_the_kernel_once(monkeypatch):
    """One kernel integral, _kernel_integrals, per stack of instances."""
    from tscale import bounds
    calls = []
    integrate = bounds._kernel_integrals

    def counted(*args):
        calls.append(1)
        return integrate(*args)

    monkeypatch.setattr(bounds, "_kernel_integrals", counted)
    for limit, stacks in KERNEL_STACKS:
        calls.clear()
        with mock.patch.object(grid2d, "MAX_STACK_POINTS", limit):
            out = run_verification(KERNEL_SPEC)
        assert len(calls) == stacks
        assert all("second_variable_dominates" in digest for digest in out.digests)


def test_kernel_instance_sweeps_the_differences_once(monkeypatch):
    """One sweep of the kernel's differences, _kernel_checks, per stack of
    instances serves the bound's hypothesis check, for factored config
    kernels and dense tables alike; a separate check_hypotheses sweeps once
    more."""
    from tscale import bounds
    sweeps = []
    sweep = bounds._kernel_checks

    def counted(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(bounds, "_kernel_checks", counted)
    for limit, stacks in KERNEL_STACKS:
        sweeps.clear()
        with mock.patch.object(grid2d, "MAX_STACK_POINTS", limit):
            run_verification(KERNEL_SPEC)
        assert len(sweeps) == stacks
    sweeps.clear()
    # a table whose differences fail every hypothesis: the bound's sweep
    # reports what check_hypotheses finds with its own
    d = TimeScale2D(integer_segment(0, 4), parse_scale("q:2,3").build())
    rng = np.random.Generator(np.random.PCG64(3))
    inputs = bounds.KernelInputs(
        p=ones(d), q=ones(d),
        k=KernelOracle.from_table(d, rng.uniform(0.0, 2.0, d.shape * 2)))
    by_variant = bounds.bound_kernel_variants(inputs)
    assert len(sweeps) == 1
    diags = bounds.check_hypotheses(inputs)
    assert len(sweeps) == 2
    assert len(diags) == 3
    for report in by_variant.values():
        assert report.hypothesis_diagnostics == diags


def test_run_verification_system_and_integrodynamic():
    for case in (BoundCase.SYSTEM, BoundCase.INTEGRODYNAMIC):
        spec = InstanceSpec(case=case,
                            scale1=parse_scale("integer:0..7"),
                            scale2=parse_scale("integer:0..6"),
                            rng_seed=21, count=5,
                            witness_mode=WitnessMode.STRICT_SLACK)
        out = run_verification(spec)
        assert out.instances_with_violation == 0
        for digest in out.digests:
            assert digest["hypothesis_residual"] <= 1e-10


def test_run_verification_is_deterministic():
    spec = InstanceSpec(case=BoundCase.SYSTEM,
                        scale1=parse_scale("integer:0..5"),
                        scale2=parse_scale("q:2,4"),
                        rng_seed=33, count=4,
                        witness_mode=WitnessMode.STRICT_SLACK)
    a = json.dumps(run_verification(spec).to_dict(), sort_keys=True)
    b = json.dumps(run_verification(spec).to_dict(), sort_keys=True)
    assert a == b


def test_run_verification_seed_changes_the_draws():
    base = dict(case=BoundCase.POINTWISE,
                scale1=parse_scale("integer:0..5"),
                scale2=parse_scale("integer:0..5"), count=2)
    one = run_verification(InstanceSpec(rng_seed=1, **base))
    two = run_verification(InstanceSpec(rng_seed=2, **base))
    assert not np.array_equal(one.reports[0].bound.values,
                              two.reports[0].bound.values)


def test_run_verification_respects_fixed_functions():
    fns = {"a": FnSpec("polynomial", coeffs=(1.0, 1.0)),
           "b": FnSpec("constant", value=2.0),
           "c": FnSpec("constant", value=0.0)}
    spec = InstanceSpec(case=BoundCase.INTEGRODYNAMIC,
                        scale1=parse_scale("integer:0..4"),
                        scale2=parse_scale("integer:0..4"),
                        functions=fns, rng_seed=0, count=1)
    out = run_verification(spec)
    report = out.reports[0]
    # c == 0 keeps the relation uncoupled: u = iint (a + b)
    t1 = np.arange(4.0)
    expect = np.array([[sum(1.0 + s1 + 2.0 for s1 in range(int(i))
                            for _ in range(int(j)))
                        for j in t1] for i in t1])
    assert np.abs(report.bound.values - expect).max() <= 1e-12
    assert out.instances_with_violation == 0


def test_fixed_function_sign_validation():
    fns = {"a": FnSpec("constant", value=0.0)}
    spec = InstanceSpec(case=BoundCase.INTEGRODYNAMIC,
                        scale1=parse_scale("integer:0..4"),
                        scale2=parse_scale("integer:0..4"),
                        functions=fns, rng_seed=0, count=1)
    with pytest.raises(ConfigError, match="strictly positive"):
        run_verification(spec)


def test_a_sampled_exponential_past_the_float_range_is_capped_in_log_space():
    domain = TimeScale2D(integer_segment(0, 2000), integer_segment(0, 3))
    values = realize_2d(FnSpec("exponential"), domain, np.random.default_rng(1)).values
    replay = np.random.default_rng(1)
    amp = 0.1 + abs(replay.standard_normal())
    rate1, rate2 = (float(replay.uniform(-0.5, 0.5)) for _ in range(2))
    t1, t2 = np.ix_(domain.scale1.points, domain.scale2.points)
    powers = rate1 * t1 + rate2 * t2
    with np.errstate(over="ignore"):
        assert np.isinf(amp * np.exp(powers)).any()
    capped = VALUE_CAP * np.exp(powers - powers.max())
    # floored where the cap underflows (see the next test)
    assert values.tobytes() == np.maximum(capped, np.finfo(float).tiny).tobytes()
    assert values.max() == VALUE_CAP


def test_a_capped_monotone_exponential_is_floored_at_the_smallest_normal_double():
    """A monotone draw whose log-space cap underflows keeps the cap's bits
    wherever it does not, and the smallest normal double where it does, so it
    stays strictly positive and nondecreasing; a draw within the float range
    keeps its bits."""
    tiny = np.finfo(float).tiny
    scale = explicit_scale([0.0, 1.0, 2.0, 3000.0])
    values = realize_1d(FnSpec("exponential"), scale, np.random.default_rng(1),
                        monotone_positive=True).values
    replay = np.random.default_rng(1)
    replay.standard_normal()
    powers = float(replay.uniform(0.0, 0.5)) * scale.points
    capped = VALUE_CAP * np.exp(powers - powers.max())
    assert capped[0] == 0.0 and values.tobytes() == np.maximum(capped, tiny).tobytes()
    assert values[0] == tiny and values[-1] == VALUE_CAP and np.all(np.diff(values) >= 0)
    near = explicit_scale([0.0, 0.5, 1.0])
    replay = np.random.default_rng(1)
    amp = 0.1 + abs(replay.standard_normal())
    rate = float(replay.uniform(0.0, 0.5))
    assert realize_1d(FnSpec("exponential"), near, np.random.default_rng(1),
                      monotone_positive=True).values.tobytes() == \
        (amp * np.exp(rate * near.points)).tobytes()


def test_a_sampled_polynomial_past_the_float_range_is_a_config_error():
    domain = TimeScale2D(explicit_scale([0.0, 1e110]), integer_segment(0, 1))
    with pytest.raises(ConfigError, match="sampled polynomial leaves the float range"):
        realize_2d(FnSpec("polynomial"), domain, np.random.default_rng(7))
    # a draw of lower degree stays within the cap
    assert realize_2d(FnSpec("polynomial"), domain, np.random.default_rng(6)).values.max() \
        <= VALUE_CAP
