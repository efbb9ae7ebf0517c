"""The stack contract of every public bound, witness and hypothesis entry point.

A field of a bound case holds one instance or a stack of them: a GridFn2 of
shape (count, n1, n2), a GridFn1 of shape (count, n), a KernelOracle whose
factors have shape (r, count, n1, n2), or an array of count numbers; a scalar
fits any stack.  Each field, the witness included, is drawn with no stack or
a stack of 1 to 3.  A call must return or raise a TscaleError; any other
exception fails.  Where the draws agree, each instance of the result has the
bits of its own single-instance call, that call keeps the single-instance
types (a float max_violation, a list of strings), and the single-instance
witnesses and kernel diagnostics agree with the loop references in
tests/references.py.  Where they disagree, the call raises
ScaleMismatchError, or DomainError for a dense kernel beside a stack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from test_reference_agreement import assert_close, scales
from tscale import (BoundReport, DomainError, GridFn1, GridFn2, IntegrodynamicInputs,
                    KernelInputs, KernelOracle, PointwiseInputs, ScaleMismatchError,
                    SystemInputs, TimeScale2D, TscaleError, bound_kernel_variants,
                    check_hypotheses, compute_bound, gronwall_2d, integer_segment,
                    witness_integrodynamic, witness_kernel, witness_pointwise, witness_system)

STACKS = st.sampled_from([None, 1, 2, 3])

# Each case: its fields as (name, kind), and its entry points, each with the
# fields it takes and a call on a namespace of them.  Kinds: "grid" (GridFn2),
# 1 or 2 (a positive nondecreasing GridFn1 on that axis), "kernel", "number"
# (c1, c2), "feedback" and "witness" (a GridFn2 or None).
PQKU, PQKR = ("p", "q", "k", "u"), ("p", "q", "k", "rho")
SYSTEM = ("c1", "c2", "h1", "h2", "h3", "h4")
CASES = {
    "pointwise": ((("p", "grid"), ("q", "grid"), ("k", "grid"), ("u", "witness"),
                   ("rho", "feedback")), {
        "compute_bound": (PQKU, lambda f: compute_bound(PointwiseInputs(f.p, f.q, f.k, f.u))),
        "check_hypotheses": (PQKU, lambda f: check_hypotheses(
            PointwiseInputs(f.p, f.q, f.k, f.u))),
        "witness": (PQKR, lambda f: witness_pointwise(f.p, f.q, f.k, f.rho)),
    }),
    "kernel": ((("p", "grid"), ("q", "grid"), ("k", "kernel"), ("u", "witness"),
                ("rho", "feedback")), {
        "bound": (PQKU, lambda f: KernelInputs(f.p, f.q, f.k, f.u).bound()),
        "bound_kernel_variants": (PQKU, lambda f: bound_kernel_variants(
            KernelInputs(f.p, f.q, f.k, f.u))),
        "check_hypotheses": (PQKU, lambda f: KernelInputs(
            f.p, f.q, f.k, f.u).check_hypotheses()),
        "witness": (PQKR, lambda f: witness_kernel(f.p, f.q, f.k, f.rho)),
    }),
    "system": ((("c1", "number"), ("c2", "number"), ("h1", "grid"), ("h2", "grid"),
                ("h3", "grid"), ("h4", "grid"), ("u", "witness"), ("rho", "feedback")), {
        "compute_bound": ((*SYSTEM, "u"), lambda f: compute_bound(
            SystemInputs(f.c1, f.c2, f.h1, f.h2, f.h3, f.h4, f.u))),
        "check_hypotheses": ((*SYSTEM, "u"), lambda f: SystemInputs(
            f.c1, f.c2, f.h1, f.h2, f.h3, f.h4, f.u).check_hypotheses()),
        "witness": ((*SYSTEM, "rho"), lambda f: witness_system(
            f.c1, f.c2, f.h1, f.h2, f.h3, f.h4, f.rho)),
    }),
    "integrodynamic": ((("a", 1), ("b", 2), ("c", "grid"), ("u", "witness"),
                        ("rho", "feedback")), {
        "compute_bound": (("a", "b", "c", "u"), lambda f: compute_bound(
            IntegrodynamicInputs(f.a, f.b, f.c, f.u))),
        "check_hypotheses": (("a", "b", "c", "u"), lambda f: check_hypotheses(
            IntegrodynamicInputs(f.a, f.b, f.c, f.u))),
        "witness": (("a", "b", "c", "rho"), lambda f: witness_integrodynamic(
            f.a, f.b, f.c, f.rho)),
    }),
    "gronwall": ((("A", "grid"), ("b", "grid")), {
        "gronwall_2d": (("A", "b"), lambda f: gronwall_2d(f.A, f.b)),
    }),
}


class Fields(dict):
    __getattr__ = dict.__getitem__


def draw_field(data, kind, domain: TimeScale2D, rng, signed: bool):
    """A field of the kind, with no stack or a stack of 1 to 3, and its stack:
    None for a scalar, which fits any stack."""
    count = data.draw(STACKS)
    lead = () if count is None else (count,)
    low = -0.5 if signed else 0.0
    if kind == "witness" and data.draw(st.booleans()):
        return None, None
    if kind in ("grid", "witness"):
        return GridFn2(domain, rng.uniform(low, 2.0, (*lead, *domain.shape))), lead
    if kind in (1, 2):
        scale = (domain.scale1, domain.scale2)[kind - 1]
        values = np.sort(rng.uniform(0.1, 2.0, (*lead, len(scale))), axis=-1)
        return GridFn1(scale, values), lead
    if kind == "kernel":
        if count is None and data.draw(st.booleans()):
            table = rng.uniform(low, 2.0, domain.shape * 2)
            return KernelOracle.from_table(domain, table), ()
        alpha, beta = rng.uniform(low, 2.0, (2, data.draw(st.integers(1, 2)), *lead,
                                              *domain.shape))
        return KernelOracle.separable(domain, alpha, beta), lead
    high = 1.0 if kind == "feedback" else 2.0
    return (float(rng.uniform(0.0, high)) if count is None
            else rng.uniform(0.0, high, count)), (None if count is None else lead)


def instance(field, k: int):
    """Instance k of a stacked field, built as a caller would build one."""
    if isinstance(field, GridFn2) and field.values.ndim == 3:
        return GridFn2(field.domain, field.values[k])
    if isinstance(field, GridFn1) and field.values.ndim == 2:
        return GridFn1(field.scale, field.values[k])
    if isinstance(field, KernelOracle) and field.stack:
        return KernelOracle.separable(field.domain, *(x[:, k] for x in field.factors))
    if isinstance(field, np.ndarray):
        return float(field[k])
    return field


def one(result):
    """A single-instance result in comparable form, its types checked."""
    if isinstance(result, dict):
        return {key: one(r) for key, r in result.items()}
    if isinstance(result, tuple):
        return tuple(one(r) for r in result)
    if isinstance(result, GridFn2):
        assert result.values.ndim == 2
        return result.values.tobytes()
    if isinstance(result, BoundReport):
        assert type(result.max_violation) is float and type(result.min_slack) is float
        assert all(type(d) is str for d in result.hypothesis_diagnostics)
        return (result.bound.values.tobytes(),
                None if result.witness is None else result.witness.values.tobytes(),
                np.float64(result.max_violation).tobytes(),
                np.float64(result.min_slack).tobytes(), result.violations,
                result.hypothesis_diagnostics, result.exponent_variant)
    assert type(result) is list and all(type(d) is str for d in result)
    return result


def parts(result, count: int) -> list:
    """A stacked result as one comparable entry per instance."""
    if isinstance(result, dict):
        return [dict(zip(result, entry))
                for entry in zip(*(parts(r, count) for r in result.values()))]
    if isinstance(result, tuple):
        return list(zip(*(parts(r, count) for r in result)))
    if isinstance(result, GridFn2):
        assert result.values.shape[0] == count
        return [v.tobytes() for v in result.values]
    if isinstance(result, BoundReport):
        return [one(r) for r in result.unstack()]
    assert len(result) == count
    return [one(d) for d in result]


def outcome(call, fields):
    try:
        return call(fields)
    except TscaleError as exc:
        return exc


def check_references(case: str, f) -> None:
    """The single-instance witnesses and kernel diagnostics against the loops
    of tests/references.py, on nonnegative data."""
    if case == "pointwise":
        assert_close(witness_pointwise(f.p, f.q, f.k, f.rho).values,
                     ref.witness_pointwise(f.p, f.q, f.k, f.rho))
    elif case == "kernel":
        assert_close(witness_kernel(f.p, f.q, f.k, f.rho).values,
                     ref.witness_kernel(f.p, f.q, f.k, f.rho))
        assert (KernelInputs(f.p, f.q, f.k).check_hypotheses()
                == ref.kernel_difference_diagnostics(f.k))
    elif case == "system":
        for new, old in zip(witness_system(f.c1, f.c2, f.h1, f.h2, f.h3, f.h4, f.rho),
                            ref.witness_system(f.c1, f.c2, f.h1, f.h2, f.h3, f.h4, f.rho)):
            assert_close(new.values, old)
    elif case == "integrodynamic":
        for new, old in zip(witness_integrodynamic(f.a, f.b, f.c, f.rho),
                            ref.witness_integrodynamic(f.a, f.b, f.c, f.rho)):
            assert_close(new.values, old)


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=60, deadline=None)
@given(scales(max_points=4), scales(max_points=4), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.data())
def test_every_entry_point_keeps_the_stack_contract(case, s1, s2, seed, signed, data):
    domain = TimeScale2D(s1, s2)
    rng = np.random.Generator(np.random.PCG64(seed))
    names, entries = CASES[case]
    drawn = {name: draw_field(data, kind, domain, rng, signed) for name, kind in names}
    fields = Fields({name: field for name, (field, _) in drawn.items()})
    for name, (takes, call) in entries.items():
        held = {drawn[n][1] for n in takes if drawn[n][1] is not None}
        result = outcome(call, fields)
        if len(held) > 1:
            assert isinstance(result, (ScaleMismatchError, DomainError)), name
            continue
        (stack,) = held or {()}
        singles = [Fields({n: instance(fields[n], k) for n in takes})
                   for k in range(stack[0])] if stack else [fields]
        alone = [outcome(call, f) for f in singles]
        if isinstance(result, TscaleError):
            # a stack raises only where one of its instances does alone
            assert any(isinstance(r, TscaleError) for r in alone), name
            continue
        assert not any(isinstance(r, TscaleError) for r in alone), name
        got = parts(result, stack[0]) if stack else [one(result)]
        assert got == [one(r) for r in alone], name
        if name == "witness" and not signed:
            for f in singles:
                check_references(case, f)


def probe_fields() -> Fields:
    d = TimeScale2D(integer_segment(0, 3), integer_segment(0, 3))
    return Fields(d=d, one=GridFn2(d, np.ones(d.shape)), two=GridFn2(d, np.ones((2, *d.shape))),
                  a2=GridFn1(d.scale1, np.ones((2, 4))), b2=GridFn1(d.scale2, np.ones((2, 4))),
                  table=KernelOracle.from_table(d, np.ones(d.shape * 2)))


# Mismatched stacks that ended in a numpy ValueError or IndexError, or passed
# construction, before every boundary checked its fields.
PROBES = {
    "system constants of three beside two instances": lambda f: compute_bound(
        SystemInputs(np.ones(3), np.ones(3), f.two, f.two, f.two, f.two)),
    "witness_system with c1 of three": lambda f: witness_system(
        np.ones(3), 1.0, f.two, f.two, f.two, f.two),
    "witness_pointwise with a feedback factor of three": lambda f: witness_pointwise(
        f.two, f.two, f.two, np.full(3, 0.5)),
    "witness_pointwise with a feedback factor of two on one instance":
        lambda f: witness_pointwise(f.one, f.one, f.one, np.full(2, 0.5)),
    "integrodynamic a and b of two beside c of one":
        lambda f: IntegrodynamicInputs(f.a2, f.b2, f.one),
    "witness_integrodynamic a and b of two beside c of one":
        lambda f: witness_integrodynamic(f.a2, f.b2, f.one),
    "gronwall_2d of one beside two": lambda f: gronwall_2d(f.one, f.two),
}


@pytest.mark.parametrize("probe", PROBES)
def test_mismatched_stacks_raise_scale_mismatch(probe):
    with pytest.raises(ScaleMismatchError, match="different stack"):
        PROBES[probe](probe_fields())


def test_a_dense_kernel_beside_a_stack_raises_domain_error():
    f = probe_fields()
    one_of_one = GridFn2(f.d, np.ones((1, *f.d.shape)))
    for call in (lambda: witness_kernel(f.two, f.two, f.table),
                 lambda: KernelInputs(f.two, f.two, f.table),
                 lambda: witness_kernel(one_of_one, one_of_one, f.table)):
        with pytest.raises(DomainError, match="a dense kernel takes one instance, not a stack"):
            call()
