"""The stacked verify pass against the sequential reference driver.

run_verification draws a batch one instance at a time and then realizes and
checks it in stacks: each function is realized once, and the witness, the
bound and the re-check run once, on grid functions of shape (count, n1, n2).
tests/references.py keeps the loop that realized, witnessed, bounded and
re-checked one instance at a time.  Summaries, report
grids and the written report bytes must be identical to the loop's; an error
must name the same instance, with the same message and exit code; and a batch
split into several stacks must give the same bytes as one stack.
"""

from __future__ import annotations

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from test_reference_agreement import fn_specs
from tscale import (BoundCase, BoundReport, ConfigError, DomainError, ExponentVariant, FnSpec,
                    GridFn1, GridFn2, InstanceSpec, IntegrodynamicInputs, KernelInputs,
                    KernelOracle, PointwiseInputs, ScaleMismatchError, SystemInputs,
                    TimeScale2D, TscaleError, WitnessMode, compute_bound, grid2d,
                    integer_segment, parse_fn, parse_scale, run_verification, verify,
                    witness_kernel, witness_pointwise, witness_system)
from tscale import cli as cli_mod
from tscale.cli import main

AXES = st.one_of(
    st.builds(lambda a, n: f"integer:{a}..{a + n}", st.integers(-3, 3), st.integers(1, 6)),
    st.builds(lambda q, n: f"q:{q},{n}", st.sampled_from([1.05, 1.5, 2]), st.integers(1, 6)),
    st.builds(lambda n, m: {"kind": "union", "of": [f"integer:0..{n}", f"q:1.5,{m}"]},
              st.integers(1, 3), st.integers(1, 3)))


def summary_text(summary) -> str:
    return json.dumps(summary.to_dict(), indent=2, sort_keys=True)


def written(summary) -> tuple[bytes, bytes]:
    """The CSV and JSON reports written from the summary's stacks, as the
    verify command writes them."""
    csv, js = io.BytesIO(), io.BytesIO()
    cli_mod._write_csv(csv, summary.stacks)
    cli_mod._write_json(js, summary.to_dict(), summary.stacks)
    return csv.getvalue(), js.getvalue()


def assert_same_outcome(new, old) -> None:
    assert summary_text(new) == summary_text(old)
    for a, b in zip(new.reports, old.reports, strict=True):
        assert a.bound.values.tobytes() == b.bound.values.tobytes()
        assert a.witness.values.tobytes() == b.witness.values.tobytes()
        assert a.violations == b.violations
    assert written(new) == written(old)
    # digests hold plain Python values, as the loop's did
    for digest in new.digests:
        for value in digest.values():
            assert type(value) in (int, float, bool, str, list), (value, type(value))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(BoundCase)), AXES, AXES, st.integers(1, 7),
       st.sampled_from(list(WitnessMode)), st.integers(0, 2 ** 32 - 1))
def test_stacked_pass_matches_the_sequential_loop(case, axis1, axis2, count, mode, seed):
    spec = InstanceSpec(case=case, scale1=parse_scale(axis1), scale2=parse_scale(axis2),
                        rng_seed=seed, count=count, witness_mode=mode)
    assert_same_outcome(run_verification(spec), ref.run_verification_loop(spec))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(BoundCase)), AXES, AXES, st.integers(1, 7), st.integers(1, 4),
       st.integers(1, 60), st.sampled_from(list(WitnessMode)), st.integers(0, 2 ** 32 - 1))
def test_stacks_write_the_bytes_of_one_report_per_instance(case, axis1, axis2, count,
                                                           per_stack, block, mode, seed):
    """A batch split into stacks of per_stack instances by a patched
    MAX_STACK_POINTS, written in blocks of a drawn size that cross instance
    bounds and end at each stack's, gives the bytes of the block writer
    that takes one report per instance, on the reports of the reference
    loop, and the summary json.dumps writes."""
    spec = InstanceSpec(case=case, scale1=parse_scale(axis1), scale2=parse_scale(axis2),
                        rng_seed=seed, count=count, witness_mode=mode)
    points = len(spec.scale1.build()) * len(spec.scale2.build())
    with mock.patch.object(grid2d, "MAX_STACK_POINTS", per_stack * points):
        summary = run_verification(spec)
    parts = ref.run_verification_loop(spec).stacks
    payload = {**summary.to_dict(), "theorem": case.value, "seed": seed}
    assert cli_mod._summary_text(payload) == ref.summary_json(payload)
    new_csv, new_json, old_csv, old_json = (io.BytesIO() for _ in range(4))
    with mock.patch.object(cli_mod, "_BLOCK_POINTS", block):
        cli_mod._write_csv(new_csv, summary.stacks)
        cli_mod._write_json(new_json, payload, summary.stacks)
        ref.write_csv_instances(old_csv, parts)
        ref.write_json_instances(old_json, payload, parts)
    assert new_csv.getvalue() == old_csv.getvalue()
    assert new_json.getvalue() == old_json.getvalue()


@pytest.mark.parametrize("case", list(BoundCase))
def test_the_writers_read_each_stack_once_in_order(case):
    """The writers take any iterable of stacks: an iterator over a batch
    split into three stacks gives the bytes the list gives, and each stack's
    rows are written before the next stack is drawn."""
    spec = InstanceSpec(case=case, scale1=parse_scale("integer:0..4"),
                        scale2=parse_scale("q:1.5,3"), rng_seed=5, count=5,
                        witness_mode=WitnessMode.STRICT_SLACK)
    with mock.patch.object(grid2d, "MAX_STACK_POINTS", 2 * 5 * 4):
        summary = run_verification(spec)
    assert len(summary.stacks) == 3
    payload = summary.to_dict()
    for write in (cli_mod._write_csv, lambda fh, stacks: cli_mod._write_json(fh, payload, stacks)):
        listed, streamed, written_at = io.BytesIO(), io.BytesIO(), []

        def drawn():
            for stack in summary.stacks:
                written_at.append(streamed.tell())
                yield stack
        with mock.patch.object(cli_mod, "_BLOCK_POINTS", 7):
            write(listed, summary.stacks)
            write(streamed, drawn())
        assert streamed.getvalue() == listed.getvalue()
        assert 0 < written_at[0] < written_at[1] < written_at[2]


FAMILIES = {"2d": ("any", "constant", "polynomial", "exponential", "tabulated"),
            "scalar": ("any", "constant"), "kernel": ("any", "constant", "affine_product")}


@st.composite
def drawn_functions(draw, case, dom):
    """A descriptor, fixed or sampled and of any family its place takes, for
    some functions of case; the others keep their defaults."""
    functions = {}
    for name, kind in verify._CASE_FUNCTIONS[case]:
        if draw(st.booleans()):
            shape = (1,) if kind == "scalar" else (dom.shape[kind - 1],) \
                if isinstance(kind, int) else dom.shape
            functions[name] = draw(fn_specs(shape, FAMILIES.get(kind, FAMILIES["2d"])))
    return functions


def outcome(run, spec):
    try:
        return run(spec)
    except TscaleError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(BoundCase)), AXES, AXES, st.integers(1, 7), st.integers(1, 3),
       st.sampled_from(list(WitnessMode)), st.integers(0, 2 ** 32 - 1), st.data())
def test_drawn_functions_run_as_the_sequential_loop(case, axis1, axis2, count, per_stack,
                                                    mode, seed, data):
    """Functions of every family, fixed or sampled, in stacks of per_stack
    instances: each stack realizes every function once with the loop's bits,
    drawing the batch leaves the generator where the loop's realizations
    leave it, and the run gives the loop's summary, or its error."""
    scale1, scale2 = parse_scale(axis1), parse_scale(axis2)
    dom = TimeScale2D(scale1.build(), scale2.build())
    check_as_the_loop(InstanceSpec(case=case, scale1=scale1, scale2=scale2, rng_seed=seed,
                                   count=count, functions=data.draw(drawn_functions(case, dom)),
                                   witness_mode=mode), dom, per_stack)


# Kernel-case axes: AXES, points below zero, on which a fixed affine_product
# kernel with nonnegative parameters can go negative, and points far enough
# out that some drawn polynomials leave the float range and some bounds
# overflow, while other instances of the batch pass.
KERNEL_AXES = AXES | st.sampled_from(["explicit:-4,-1.5,0,2.5", "integer:-6..-2",
                                      "explicit:0,1,1e200", "explicit:0,1,2,400,800"])
# Kernels that realize: sampled, or fixed and nonnegative in their parameters.
KERNELS = st.one_of(
    st.sampled_from([FnSpec("any"), FnSpec("constant"), FnSpec("affine_product")]),
    st.builds(lambda v: FnSpec("constant", value=v), st.floats(0.0, 2.0)),
    st.builds(lambda ps: FnSpec("affine_product", params=tuple(ps)),
              st.lists(st.floats(0.0, 2.0), min_size=7, max_size=7)))


@settings(max_examples=80, deadline=None)
@given(KERNEL_AXES, KERNEL_AXES, st.integers(1, 7), st.integers(1, 3),
       st.sampled_from(list(WitnessMode)), st.integers(0, 2 ** 32 - 1), st.data())
def test_stacked_kernel_case_runs_as_the_sequential_loop(axis1, axis2, count, per_stack,
                                                         mode, seed, data):
    """The kernel case in stacks of per_stack instances, one KernelOracle per
    stack, against the loop of single-instance oracles: the same summary,
    or the same error naming the same instance, and the same draws."""
    scale1, scale2 = parse_scale(axis1), parse_scale(axis2)
    dom = TimeScale2D(scale1.build(), scale2.build())
    functions = {"p": FnSpec("polynomial"), **data.draw(drawn_functions(BoundCase.KERNEL, dom))}
    functions["k"] = data.draw(KERNELS | fn_specs(dom.shape, FAMILIES["kernel"]))
    check_as_the_loop(InstanceSpec(case=BoundCase.KERNEL, scale1=scale1, scale2=scale2,
                                   rng_seed=seed, count=count, functions=functions,
                                   witness_mode=mode), dom, per_stack)


def check_as_the_loop(spec, dom, per_stack: int) -> None:
    """run_verification of spec, in stacks of per_stack instances, gives the
    loop's summary or its error; drawing the batch leaves the generator where
    the loop's realizations leave it, and each stack realizes every function
    once with the loop's bits."""
    count, seed = spec.count, spec.rng_seed
    with mock.patch.object(grid2d, "MAX_STACK_POINTS", per_stack * dom.shape[0] * dom.shape[1]):
        new = outcome(run_verification, spec)
    old = outcome(ref.run_verification_loop, spec)
    if isinstance(old, tuple):
        assert new == old
        return
    assert_same_outcome(new, old)
    rng, old_rng = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    functions = verify._functions(spec, dom)
    drawn = [verify._draw(functions, rng, spec.witness_mode) for _ in range(count)]
    loop = [ref.realize_instance(spec, dom, dict(spec.functions), old_rng) for _ in range(count)]
    assert rng.bit_generator.state == old_rng.bit_generator.state
    for start in range(0, count, per_stack):
        part = drawn[start:start + per_stack]
        stacked = verify._realize(functions, part)
        for k, fields in enumerate(loop[start:start + per_stack]):
            for new_field, old_field in zip(stacked, fields, strict=True):
                assert instance_bytes(new_field, k, len(part)) == instance_bytes(old_field, 0, 1)


def instance_bytes(field, k: int, count: int) -> bytes:
    """The bytes of instance k of a function realized for a stack of count:
    a grid function's values, a kernel's factors, a constant or a factor."""
    if isinstance(field, KernelOracle):
        return np.stack(field.instances()[k].factors).tobytes()
    vals = np.asarray(getattr(field, "values", field))
    return (vals[k] if count > 1 else vals).tobytes()


def stack_sizes(monkeypatch) -> list[int]:
    """The number of instances of every stack run_verification checks from now on."""
    sizes: list[int] = []
    check = verify._check_instances

    def counted(spec, functions, drawn, first):
        sizes.append(len(drawn))
        return check(spec, functions, drawn, first)

    monkeypatch.setattr(verify, "_check_instances", counted)
    return sizes


@pytest.mark.parametrize("case", list(BoundCase), ids=lambda c: c.value)
@pytest.mark.parametrize("limit, sizes", [
    (None, [7]), (45, [2, 2, 2, 1]), (10, [1] * 7)], ids=["one", "pairs", "single"])
def test_stacks_split_a_batch_without_changing_it(monkeypatch, case, limit, sizes):
    """7 instances on a 5x4 lattice: one stack, stacks of two under a limit of
    45 points, and one instance per stack when the lattice alone is over the
    limit."""
    spec = InstanceSpec(case=case, scale1=parse_scale("integer:0..4"),
                        scale2=parse_scale("q:2,3"), rng_seed=5, count=7,
                        witness_mode=WitnessMode.STRICT_SLACK)
    whole = run_verification(spec)
    seen = stack_sizes(monkeypatch)
    if limit is not None:
        monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", limit)
    split = run_verification(spec)
    assert seen == sizes
    assert_same_outcome(split, whole)
    assert_same_outcome(split, ref.run_verification_loop(spec))


@pytest.mark.parametrize("case", list(BoundCase), ids=lambda c: c.value)
def test_a_stack_is_split_once_and_its_digests_read_from_the_stack(tmp_path, monkeypatch,
                                                                   case):
    """Each stack's digests come from the columns of its stacked reports, a
    kernel stack's from both variants.  Neither run_verification nor the
    verify command splits a report: the writers take the stacks whole.
    VerifySummary.reports splits each primary stack once, on first access."""
    spec = InstanceSpec(case=case, scale1=parse_scale("integer:0..4"),
                        scale2=parse_scale("q:2,3"), rng_seed=5, count=7,
                        witness_mode=WitnessMode.STRICT_SLACK)
    monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", 4 * 20)
    split = []
    unstack = BoundReport.unstack

    def counted(self):
        split.append(len(self.violations))
        return unstack(self)

    monkeypatch.setattr(BoundReport, "unstack", counted)
    for fmt in ("csv", "json"):
        config = tmp_path / f"{fmt}.cfg"
        config.write_text(json.dumps({
            "theorem": case.value, "scale1": "integer:0..4", "scale2": "q:2,3", "seed": 5,
            "count": 7, "witness_mode": "strict_slack",
            "output": {"path": str(tmp_path / fmt), "format": fmt}}))
        assert main(["verify", str(config)]) in (0, 1)
    summary = run_verification(spec)
    assert split == [] and [len(s.violation_count) for s in summary.stacks] == [4, 3]
    reports = summary.reports
    assert split == [4, 3] and summary.reports is reports
    monkeypatch.undo()
    assert_same_outcome(summary, ref.run_verification_loop(spec))
    assert [d["instance"] for d in summary.digests] == list(range(7))


@pytest.mark.parametrize("variant", list(ExponentVariant), ids=lambda v: v.value)
def test_a_kernel_stack_counts_violations_without_building_their_tuples(monkeypatch, variant):
    """The digests read the violation counts of both kernel variants: a
    stack whose second-variable bound is violated builds no (i, j, witness,
    bound) tuple, and its digests are the reference loop's."""
    spec = InstanceSpec(case=BoundCase.KERNEL, scale1=parse_scale("integer:0..6"),
                        scale2=parse_scale("q:1.5,6"), rng_seed=0, count=4,
                        exponent_variant=variant)
    expected = ref.run_verification_loop(spec)

    def refuse(self):
        raise AssertionError("violation tuples built")

    monkeypatch.setattr(BoundReport, "violations", property(refuse))
    summary = run_verification(spec)
    monkeypatch.undo()
    assert [d["second_variable_dominates"] for d in summary.digests] == [False] * 3 + [True]
    assert summary_text(summary) == summary_text(expected)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


# On this 2003x3 lattice, 2001 unit steps and one step out to 1e110 on the
# first axis, the bound's first-variable product of 1 + 0.3 q overflows in
# its second kappa column for a large enough drawn q, and a drawn polynomial
# p cubic in t1 leaves the float range at the far point, which fails its
# realization.
FAILING = {"theorem": "pointwise", "scale2": "integer:0..2", "count": 4,
           "scale1": {"kind": "union", "of": ["integer:0..2000", "explicit:2001,1e110"]},
           "functions": {"p": {"family": "polynomial"},
                         "q": {"family": "constant"}, "k": "const:0.3"}}


@pytest.mark.parametrize("limit", [None, 2 * 2003 * 3], ids=["one", "pairs"])
@pytest.mark.parametrize("seed, code, message", [
    (10, 2, "instance 1: function 'p': a sampled polynomial leaves the float range "
            "on this scale"),
    (3, 3, "instance 1: first-variable exponential overflowed"),
    (18, 3, "instance 3: first-variable exponential overflowed"),
    # instance 2 fails to realize; instance 1, before it, fails its bound
    (9, 3, "instance 1: first-variable exponential overflowed"),
], ids=["realize", "bound", "bound-last", "bound-before-realize"])
def test_errors_name_the_instance_the_loop_names(tmp_path, capsys, monkeypatch,
                                                 seed, code, message, limit):
    assert_cli_fails_as_the_loop(tmp_path, capsys, monkeypatch, {**FAILING, "seed": seed},
                                 limit, code, message)


def test_an_overflow_outside_kappa_does_not_fail_the_run(tmp_path, capsys):
    """FAILING with two columns: its one kappa column has no second-axis
    integral, so the product that overflows in the second column is never
    formed, and the bound is p."""
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({**FAILING, "scale2": "integer:0..1", "seed": 3,
                               "output": {"path": str(tmp_path / "report")}}))
    assert run_cli(capsys, "verify", str(cfg)) == (0, "")


# The kernel case on FAILING's lattice, which overflows as the pointwise case does.
FAILING_KERNEL = {**FAILING, "theorem": "kernel"}


@pytest.mark.parametrize("limit", [None, 2 * 2003 * 3], ids=["one", "pairs"])
@pytest.mark.parametrize("seed, code, message", [
    (10, 2, "instance 1: function 'p': a sampled polynomial leaves the float range "
            "on this scale"),
    (3, 3, "instance 1: first-variable exponential overflowed"),
    (18, 3, "instance 3: first-variable exponential overflowed"),
    # instance 2 fails to realize; instance 1, before it, fails its bound
    (9, 3, "instance 1: first-variable exponential overflowed"),
], ids=["realize", "bound", "bound-last", "bound-before-realize"])
def test_kernel_errors_name_the_instance_the_loop_names(tmp_path, capsys, monkeypatch,
                                                        seed, code, message, limit):
    assert_cli_fails_as_the_loop(tmp_path, capsys, monkeypatch,
                                 {**FAILING_KERNEL, "seed": seed}, limit, code, message)


def assert_cli_fails_as_the_loop(tmp_path, capsys, monkeypatch, config, limit, code,
                                 message) -> None:
    """tscale verify of config, in stacks of at most limit points, exits with
    code and message, as it does through the sequential loop, and writes
    nothing."""
    if limit is not None:
        monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", limit)
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({**config, "output": {"path": str(tmp_path / "report")}}))
    stacked = run_cli(capsys, "verify", str(cfg))
    monkeypatch.setattr(cli_mod, "run_verification", ref.run_verification_loop)
    assert stacked == run_cli(capsys, "verify", str(cfg)) == (code, f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


# On explicit:0,1e200 a drawn polynomial of degree 2 or more in t1 leaves the
# float range at t1 = 1e200 and one of degree 0 or 1 does not, so some
# instances of a batch fail to realize and others pass.
FAR_POLYNOMIAL = {
    "pointwise": {"p": {"family": "polynomial"}, "q": "const:0", "k": "const:0"},
    "kernel": {"p": {"family": "polynomial"}, "q": "const:0", "k": "const:0"},
    "integrodynamic": {"a": {"family": "polynomial"}, "c": "const:0.5"},
}


@pytest.mark.parametrize("limit", [None, 2 * 4], ids=["one", "pairs"])
@pytest.mark.parametrize("theorem, seed, message", [
    ("pointwise", 5, "instance 1: function 'p'"),
    ("pointwise", 16, "instance 2: function 'p'"),
    ("pointwise", 1, "instance 5: function 'p'"),
    ("kernel", 5, "instance 1: function 'p'"),
    ("kernel", 11, "instance 3: function 'p'"),
    ("kernel", 1, "instance 5: function 'p'"),
    ("integrodynamic", 37, "instance 3: function 'a'"),
    ("integrodynamic", 23, "instance 5: function 'a'"),
])
def test_a_draw_past_the_float_range_names_the_instance_the_loop_names(
        tmp_path, capsys, monkeypatch, theorem, seed, message, limit):
    if limit is not None:
        monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", limit)
    config = {"theorem": theorem, "scale1": "explicit:0,1e200", "scale2": "integer:0..1",
              "count": 6, "seed": seed, "functions": FAR_POLYNOMIAL[theorem]}
    spec = cli_mod.ScenarioConfig.from_dict(
        {**config, "output": {"path": str(tmp_path / "report")}}).instance
    expected = f"{message}: a sampled polynomial leaves the float range on this scale"
    with pytest.raises(ConfigError) as new:
        run_verification(spec)
    with pytest.raises(ConfigError) as old:
        ref.run_verification_loop(spec)
    assert str(new.value) == str(old.value) == expected
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({**config, "output": {"path": str(tmp_path / "report")}}))
    stacked = run_cli(capsys, "verify", str(cfg))
    monkeypatch.setattr(cli_mod, "run_verification", ref.run_verification_loop)
    assert stacked == run_cli(capsys, "verify", str(cfg)) == (2, f"error: {expected}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_a_stacked_witness_gives_each_instance_its_own_bits():
    d = TimeScale2D(integer_segment(0, 5), parse_scale("q:1.5,4").build())
    rng = np.random.Generator(np.random.PCG64(4))
    hs = [rng.uniform(0.0, 2.0, (3, *d.shape)) for _ in range(4)]
    c1, c2, rho = rng.uniform(0.0, 2.0, 3), rng.uniform(0.0, 2.0, 3), rng.uniform(0.0, 1.0, 3)
    u, v = witness_system(c1, c2, *(GridFn2(d, h) for h in hs), feedback_scale=rho)
    for k in range(3):
        uk, vk = witness_system(float(c1[k]), float(c2[k]), *(GridFn2(d, h[k]) for h in hs),
                                feedback_scale=float(rho[k]))
        assert u.values[k].tobytes() == uk.values.tobytes()
        assert v.values[k].tobytes() == vk.values.tobytes()


def test_stacks_are_checked_for_shape():
    d = TimeScale2D(integer_segment(0, 3), integer_segment(0, 2))
    with pytest.raises(ScaleMismatchError, match="do not fit"):
        GridFn2(d, np.ones((2, 2, *d.shape)))
    one, two = GridFn2(d, np.ones(d.shape)), GridFn2(d, np.ones((2, *d.shape)))
    with pytest.raises(ScaleMismatchError, match="different stacks"):
        witness_system(1.0, 1.0, one, one, one, two)
    table = KernelOracle.from_table(d, np.ones(d.shape * 2))
    with pytest.raises(DomainError, match="one instance"):
        witness_kernel(two, two, table)
    with pytest.raises(DomainError, match="one instance"):
        KernelInputs(two, two, table)
    # factors of a stack of two serve p and q of two instances, and only them
    pair = KernelOracle.separable(d, np.ones((1, 2, *d.shape)), np.ones((1, 2, *d.shape)))
    assert pair.stack == (2,) and witness_kernel(two, two, pair).values.shape == (2, *d.shape)
    single = KernelOracle.constant(d, 1.0)
    for kernel, p in ((pair, one), (single, two)):
        with pytest.raises(ScaleMismatchError, match="different stack"):
            witness_kernel(p, p, kernel)
        with pytest.raises(ScaleMismatchError, match="different stack"):
            KernelInputs(p, p, kernel)
    with pytest.raises(DomainError, match="one instance at a time"):
        pair.slab(0)


def test_a_witness_of_another_stack_is_rejected():
    d = TimeScale2D(integer_segment(0, 3), integer_segment(0, 3))
    one, two, three = (GridFn2(d, np.ones((*c, *d.shape))) for c in ((), (2,), (3,)))
    pair = KernelOracle.separable(d, np.ones((1, 2, *d.shape)), np.ones((1, 2, *d.shape)))
    a, b = GridFn1(d.scale1, np.ones((2, 4))), GridFn1(d.scale2, np.ones((2, 4)))
    # a witness of one instance used to raise IndexError where a point
    # violated the bound, and to serve every instance where none did
    violating = GridFn2(d, np.full(d.shape, 1e6))
    for u in (one, violating, three):
        for build in (lambda: PointwiseInputs(two, two, two, u),
                      lambda: KernelInputs(two, two, pair, u),
                      lambda: SystemInputs(np.ones(2), np.ones(2), two, two, two, two, u),
                      lambda: IntegrodynamicInputs(a, b, two, u)):
            with pytest.raises(ScaleMismatchError, match="witness holds a different stack"):
                build()
    report = compute_bound(PointwiseInputs(two, two, two, GridFn2(d, np.full((2, 4, 4), 1e6))))
    assert [len(v) for v in report.violations] == [9, 9]
    assert compute_bound(PointwiseInputs(one, one, one, violating)).max_violation > 0


def test_a_stack_holds_at_most_max_stack_points(monkeypatch):
    per_stack = grid2d.MAX_STACK_POINTS // 100
    seen = stack_sizes(monkeypatch)
    spec = InstanceSpec(case=BoundCase.POINTWISE, scale1=parse_scale("integer:0..9"),
                        scale2=parse_scale("integer:0..9"), rng_seed=1, count=2 * per_stack + 3,
                        functions={name: parse_fn("const:0.01") for name in ("p", "q", "k")})
    assert run_verification(spec).instances_run == spec.count
    assert seen == [per_stack, per_stack, 3]


def test_a_failing_stack_of_one_is_realized_and_checked_once(monkeypatch):
    """One instance per stack on integer:0..99 squared: each stack is realized
    and checked once, the failing one too, and the error names the first
    instance whose bound leaves the float range on kappa x kappa, as the
    loop's does."""
    spec = InstanceSpec(case=BoundCase.POINTWISE, scale1=parse_scale("integer:0..99"),
                        scale2=parse_scale("integer:0..99"), rng_seed=0, count=100)
    monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", 100 * 100)
    calls = {"_realize": 0, "_check_stack": 0}
    for name in calls:
        def counted(*args, name=name, run=getattr(verify, name)):
            calls[name] += 1
            return run(*args)
        monkeypatch.setattr(verify, name, counted)
    message = "instance 59: pointwise bound overflowed at (t1, t2) = (97.0, 98.0)"
    with pytest.raises(DomainError) as new:
        run_verification(spec)
    assert str(new.value) == message
    assert calls == {"_realize": 60, "_check_stack": 60}
    with pytest.raises(DomainError) as old:
        ref.run_verification_loop(spec)
    assert str(old.value) == message


def test_unstacked_reports_are_views_of_the_checked_stack(monkeypatch):
    """BoundReport.unstack hands out each instance's bound and witness as
    views of the stack's values, which GridFn2 checked once; the check
    stays on the stack, so a non-finite stack still raises."""
    d = TimeScale2D(integer_segment(0, 3), parse_scale("q:1.5,2").build())
    rng = np.random.Generator(np.random.PCG64(2))
    p, q, k = (GridFn2(d, rng.uniform(0.0, 1.0, (3, *d.shape))) for _ in range(3))
    report = compute_bound(PointwiseInputs(p, q, k, witness_pointwise(p, q, k, 0.5)))
    checked = []
    monkeypatch.setattr(GridFn2, "__post_init__", lambda self: checked.append(self))
    parts = report.unstack()
    assert checked == []
    for i, part in enumerate(parts):
        for grid, stack in ((part.bound, report.bound), (part.witness, report.witness)):
            assert grid.domain is stack.domain and grid.values.shape == stack.values.shape[1:]
            assert np.shares_memory(grid.values, stack.values)
            assert grid.values.tobytes() == stack.values[i].tobytes()
            assert not grid.values.flags.writeable
    monkeypatch.undo()
    bad = np.ones((3, *d.shape))
    bad[2, 1, 1] = np.inf
    with pytest.raises(DomainError, match="must be finite"):
        GridFn2(d, bad)


def test_the_draws_path_realizes_a_stack_even_of_one():
    """With draws= a realizer returns a stack, a stack of one for one draw;
    without, one instance, as before."""
    from tscale import config
    d = TimeScale2D(integer_segment(0, 3), parse_scale("q:1.5,2").build())
    rng = np.random.Generator(np.random.PCG64(3))
    spec = FnSpec("any")
    # (draw one, realize, shape of one instance, shape of a stack of count)
    cases = [
        (lambda: config.draw(spec, d.shape, rng),
         lambda draws=None: config.realize_2d(spec, d, rng, draws=draws).values,
         d.shape, lambda count: (count, *d.shape)),
        (lambda: config.draw(spec, (4,), rng, True),
         lambda draws=None: config.realize_1d(spec, d.scale1, rng, True, draws).values,
         (4,), lambda count: (count, 4)),
        (lambda: config.draw_scalar(spec, rng),
         lambda draws=None: np.asarray(config.realize_scalar(spec, rng, draws)),
         (), lambda count: (count,)),
        (lambda: config.draw_kernel(spec, rng),
         lambda draws=None: config.realize_kernel(spec, d, rng, draws).factors[0],
         (1, *d.shape), lambda count: (1, count, *d.shape)),
    ]
    for draw_one, realize, one, stack in cases:
        assert realize().shape == one
        for count in (1, 3):
            assert realize([draw_one() for _ in range(count)]).shape == stack(count)
    assert type(config.realize_scalar(spec, rng)) is float
