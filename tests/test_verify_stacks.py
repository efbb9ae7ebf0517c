"""The stacked verify pass against the sequential reference driver.

run_verification realizes a batch one instance at a time and then checks it
in stacks: the witness, the bound and the re-check run once on grid functions
of shape (count, n1, n2).  tests/references.py keeps the loop that realized,
witnessed, bounded and re-checked one instance at a time.  Summaries, report
grids and the written report bytes must be identical to the loop's; an error
must name the same instance, with the same message and exit code; and a batch
split into several stacks must give the same bytes as one stack.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from tscale import (BoundCase, DomainError, GridFn2, InstanceSpec, KernelInputs,
                    KernelOracle, ScaleMismatchError, TimeScale2D, WitnessMode,
                    grid2d, integer_segment, parse_fn, parse_scale, run_verification,
                    verify, witness_kernel, witness_system)
from tscale import cli as cli_mod
from tscale.cli import main

AXES = st.one_of(
    st.builds(lambda a, n: f"integer:{a}..{a + n}", st.integers(-3, 3), st.integers(1, 6)),
    st.builds(lambda q, n: f"q:{q},{n}", st.sampled_from([1.05, 1.5, 2]), st.integers(1, 6)),
    st.builds(lambda n, m: {"kind": "union", "of": [f"integer:0..{n}", f"q:1.5,{m}"]},
              st.integers(1, 3), st.integers(1, 3)))


def summary_text(summary) -> str:
    return json.dumps(summary.to_dict(), indent=2, sort_keys=True)


def written(summary) -> tuple[str, str]:
    csv, js = io.StringIO(), io.StringIO()
    cli_mod._write_csv(csv, summary.reports)
    cli_mod._write_json(js, summary.to_dict(), summary.reports)
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


def stack_sizes(monkeypatch) -> list[int]:
    """The number of instances of every stack run_verification checks from now on."""
    sizes: list[int] = []
    check = verify._check_instances

    def counted(spec, drawn, first):
        sizes.append(len(drawn))
        return check(spec, drawn, first)

    monkeypatch.setattr(verify, "_check_instances", counted)
    return sizes


@pytest.mark.parametrize("case", list(BoundCase), ids=lambda c: c.value)
@pytest.mark.parametrize("limit, sizes", [
    (None, [7]), (45, [2, 2, 2, 1]), (10, [1] * 7)], ids=["one", "pairs", "single"])
def test_stacks_split_a_batch_without_changing_it(monkeypatch, case, limit, sizes):
    """7 instances on a 5x4 lattice: one stack, stacks of two under a limit of
    45 points, and one instance per stack when the lattice alone is over the
    limit.  The kernel case always runs stacks of one."""
    spec = InstanceSpec(case=case, scale1=parse_scale("integer:0..4"),
                        scale2=parse_scale("q:2,3"), rng_seed=5, count=7,
                        witness_mode=WitnessMode.STRICT_SLACK)
    whole = run_verification(spec)
    seen = stack_sizes(monkeypatch)
    if limit is not None:
        monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", limit)
    split = run_verification(spec)
    assert seen == ([1] * 7 if case is BoundCase.KERNEL else sizes)
    assert_same_outcome(split, whole)
    assert_same_outcome(split, ref.run_verification_loop(spec))


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


# On this 2002x2 lattice, 2001 unit steps and one step out to 1e110, the
# bound's first-variable product of 1 + 0.3 q overflows for a large enough
# drawn q, and a drawn polynomial p cubic in t1 leaves the float range at the
# far point, which fails its realization.
FAILING = {"theorem": "pointwise", "scale2": "integer:0..1", "count": 4,
           "scale1": {"kind": "union", "of": ["integer:0..2000", "explicit:2001,1e110"]},
           "functions": {"p": {"family": "polynomial"},
                         "q": {"family": "constant"}, "k": "const:0.3"}}


@pytest.mark.parametrize("limit", [None, 2 * 2002 * 2], ids=["one", "pairs"])
@pytest.mark.parametrize("seed, code, message", [
    (10, 2, "instance 1: function 'p': a sampled polynomial leaves the float range "
            "on this scale"),
    (3, 3, "instance 1: first-variable exponential overflowed"),
    # instance 2 fails to realize; instance 1, before it, fails its bound
    (115, 3, "instance 1: first-variable exponential overflowed"),
], ids=["realize", "bound", "bound-before-realize"])
def test_errors_name_the_instance_the_loop_names(tmp_path, capsys, monkeypatch,
                                                 seed, code, message, limit):
    if limit is not None:
        monkeypatch.setattr(grid2d, "MAX_STACK_POINTS", limit)
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({**FAILING, "seed": seed,
                               "output": {"path": str(tmp_path / "report")}}))
    stacked = run_cli(capsys, "verify", str(cfg))
    monkeypatch.setattr(cli_mod, "run_verification", ref.run_verification_loop)
    assert stacked == run_cli(capsys, "verify", str(cfg)) == (code, f"error: {message}\n")
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


def test_a_stack_holds_at_most_max_stack_points(monkeypatch):
    per_stack = grid2d.MAX_STACK_POINTS // 100
    seen = stack_sizes(monkeypatch)
    spec = InstanceSpec(case=BoundCase.POINTWISE, scale1=parse_scale("integer:0..9"),
                        scale2=parse_scale("integer:0..9"), rng_seed=1, count=2 * per_stack + 3,
                        functions={name: parse_fn("const:0.01") for name in ("p", "q", "k")})
    assert run_verification(spec).instances_run == spec.count
    assert seen == [per_stack, per_stack, 3]
