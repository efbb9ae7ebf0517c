"""Acceptance gate: nine desk-scale checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; each criterion is a separate test so a failure pins the exact gap.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from tscale import (BoundCase, FnSpec, GridFn1, GridFn2, InstanceSpec,
                    IntegrodynamicInputs, KernelInputs, KernelOracle,
                    PointwiseInputs, RectPartition, SystemInputs, TimeScale2D,
                    WitnessMode, antiderivative, cauchy_integral,
                    comparison_bound, compute_bound, darboux_sums,
                    delta_derivative, dense_mesh, double_integral, exp_fn,
                    explicit_scale, integer_segment, parse_scale, q_grid,
                    run_verification, running_integral, witness_comparison,
                    witness_pointwise)
from tscale.cli import main


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_fundamental_theorem_round_trips():
    with criterion(1, "integral/derivative round-trips at 1e-12 on Z and q-grids"):
        rng = np.random.Generator(np.random.PCG64(1001))
        for trial in range(50):
            if trial % 2 == 0:
                scale = integer_segment(0, int(rng.integers(3, 25)))
            else:
                scale = q_grid(2.0, int(rng.integers(2, 13)))
            deg = int(rng.integers(0, 4))
            coeffs = rng.standard_normal(deg + 1)
            vals = np.polynomial.polynomial.polyval(scale.points, coeffs)
            f = GridFn1(scale, vals)
            # derivative of the antiderivative restores the integrand
            round_a = delta_derivative(antiderivative(f, 0))
            tol = 1e-12 * (1.0 + np.abs(vals).max())
            assert np.abs(round_a.values - vals[:-1]).max() <= tol
            # antiderivative of the derivative restores the function
            round_b = antiderivative(delta_derivative(f), 0, x0=vals[0])
            assert np.abs(round_b.values - vals[:-1]).max() <= tol


def test_criterion_2_exponential_closed_forms_and_dense_convergence():
    with criterion(2, "e_p closed forms on Z at 1e-12; dense-mesh error 3h, order ~1"):
        for alpha in (0.5, 1.0, 2.0):
            s = integer_segment(0, 12)
            e = exp_fn(GridFn1(s, np.full(len(s), alpha)), 0)
            ref = (1.0 + alpha) ** s.points
            assert np.abs(e.values / ref - 1.0).max() <= 1e-12
        errors = []
        meshes = [0.01, 0.005, 0.0025, 0.00125]
        for h in meshes:
            mesh = dense_mesh(0.0, 1.0, h)
            e = exp_fn(GridFn1(mesh, np.ones(len(mesh))), 0)
            err = abs(e.values[-1] - math.e)
            assert err <= 3.0 * h
            errors.append(err)
        for prev, cur in zip(errors, errors[1:]):
            order = math.log2(prev / cur)
            assert 0.9 <= order <= 1.1


def test_criterion_3_comparison_bound_equality_and_slack():
    with criterion(3, "comparison bound: equality witnesses at 1e-9; "
                      "100 slacked solutions stay below"):
        rng = np.random.Generator(np.random.PCG64(2002))
        scales = [integer_segment(0, 30), q_grid(2.0, 9),
                  explicit_scale([0.0, 0.25, 1.0, 1.5, 4.0, 4.5, 6.0])]
        for scale in scales:
            for _ in range(5):
                f = GridFn1(scale, np.abs(rng.standard_normal(len(scale))))
                g = GridFn1(scale, np.abs(rng.standard_normal(len(scale))))
                x_a = float(rng.uniform(0.0, 3.0))
                x = witness_comparison(f, g, x_a, 0)
                bound = comparison_bound(x_a, f, g, 0)
                rel = np.abs(x.values - bound.values) \
                    / (1.0 + np.abs(bound.values))
                assert rel.max() <= 1e-9
        for trial in range(100):
            n = int(rng.integers(3, 51))
            s = integer_segment(0, n)
            f = GridFn1(s, np.abs(rng.standard_normal(len(s))))
            g = GridFn1(s, np.abs(rng.standard_normal(len(s))))
            x_a = float(rng.uniform(0.0, 3.0))
            slack = float(rng.uniform(0.0, 1.0))
            x = witness_comparison(f, g, x_a, 0, slack=slack)
            bound = comparison_bound(x_a, f, g, 0)
            excess = x.values - bound.values
            assert excess.max() <= 1e-9 * (1.0 + np.abs(bound.values).max())


def test_criterion_4_pointwise_dominance_and_closed_form():
    with criterion(4, "pointwise bound: 100 Z^2 + 100 q-grid^2 instances clean; "
                      "constant instance hits 37 against witness 6"):
        sizes = np.random.Generator(np.random.PCG64(3003))
        worst = 0.0
        for i in range(100):
            n1 = int(sizes.integers(2, 21))
            n2 = int(sizes.integers(2, 21))
            mode = WitnessMode.EQUALITY if i % 2 == 0 else WitnessMode.STRICT_SLACK
            spec = InstanceSpec(case=BoundCase.POINTWISE,
                                scale1=parse_scale(f"integer:0..{n1}"),
                                scale2=parse_scale(f"integer:0..{n2}"),
                                rng_seed=3100 + i, count=1, witness_mode=mode)
            out = run_verification(spec)
            assert out.instances_with_violation == 0
            worst = max(worst, out.worst_relative_violation)
        for i in range(100):
            n1 = int(sizes.integers(2, 10))
            n2 = int(sizes.integers(2, 10))
            mode = WitnessMode.EQUALITY if i % 2 == 0 else WitnessMode.STRICT_SLACK
            spec = InstanceSpec(case=BoundCase.POINTWISE,
                                scale1=parse_scale(f"q:2,{n1}"),
                                scale2=parse_scale(f"q:2,{n2}"),
                                rng_seed=3200 + i, count=1, witness_mode=mode)
            out = run_verification(spec)
            assert out.instances_with_violation == 0
            worst = max(worst, out.worst_relative_violation)
        assert worst <= 1e-9
        d = TimeScale2D(integer_segment(0, 3), integer_segment(0, 3))
        one = GridFn2.constant(d, 1.0)
        u = witness_pointwise(one, one, one)
        rep = compute_bound(PointwiseInputs(u=u, p=one, q=one, k=one))
        assert rep.bound.values[2, 2] == 37.0
        assert rep.witness.values[2, 2] == 6.0
        assert not rep.violations


def test_criterion_5_kernel_reduction_and_monotone_instances():
    with criterion(5, "kernel bound: constant kernel reduces to pointwise at "
                      "1e-12; 50 monotone kernels clean under the first-variable "
                      "exponent (second variant recorded)"):
        d = TimeScale2D(integer_segment(0, 6), q_grid(2.0, 5))
        rng = np.random.Generator(np.random.PCG64(4004))
        p = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
        q = GridFn2(d, rng.uniform(0.0, 2.0, d.shape))
        level = 0.8
        rep_k = compute_bound(KernelInputs(p=p, q=q, k=KernelOracle.constant(d, level)))
        rep_p = compute_bound(PointwiseInputs(p=p, q=q, k=GridFn2.constant(d, level)))
        rel = np.abs(rep_k.bound.values - rep_p.bound.values) \
            / (1.0 + np.abs(rep_p.bound.values))
        assert rel.max() <= 1e-12

        kernel_fns = {"k": FnSpec("affine_product")}
        second_ok = 0
        for half, mode in ((0, WitnessMode.EQUALITY), (1, WitnessMode.STRICT_SLACK)):
            spec = InstanceSpec(case=BoundCase.KERNEL,
                                scale1=parse_scale("integer:0..8"),
                                scale2=parse_scale("q:2,5"),
                                functions=kernel_fns,
                                rng_seed=4100 + half, count=25,
                                witness_mode=mode)
            out = run_verification(spec)
            assert out.instances_with_violation == 0
            assert out.variant_comparison["first_variable"]["instances_with_violation"] == 0
            for digest in out.digests:
                assert digest["first_variable_dominates"] is True
                second_ok += digest["second_variable_dominates"]
        print(f"       second-variable exponent dominated in {second_ok}/50 "
              f"instances (informational)")


def test_criterion_6_system_dominance_and_collapse():
    with criterion(6, "system bound: 100 instances keep u+v below; zero "
                      "coupling collapses to c1+c2"):
        spec = InstanceSpec(case=BoundCase.SYSTEM,
                            scale1=parse_scale("integer:0..15"),
                            scale2=parse_scale("integer:0..14"),
                            rng_seed=5005, count=50,
                            witness_mode=WitnessMode.EQUALITY)
        out = run_verification(spec)
        assert out.instances_run == 50
        assert out.instances_with_violation == 0
        spec2 = InstanceSpec(case=BoundCase.SYSTEM,
                             scale1=parse_scale("q:2,6"),
                             scale2=parse_scale("integer:0..12"),
                             rng_seed=5006, count=50,
                             witness_mode=WitnessMode.STRICT_SLACK)
        out2 = run_verification(spec2)
        assert out2.instances_with_violation == 0
        d = TimeScale2D(integer_segment(0, 5), integer_segment(0, 5))
        zero = GridFn2.constant(d, 0.0)
        rep = compute_bound(SystemInputs(c1=2.5, c2=1.5,
                                         h1=zero, h2=zero, h3=zero, h4=zero))
        assert np.array_equal(rep.bound.values, np.full((5, 5), 4.0))
        assert rep.max_violation == 0.0


def test_criterion_7_integrodynamic_dominance_and_tightness():
    with criterion(7, "integro-dynamic bound: 100 instances keep u below "
                      "iint(h); c=0 case is tight at 1e-12"):
        for seed, mode in ((6006, WitnessMode.EQUALITY),
                           (6007, WitnessMode.STRICT_SLACK)):
            spec = InstanceSpec(case=BoundCase.INTEGRODYNAMIC,
                                scale1=parse_scale("integer:0..12"),
                                scale2=parse_scale("integer:0..11"),
                                rng_seed=seed, count=50, witness_mode=mode)
            out = run_verification(spec)
            assert out.instances_run == 50
            assert out.instances_with_violation == 0
        rng = np.random.Generator(np.random.PCG64(6008))
        for _ in range(10):
            s1 = integer_segment(0, int(rng.integers(2, 10)))
            s2 = q_grid(2.0, int(rng.integers(2, 7)))
            d = TimeScale2D(s1, s2)
            a = GridFn1(s1, 0.5 + np.cumsum(np.abs(rng.standard_normal(len(s1)))))
            b = GridFn1(s2, 0.5 + np.cumsum(np.abs(rng.standard_normal(len(s2)))))
            rep = compute_bound(IntegrodynamicInputs(a=a, b=b,
                                                     c=GridFn2.constant(d, 0.0)))
            gap = np.abs(rep.witness.values - rep.bound.values)
            assert gap.max() <= 1e-12 * (1.0 + np.abs(rep.bound.values).max())


def test_criterion_8_darboux_and_fubini():
    with criterion(8, "Darboux sums bracket and refine; finest partition and "
                      "Fubini agree with the integral at 1e-12"):
        rng = np.random.Generator(np.random.PCG64(7007))
        for _ in range(50):
            n1 = int(rng.integers(3, 9))
            n2 = int(rng.integers(3, 9))
            ticks1 = np.unique(rng.integers(0, 40, size=n1))
            ticks2 = np.unique(rng.integers(0, 40, size=n2))
            if len(ticks1) < 2 or len(ticks2) < 2:
                continue
            d = TimeScale2D(explicit_scale(ticks1 / 4.0),
                            explicit_scale(ticks2 / 4.0))
            f = GridFn2(d, rng.uniform(-5.0, 5.0, d.shape))
            m1, m2 = len(ticks1) - 1, len(ticks2) - 1
            ref = double_integral(f, (0, m1, 0, m2))
            slack = 1e-12 * (1.0 + abs(ref))

            coarse = RectPartition((0, m1), (0, m2))
            cuts1 = tuple(sorted({0, m1, *map(int, rng.integers(0, m1 + 1, size=2))}))
            cuts2 = tuple(sorted({0, m2, *map(int, rng.integers(0, m2 + 1, size=2))}))
            mid = coarse.refine(RectPartition(cuts1, cuts2))
            fine = RectPartition.finest(d)

            u_c, l_c = darboux_sums(f, coarse)
            u_m, l_m = darboux_sums(f, mid)
            u_f, l_f = darboux_sums(f, fine)
            assert l_c <= l_m + slack and u_m <= u_c + slack
            assert l_m <= ref + slack and ref <= u_m + slack
            assert abs(u_f - ref) <= slack and abs(l_f - ref) <= slack

            one_two = running_integral(running_integral(f, 2), 1).values[m1, m2]
            two_one = running_integral(running_integral(f, 1), 2).values[m1, m2]
            assert abs(one_two - ref) <= slack
            assert abs(two_one - ref) <= slack


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "verify reruns produce byte-identical CSV and JSON"):
        config = {
            "theorem": "kernel",
            "scale1": {"kind": "integer_segment", "start": 0, "end": 7},
            "scale2": {"kind": "q_grid", "q": 2, "N": 5},
            "seed": 99, "count": 5,
            "witness_mode": "strict_slack",
            "exponent_variant": "both",
            "output": {"path": str(tmp_path / "det"), "format": "csv"},
        }
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert main(["verify", str(cfg)]) == 0
        csv_once = (tmp_path / "det.csv").read_bytes()
        json_once = (tmp_path / "det.json").read_bytes()
        assert main(["verify", str(cfg)]) == 0
        assert (tmp_path / "det.csv").read_bytes() == csv_once
        assert (tmp_path / "det.json").read_bytes() == json_once
