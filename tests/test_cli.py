"""Command-line interface: golden outputs, exit codes, file determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import references as ref
from tscale import TimeScale2D, integer_segment
from tscale import cli as cli_mod
from tscale.cli import fmt_number, main
from tscale.config import FAMILIES, SCALES, parse_scale, read_keys


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_number_prints_shortest_round_trip():
    assert fmt_number(6.0) == "6"
    assert fmt_number(0.1) == "0.1"
    assert fmt_number(2.0 ** 0.5) == "1.4142135623730951"
    assert fmt_number(-3.0) == "-3"


def test_calc_dint_identity_on_integer_segment(capsys):
    code, out, _ = run_cli(capsys, "calc", "dint", "--scale", "integer:0..5",
                           "--fn", "poly:0,1", "--from", "0", "--to", "4")
    assert code == 0
    assert out == "6\n"


def test_calc_exp_doubles(capsys):
    code, out, _ = run_cli(capsys, "calc", "exp", "--scale", "integer:0..5",
                           "--fn", "const:1", "--t0", "0")
    assert code == 0
    assert out.splitlines() == ["t,value", "0,1", "1,2", "2,4", "3,8",
                                "4,16", "5,32"]


def test_calc_mu_on_geometric_scale(capsys):
    code, out, _ = run_cli(capsys, "calc", "mu", "--scale", "q:2,4")
    assert code == 0
    assert out.splitlines() == ["t,value", "1,1", "2,2", "4,4", "8,8", "16,0"]


def test_calc_sigma_rows(capsys):
    code, out, _ = run_cli(capsys, "calc", "sigma", "--scale", "explicit:0,1,3")
    assert code == 0
    assert out.splitlines() == ["t,value", "0,1", "1,3", "3,3"]


def test_calc_dderiv_rows(capsys):
    code, out, _ = run_cli(capsys, "calc", "dderiv", "--scale", "integer:0..4",
                           "--fn", "poly:0,0,1")
    assert code == 0
    assert out.splitlines() == ["t,value", "0,1", "1,3", "2,5", "3,7"]


def test_calc_compare_rows(capsys):
    code, out, _ = run_cli(capsys, "calc", "compare", "--scale", "integer:0..3",
                           "--f", "const:0", "--g", "const:1",
                           "--xa", "1", "--from", "0")
    assert code == 0
    assert out.splitlines() == ["t,value", "0,1", "1,2", "2,4", "3,8"]


@pytest.mark.parametrize("xa", ["nan", "inf", "-inf"])
def test_calc_compare_rejects_a_non_finite_start(capsys, xa):
    code, _, err = run_cli(capsys, "calc", "compare", "--scale", "integer:0..5",
                           "--f", "const:1", "--g", "const:0.1", "--from", "0",
                           f"--xa={xa}")
    assert code == 2
    assert "--xa must be a finite number" in err


@pytest.mark.parametrize("op, flag, value, more", [
    ("dint", "--to", "nan", ("--fn", "const:1", "--from=0")),
    ("dint", "--from", "nan", ("--fn", "const:1", "--to=3")),
    ("dint", "--from", "-inf", ("--fn", "const:1", "--to=3")),
    ("exp", "--t0", "inf", ("--fn", "const:1")),
    ("compare", "--from", "nan", ("--f", "const:1", "--g", "const:0.1")),
])
def test_calc_rejects_a_non_finite_anchor(capsys, op, flag, value, more):
    code, out, err = run_cli(capsys, "calc", op, "--scale", "integer:0..3", f"{flag}={value}",
                             *more)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be a finite number, got {value}\n"


@pytest.mark.parametrize("fn, code", [
    ("exp:2,0.5", 0), ("sin", 0), ("sin:2", 0), ("table:1,2,3,4,5", 0),
    ("exp:2", 2), ("sin:", 2), ("table:1,2", 2), ("poly:1,x", 2)])
def test_calc_parses_text_descriptors(capsys, fn, code):
    got, out, err = run_cli(capsys, "calc", "dderiv", "--scale", "integer:0..4", "--fn", fn)
    assert got == code
    if code == 0:
        assert len(out.splitlines()) == 5 and not err
    else:
        assert err.startswith("error:") and not out


def test_calc_rejects_small_q(capsys):
    code, _, err = run_cli(capsys, "calc", "mu", "--scale", "q:1,5")
    assert code == 2
    assert "q must exceed 1" in err


def test_calc_rejects_missing_point(capsys):
    code, _, err = run_cli(capsys, "calc", "dint", "--scale", "integer:0..5",
                           "--fn", "const:1", "--from", "0", "--to", "4.5")
    assert code == 3
    assert "4.5 is not a point" in err


@pytest.mark.parametrize("scale, upper", [("integer:0..3", "3"), ("q:10,3", "1000")])
def test_calc_dint_past_the_float_range_exits_3(capsys, scale, upper):
    # on integer:0..3 the sum of three terms overflows, on q:10,3 each term
    code, out, err = run_cli(capsys, "calc", "dint", "--scale", scale,
                             "--fn", "const:1e308", "--from", "1", "--to", upper)
    assert (code, out) == (3, "")
    assert err == "error: sum outside the float range\n"


@pytest.mark.parametrize("argv", [
    ("dderiv", "--scale", "integer:0..2", "--fn", "table:1e308,-1e308,1e308"),
    ("dint", "--scale", "integer:0..3", "--fn", "const:1e308", "--from", "0", "--to", "3"),
    ("exp", "--scale", "integer:0..3", "--fn", "const:1e308", "--t0", "0"),
    ("exp", "--scale", "integer:0..2", "--fn", "table:1e308,-1e308,1e308", "--t0", "0"),
    ("compare", "--scale", "integer:0..3", "--f", "const:1", "--g", "const:1", "--from", "0",
     "--xa", "1e308"),
    ("compare", "--scale", "integer:0..3", "--f", "const:1e308", "--g", "const:1",
     "--from", "0"),
], ids=lambda argv: "-".join(argv[:1] + argv[4:5]))
def test_calc_on_overflowing_input_prints_one_error_and_no_warning(capsys, argv):
    """Each calc operation on input past the float range exits 3 with one
    error line.  Warnings are recorded here, not raised, so one that escapes
    the arithmetic, which the command line would print, shows in the record."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "calc", *argv)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Warning" not in err and "Traceback" not in err
    assert [str(w.message) for w in caught] == []


def test_calc_rejects_non_regressive_exp(capsys):
    code, _, err = run_cli(capsys, "calc", "exp", "--scale", "integer:0..5",
                           "--fn", "const:-1", "--t0", "0")
    assert code == 3
    assert "regressive" in err


def test_calc_requires_needed_flags(capsys):
    code, _, err = run_cli(capsys, "calc", "dint", "--scale", "integer:0..5",
                           "--fn", "const:1", "--from", "0")
    assert code == 2
    assert "--to" in err


def test_calc_rejects_unparseable_scale(capsys):
    code, _, err = run_cli(capsys, "calc", "mu", "--scale", "lattice:0..5")
    assert code == 2
    assert "unknown scale kind" in err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def verify_payload(tmp_path, **overrides):
    payload = {
        "theorem": "pointwise",
        "scale1": {"kind": "integer_segment", "start": 0, "end": 5},
        "scale2": {"kind": "integer_segment", "start": 0, "end": 5},
        "seed": 17,
        "count": 3,
        "witness_mode": "strict_slack",
        "output": {"path": str(tmp_path / "report"), "format": "csv"},
    }
    payload.update(overrides)
    return payload


def test_verify_writes_rows_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path))
    code, _, _ = run_cli(capsys, "verify", str(cfg))
    assert code == 0
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "t1,t2,witness,bound,slack"
    # three instances on the 5x5 kappa lattice
    assert len(csv_lines) == 1 + 3 * 25
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["instances_run"] == 3
    assert summary["instances_with_violation"] == 0
    assert summary["worst_relative_violation"] == 0.0
    assert summary["theorem"] == "pointwise"
    assert len(summary["digests"]) == 3


def test_verify_closed_form_first_row(tmp_path, capsys):
    payload = verify_payload(
        tmp_path,
        count=1,
        witness_mode="equality",
        scale1={"kind": "integer_segment", "start": 0, "end": 3},
        scale2={"kind": "integer_segment", "start": 0, "end": 3},
        functions={"p": {"family": "constant", "value": 1},
                   "q": {"family": "constant", "value": 1},
                   "k": {"family": "constant", "value": 1}})
    cfg = write_config(tmp_path, "v.json", payload)
    code, _, _ = run_cli(capsys, "verify", str(cfg))
    assert code == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[1] == "0,0,1,1,0"
    assert lines[-1] == "2,2,6,37,31"


def test_verify_reruns_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, theorem="kernel",
        scale2={"kind": "q_grid", "q": 2, "N": 4}))
    assert run_cli(capsys, "verify", str(cfg))[0] == 0
    first_csv = (tmp_path / "report.csv").read_bytes()
    first_json = (tmp_path / "report.json").read_bytes()
    assert run_cli(capsys, "verify", str(cfg))[0] == 0
    assert (tmp_path / "report.csv").read_bytes() == first_csv
    assert (tmp_path / "report.json").read_bytes() == first_json


def test_verify_kernel_over_table_budget_exits_two(tmp_path, capsys, monkeypatch):
    from tscale import grid2d
    # a config kernel on the 6x6 lattice holds its two factors, 576 bytes
    monkeypatch.setattr(grid2d, "MAX_KERNEL_TABLE_BYTES", 575)
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, theorem="kernel"))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "MAX_KERNEL_TABLE_BYTES" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.csv").exists()


def test_verify_json_format_inlines_points(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, output={"path": str(tmp_path / "all"), "format": "json"},
        count=1))
    code, _, _ = run_cli(capsys, "verify", str(cfg))
    assert code == 0
    assert not (tmp_path / "all.csv").exists()
    data = json.loads((tmp_path / "all.json").read_text())
    assert len(data["points"]) == 25
    assert set(data["points"][0]) == {"t1", "t2", "witness", "bound", "slack"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("theorem", ["pointwise", "kernel", "system", "integrodynamic"])
def test_verify_report_bytes_match_the_row_loop(tmp_path, capsys, monkeypatch,
                                                theorem, fmt):
    summaries = []
    run = cli_mod.run_verification
    monkeypatch.setattr(cli_mod, "run_verification",
                        lambda spec: summaries.append(run(spec)) or summaries[-1])
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, theorem=theorem, scale2={"kind": "q_grid", "q": 2, "N": 4},
        output={"path": str(tmp_path / "report"), "format": fmt}))
    assert run_cli(capsys, "verify", str(cfg))[0] == 0
    reports = summaries[0].reports
    written = (tmp_path / "report.json").read_bytes()
    payload = json.loads(written)
    expected = io.StringIO()
    if fmt == "csv":
        ref.write_csv(expected, reports)
        assert (tmp_path / "report.csv").read_bytes() == expected.getvalue().encode()
        assert written == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    else:
        del payload["points"]
        ref.write_json(expected, payload, reports)
        assert written == expected.getvalue().encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_failed_write_leaves_no_partial_report(tmp_path, capsys, monkeypatch, fmt):
    """A write that fails partway leaves older reports at the targets as they
    were and no temporary file behind."""
    blocks = cli_mod._report_blocks
    old = {tmp_path / "report.csv": b"old rows\n", tmp_path / "report.json": b"{}\n"}
    for path, data in old.items():
        path.write_bytes(data)

    def fail_on_second_block(*args, **kwargs):
        for number, block in enumerate(blocks(*args, **kwargs)):
            if number == 1:
                # the first block's rows are on their way to a temporary file
                assert any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
                assert all(path.read_bytes() == data for path, data in old.items())
                failing.pop()
                raise OSError("No space left on device")
            yield block

    failing = [True]
    # three reports of 25 kappa points: the second 20-point block spans the first two
    monkeypatch.setattr(cli_mod, "_BLOCK_POINTS", 20)
    monkeypatch.setattr(cli_mod, "_report_blocks", fail_on_second_block)
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, output={"path": str(tmp_path / "report"), "format": fmt}))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "No space left" in err
    assert not failing
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json", "v.json"]
    assert all(path.read_bytes() == data for path, data in old.items())


def csv_writer_peak(n: int) -> int:
    """tracemalloc's peak while _write_csv writes one n x n report, with a
    witness, to a file that keeps nothing in memory."""
    dom = TimeScale2D(integer_segment(0, n - 1), integer_segment(0, n - 1))
    rng = np.random.default_rng(n)
    report = SimpleNamespace(
        bound=SimpleNamespace(domain=dom, values=rng.uniform(1.0, 2.0, (n, n))),
        witness=SimpleNamespace(values=rng.uniform(0.0, 1.0, (n, n))))
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            cli_mod._write_csv(sink, [report])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_verify_csv_writer_memory_is_set_by_a_block_not_a_report():
    """The writer's working set is one block's: 25 times the points of a
    report take at most a quarter more memory at the peak."""
    small, large = csv_writer_peak(50), csv_writer_peak(250)
    assert large <= 1.25 * small, (small, large)


@pytest.mark.parametrize("scale1, p, seed, code, message", [
    # the drawn exponential leaves the float range on 0..2000; it is capped
    ("integer:0..2000", {"family": "exponential"}, 1, 0, ""),
    ("explicit:0,1e110", {"family": "polynomial"}, 7, 2,
     "error: instance 0: function 'p': a sampled polynomial leaves the float range "
     "on this scale\n"),
], ids=["exponential", "polynomial"])
def test_verify_caps_or_names_a_draw_past_the_float_range(tmp_path, capsys, scale1, p,
                                                           seed, code, message):
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, scale1=scale1, scale2="integer:0..3", seed=seed, count=1,
        functions={"p": p, "q": "const:0.001", "k": "const:0.001"}))
    assert run_cli(capsys, "verify", str(cfg))[::2] == (code, message)


def test_verify_keeps_a_capped_monotone_exponential_strictly_positive(tmp_path, capsys):
    """a's drawn exponential leaves the float range at t1 = 3000 and takes the
    log-space cap, which underflows to 0 below t1 = 1 without the floor at
    the smallest normal double; a must stay strictly positive."""
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, theorem="integrodynamic", scale1="explicit:0,1,3000",
        scale2="integer:0..2", functions={"a": {"family": "exponential"}}, seed=1,
        count=1, witness_mode="equality"))
    assert run_cli(capsys, "verify", str(cfg)) == (0, "", "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_replaces_an_older_report_with_the_bytes_of_a_fresh_one(tmp_path, capsys, fmt):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for directory in (tmp_path, fresh):
        cfg = write_config(directory, "v.json", verify_payload(
            tmp_path, output={"path": str(directory / "report"), "format": fmt}))
        if directory is tmp_path:
            (tmp_path / "report.json").write_text("stale " * 10 ** 4)
        assert run_cli(capsys, "verify", str(cfg))[0] == 0
    names = sorted(p.name for p in fresh.iterdir() if p.name != "v.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["fresh", "v.json"])
    for name in names:
        assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "relative"])
@pytest.mark.parametrize("path", ["same", "same.json", "same.csv", "link/same",
                                  "sub/../same.json", "missing/../same.csv"])
def test_verify_refuses_to_write_over_its_own_config(tmp_path, capsys, monkeypatch,
                                                     path, absolute):
    """Every report target is checked before anything is computed, also one
    reached through a symlinked directory, or through ".." after a directory
    that exists or not."""
    monkeypatch.setattr(cli_mod, "run_verification", None)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    cfg = write_config(tmp_path, "same.json", verify_payload(
        tmp_path, output={"path": str(tmp_path / path) if absolute else path}))
    before = cfg.read_bytes()
    code, _, err = run_cli(capsys, "verify", str(cfg) if absolute else "same.json")
    assert code == 2
    assert err.startswith("error:") and "over the config file" in err
    assert cfg.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "same.json", "sub"]


def test_verify_writes_over_a_hard_link_to_its_config(tmp_path, capsys):
    """A hard link is another path to the config's file, so the report may
    replace it; the config keeps its bytes."""
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, output={"path": str(tmp_path / "hard"), "format": "json"}))
    os.link(cfg, tmp_path / "hard.json")
    before = cfg.read_bytes()
    assert run_cli(capsys, "verify", str(cfg))[0] == 0
    assert cfg.read_bytes() == before
    assert json.loads((tmp_path / "hard.json").read_text())["theorem"] == "pointwise"


def test_verify_writer_formats_no_row_through_fmt_number(tmp_path, capsys, monkeypatch):
    calls = []
    spell = cli_mod.fmt_number
    monkeypatch.setattr(cli_mod, "fmt_number", lambda x: calls.append(x) or spell(x))
    for fmt in ("csv", "json"):
        cfg = write_config(tmp_path, "v.json", verify_payload(
            tmp_path, output={"path": str(tmp_path / fmt), "format": fmt}))
        assert run_cli(capsys, "verify", str(cfg))[0] == 0
    assert (tmp_path / "csv.csv").exists() and (tmp_path / "json.json").exists()
    assert calls == []


@pytest.mark.parametrize("override", [{"output": "x"}, {"functions": ["p"]}],
                         ids=["output", "functions"])
def test_verify_rejects_a_section_that_is_not_an_object(tmp_path, capsys, override):
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, **override))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    key = next(iter(override))
    assert err.startswith("error:") and f"'{key}' must be a JSON object" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, seed=-1))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "'seed' must be a nonnegative integer" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_verify_exit_one_on_violation(tmp_path, capsys, monkeypatch):
    from tscale.verify import VerifySummary

    def fake_run(instance):
        return VerifySummary(instances_run=1, instances_with_violation=1,
                             worst_relative_violation=0.5,
                             digests=[{"instance": 0}], variant_comparison=None,
                             stacks=[])
    monkeypatch.setattr(cli_mod, "run_verification", fake_run)
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path))
    code, _, _ = run_cli(capsys, "verify", str(cfg))
    assert code == 1
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["instances_with_violation"] == 1


@pytest.mark.parametrize("variant, code", [("second", 1), ("first", 0)])
def test_verify_exit_one_on_a_real_violation(tmp_path, capsys, variant, code):
    """A constant kernel on a 6x6 integer lattice: the second-variable
    exponent bound is violated (worst relative excess about 0.37), the
    first-variable one holds, and the primary variant decides the exit code."""
    cfg = write_config(tmp_path, "v.json", {
        "theorem": "kernel", "scale1": "integer:0..5", "scale2": "integer:0..5",
        "seed": 3, "count": 1, "functions": {"k": {"family": "constant"}},
        "exponent_variant": variant, "output": {"path": str(tmp_path / "report")}})
    assert run_cli(capsys, "verify", str(cfg))[0] == code
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["instances_with_violation"] == code
    assert summary["variant_comparison"]["second_variable"]["instances_with_violation"] == 1
    assert summary["variant_comparison"]["first_variable"]["instances_with_violation"] == 0
    assert (summary["worst_relative_violation"] > 0.3) == (code == 1)


def test_verify_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    def broken_run(instance):
        raise RuntimeError("unexpected state")
    monkeypatch.setattr(cli_mod, "run_verification", broken_run)
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 4
    assert err == "internal error: RuntimeError: unexpected state\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_verify_reports_a_negative_kernel_on_negative_points(tmp_path, capsys):
    """Nonnegative affine_product parameters leave the kernel's sign to the
    points: (0, 1, 1, 0, 1, 0, 0) is k = t1, which is -1 at t1 = -1."""
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, theorem="kernel", scale1="explicit:-1,0", scale2="explicit:-1,0",
        functions={"p": "const:1", "q": "const:1",
                   "k": {"family": "affine_product", "params": [0, 1, 1, 0, 1, 0, 0]}},
        count=1))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert (code, err) == (0, "")
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["digests"][0]["diagnostics"] == [
        "kernel negative at index (0, 0, 0, 0): -1"]


def test_verify_rejects_bad_theorem(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, theorem="maximal"))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert "theorem" in err


def test_verify_rejects_small_q_scale(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, scale1={"kind": "q_grid", "q": 1, "N": 5}))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert "q must exceed 1" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("scale1", [
    '{"kind": "integer_segment", "start": "a", "end": 5}',
    '{"kind": "q_grid", "q": 2, "N": "x"}',
    '{"kind": "explicit", "points": [0, "b", 2]}',
    '{"kind": "h_grid", "start": 0, "end": 1, "h": NaN}',
    '{"kind": "integer_segment", "start": 0, "end": 1e400}',
    '{"kind": "q_grid", "q": NaN, "N": 5}',
    '{"kind": "q_grid", "q": 1e400, "N": 5}',
], ids=["start", "N", "points", "h-nan", "end-huge", "q-nan", "q-huge"])
def test_verify_rejects_a_scale_number_that_is_not_finite(tmp_path, capsys, scale1):
    text = json.dumps(verify_payload(tmp_path, scale1="SCALE1"))
    (tmp_path / "v.json").write_text(text.replace('"SCALE1"', scale1), encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "v.json"))
    assert code == 2
    assert err.startswith("error:") and "is not a finite number" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


FAR = ("error: a scale from ", "leaves the float range\n")
COLLAPSED = ("error: ", "time scale points must be strictly increasing\n")


@pytest.mark.parametrize("scale, message", [
    ("explicit:-1e308,1e308", FAR),
    ("q:1e300,2", FAR),
    ({"kind": "union", "of": ["explicit:-1e308,0", "explicit:0,1e308"]}, FAR),
    ("integer:9007199254740990..9007199254740999", COLLAPSED),
    ("h:0.5,1e16..1.0000000000000002e16", COLLAPSED),
], ids=["explicit", "q", "union", "integer-collapsed", "h-collapsed"])
def test_a_scale_past_the_float_range_exits_two(tmp_path, capsys, scale, message):
    """Finite numbers whose scale has a step or a point past the float range
    (graininess inf), or whose points collapse in floating point (above 2**53
    here), exit 2 like other bad scale input; under the suite's
    RuntimeWarning-as-error setting a warning would exit 4."""
    head, tail = message
    if isinstance(scale, str):
        code, out, err = run_cli(capsys, "calc", "mu", "--scale", scale)
        assert (code, out) == (2, "") and err.startswith(head) and err.endswith(tail)
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, scale1=scale))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2 and err.startswith(head) and err.endswith(tail)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_a_scale_past_the_float_range_warns_nothing():
    out = subprocess.run([sys.executable, "-m", "tscale", "calc", "mu",
                          "--scale", "explicit:-1e308,1e308"],
                         capture_output=True, text=True, env=child_env())
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: a scale from -1e+308 to 1e+308 leaves the float range\n"


def test_a_derivative_past_the_float_range_is_one_error_line():
    out = subprocess.run([sys.executable, "-m", "tscale", "calc", "dderiv",
                          "--scale", "integer:0..2", "--fn", "table:1e308,-1e308,1e308"],
                         capture_output=True, text=True, env=child_env())
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: delta derivative overflowed the representable range\n"


def test_verify_kernel_beyond_the_dense_table_budget(tmp_path, capsys):
    """A config kernel holds its factors, not a table: on a 120x120 lattice
    its dense table would take 1.66 GB, over MAX_KERNEL_TABLE_BYTES."""
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, theorem="kernel", scale1="h:0.01,0..1.19", scale2="h:0.01,0..1.19",
        functions={"k": {"family": "affine_product"}}, count=1))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert (code, err) == (0, "")
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["instances_with_violation"] == 0
    assert summary["digests"][0]["hypothesis_residual"] <= 1e-10


@pytest.mark.parametrize("scale1, scale2", [
    ({"kind": "h_grid", "start": 0, "end": 1, "h": 1e-300}, "integer:0..5"),
    ("h:1e-320,0..1", "integer:0..5"),
    ("integer:0..1e15", "integer:0..5"),
    ({"kind": "q_grid", "q": 1.5, "N": 1e12}, "integer:0..5"),
    ({"kind": "union", "of": ["integer:0..9999999", "dense:0.5,0..9999999"]}, "integer:0..5"),
    ("integer:0..4000", "integer:0..2500"),
], ids=["h-tiny", "h-subnormal", "integer-huge", "q-N-huge", "union", "lattice"])
def test_verify_rejects_a_lattice_over_the_point_limit(tmp_path, capsys, scale1, scale2):
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, scale1=scale1,
                                                          scale2=scale2))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "MAX_LATTICE_POINTS" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_the_point_limit_admits_the_largest_supported_scales():
    from tscale.config import parse_scale
    assert len(parse_scale({"kind": "dense_mesh", "start": 0, "end": 1000,
                            "h": 0.01}).build()) == 100001
    axis = parse_scale({"kind": "h_grid", "start": 0, "end": 1, "h": 0.001}).build()
    from tscale.core import check_lattice_points
    check_lattice_points(len(axis) * len(axis), "product lattice")


# Inputs that once ended in a traceback or ran with a truncated number.
MALFORMED = {
    "value-text": {"functions": {"p": {"family": "constant", "value": "x"}}},
    "coeffs-text": {"functions": {"p": {"family": "polynomial", "coeffs": [[1, "x"]]}}},
    "rate1-text": {"functions": {"p": {"family": "exponential", "rate1": "x"}}},
    "values-text": {"functions": {"p": {"family": "tabulated", "values": "abcd"}}},
    "params-number": {"theorem": "kernel",
                      "functions": {"k": {"family": "affine_product", "params": 5}}},
    "c1-text": {"theorem": "system", "functions": {"c1": {"value": "x"}}},
    "value-nan": {"functions": {"p": {"family": "constant", "value": math.nan}}},
    "value-bool": {"functions": {"p": {"family": "constant", "value": True}}},
    "points-number": {"scale1": {"kind": "explicit", "points": 5}},
    "dense-number": {"scale1": {"kind": "explicit", "points": [0, 1], "dense": 5}},
    "of-number": {"scale1": {"kind": "union", "of": 5}},
    "q-fractional-N": {"scale1": "q:2,2.5"},
    # a field with no family once ran with a drawn family that ignored it
    "c1-value-no-family": {"theorem": "system", "functions": {"c1": {"value": 2}}},
    "k-params-no-family": {"theorem": "kernel",
                           "functions": {"k": {"params": [1, 0, 1, 0, 1, 0, 0]}}},
    "p-coeffs-any": {"functions": {"p": {"family": "any", "coeffs": [1, 2]}}},
    "a-rate-any": {"theorem": "integrodynamic",
                   "functions": {"a": {"family": "any", "rate": 0.1}}},
}


@pytest.mark.parametrize("override", MALFORMED.values(), ids=MALFORMED.keys())
def test_verify_rejects_a_malformed_descriptor(tmp_path, capsys, override):
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, **override))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


@pytest.mark.parametrize("dense", [[True], [False] * 4], ids=["short", "long"])
def test_verify_rejects_dense_tags_that_miss_the_points(tmp_path, capsys, dense):
    cfg = write_config(tmp_path, "v.json", verify_payload(
        tmp_path, scale1={"kind": "explicit", "points": [0, 1, 2], "dense": dense}))
    code, _, err = run_cli(capsys, "verify", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "'dense'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


@pytest.mark.parametrize("path", [".", "..", "/", "out/", "out/.", "out/.."])
@pytest.mark.parametrize("command", ["verify", "converge"])
def test_an_output_path_without_a_file_name_exits_2(tmp_path, capsys, monkeypatch,
                                                    command, path):
    """A path whose last component is empty, . or .. names no file: it exits 2
    before anything runs, where it once raised inside pathlib or wrote
    ...csv next to the working directory."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    payload = verify_payload(tmp_path, output={"path": path}) if command == "verify" else {
        "operation": "dderiv",
        "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.1},
        "function": {"family": "constant", "value": 3.0},
        "output": {"path": path}}
    cfg = write_config(tmp_path, "c.json", payload)
    code, _, err = run_cli(capsys, command, str(cfg))
    assert code == 2
    assert err.startswith("error:") and "names a directory" in err
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["c.json", "work"]


def test_verify_reports_a_whole_text_N_as_an_integer(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", verify_payload(tmp_path, scale1="q:2,3"))
    assert run_cli(capsys, "verify", str(cfg))[0] == 0
    scale1 = json.loads((tmp_path / "report.json").read_text())["scale1"]
    assert scale1 == {"kind": "q_grid", "q": 2.0, "N": 3}
    assert type(scale1["N"]) is int


def converge_payload(tmp_path, **overrides):
    return {"operation": "dderiv",
            "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.1},
            "function": {"family": "constant", "value": 3.0},
            "output": {"path": str(tmp_path / "conv")}, **overrides}


UNIONED = ["integer:0..1", "integer:2..3"]
# One key per config object that the object does not read, in a config that
# is valid without it: command, top-level entries (those of "output" added to
# it), the key, and the object as the error names it.
REFUSED = {
    "verify": ("verify", {"witness_mod": "strict_slack"}, "witness_mod", "verify config"),
    "verify-output": ("verify", {"output": {"fromat": "json"}}, "fromat", "'output'"),
    "integer_segment": ("verify", {"scale1": {"kind": "integer_segment", "start": 0, "end": 3,
                                              "h": 1}}, "h", "integer_segment scale"),
    "h_grid": ("verify", {"scale1": {"kind": "h_grid", "start": 0, "end": 1, "h": 0.5,
                                     "q": 2}}, "q", "h_grid scale"),
    "q_grid": ("verify", {"scale1": {"kind": "q_grid", "q": 2, "N": 3, "start": 1}},
               "start", "q_grid scale"),
    "explicit": ("verify", {"scale1": {"kind": "explicit", "points": [0, 1, 2],
                                       "of": UNIONED}}, "of", "explicit scale"),
    "union": ("verify", {"scale1": {"kind": "union", "of": UNIONED, "points": [0, 1]}},
              "points", "union scale"),
    "dense_mesh": ("verify", {"scale1": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.5,
                                         "N": 3}}, "N", "dense_mesh scale"),
    "constant": ("verify", {"functions": {"p": {"family": "constant", "value": 1,
                                                "rate": 0.1}}}, "rate", "constant function"),
    "polynomial": ("verify", {"functions": {"p": {"family": "polynomial", "coeffs": [[1]],
                                                  "values": [[1]]}}},
                   "values", "polynomial function"),
    "exponential": ("verify", {"functions": {"p": {"family": "exponential", "amplitude": 1,
                                                   "value": 2}}}, "value", "exponential function"),
    "tabulated": ("verify", {"functions": {"p": {"family": "tabulated", "coeffs": [1]}}},
                  "coeffs", "tabulated function"),
    "sin": ("verify", {"functions": {"p": {"family": "sin", "omega": 1, "amplitude": 2}}},
            "amplitude", "sin function"),
    "affine_product": ("verify", {"theorem": "kernel", "functions": {"k": {
        "family": "affine_product", "params": [1] * 7, "omega": 1}}},
        "omega", "affine_product function"),
    "any": ("verify", {"functions": {"p": {"family": "any", "vlaue": 3}}}, "vlaue", "'any'"),
    "converge": ("converge", {"verbose": True}, "verbose", "converge config"),
    "converge-output": ("converge", {"output": {"format": "csv"}}, "format", "'output'"),
}


@pytest.mark.parametrize("command, entries, key, what", REFUSED.values(), ids=REFUSED.keys())
def test_a_key_its_object_does_not_read_exits_2(tmp_path, capsys, command, entries, key, what):
    """Each config object reads the keys of its table, and a key it does not
    read exits 2 naming the key and the object, before anything runs."""
    payload = (verify_payload if command == "verify" else converge_payload)(tmp_path)
    payload.update({**entries, "output": {**payload["output"], **entries.get("output", {})}})
    cfg = write_config(tmp_path, "c.json", payload)
    code, _, err = run_cli(capsys, command, str(cfg))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"'{key}'" in err and what in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def readme_configs() -> dict:
    """The README's example configs, by the heading of their section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    found = {}
    for section in text.split("\n### ")[1:]:
        heading, _, body = section.partition("\n")
        if "```json\n" in body:
            found[heading] = json.loads(body.split("```json\n")[1].split("```")[0])
    return found


def test_the_benchmark_and_readme_configs_read_every_key_they_give():
    """Every pool template and 1-D scale of benchmarks/workloads.py, and the
    README's verify and converge examples, parse: they give only keys that
    their objects read."""
    import pool_bytes
    workloads = pool_bytes._workloads()
    for jobs in workloads.TEMPLATES.values():
        for _, template in jobs:
            cli_mod.ScenarioConfig.from_dict(workloads.job_config(template, 0, Path("report")))
    for scale in workloads.SCALES_1D:
        parse_scale(scale).build()
    examples = readme_configs()
    assert sorted(examples) == ["converge", "verify"]
    cli_mod.ScenarioConfig.from_dict(examples["verify"])
    read_keys(examples["converge"], cli_mod._CONVERGE, "converge config")


# Valid verify configs on lattices of at most 4x4 points, one per case, with
# every function descriptor given and list-valued scale fields to mutate.
FUZZ_BASES = [
    {"theorem": "pointwise",
     "scale1": {"kind": "explicit", "points": [0, 0.5, 1.5, 2], "dense": [False] * 4},
     "scale2": {"kind": "union", "of": ["integer:0..1", "explicit:1.5,3"]},
     "functions": {"p": {"family": "constant", "value": 1},
                   "q": {"family": "polynomial", "coeffs": [[0.5, 0.1], [0.2, 0]]},
                   "k": {"family": "exponential", "amplitude": 1, "rate1": 0.1,
                         "rate2": 0.2}}},
    {"theorem": "kernel", "scale1": "integer:0..3", "scale2": "q:2,2",
     "functions": {"p": {"family": "tabulated", "values": [[1, 2, 3]] * 4},
                   "q": "const:0.5",
                   "k": {"family": "affine_product", "params": [1, 0.1, 1, 0.2, 1, 0, 0.1]}}},
    {"theorem": "system", "scale1": "h:0.5,0..1.5", "scale2": "integer:0..2",
     "functions": {"c1": {"family": "constant", "value": 1}, "c2": "const:0.5",
                   "h1": {"family": "any"}, "h2": {"family": "constant", "value": 0.2},
                   "h3": {"family": "polynomial", "coeffs": [[0.1], [0.1]]},
                   "h4": {"family": "tabulated", "values": [[0.1, 0.2, 0.3]] * 4}}},
    {"theorem": "integrodynamic",
     "scale1": {"kind": "explicit", "points": [0, 1, 3], "dense": [False, True, True]},
     "scale2": {"kind": "union", "of": [{"kind": "integer_segment", "start": 0, "end": 2},
                                        "q:2,1"]},
     "functions": {"a": {"family": "polynomial", "coeffs": [1, 0.5]},
                   "b": {"family": "exponential", "amplitude": 1, "rate": 0.1},
                   "c": {"family": "exponential", "amplitude": 1, "rate1": 0.1,
                         "rate2": 0}}},
]
MISSING = object()
# Wrong types, text, NaN and infinities, booleans, ragged or nested lists and
# removed keys, next to values that may well be valid.
JUNK = st.one_of(
    st.sampled_from([MISSING, None, "any", "constant", "polynomial", 0.5, [0.5, 1],
                     [[0.5, 1]], [False, True, True]]),
    st.sampled_from(["x", "", "1", "nan", "1e400", "const:1", "integer:0..2",
                     math.nan, math.inf, -math.inf]),
    st.booleans(), st.integers(-3, 5), st.floats(-5.0, 5.0), st.text(max_size=3),
    st.lists(st.integers(-1, 3) | st.floats(-2.0, 2.0) | st.booleans()
             | st.sampled_from(["x", math.nan, math.inf]), max_size=5),
    st.lists(st.lists(st.floats(0.0, 2.0), max_size=4), max_size=4),
    st.dictionaries(st.sampled_from(["family", "value", "kind", "x"]),
                    st.integers(0, 2) | st.sampled_from(["constant", "explicit"]), max_size=2),
)


# Text function descriptors of every kind, well formed or not.
TEXT_FNS = st.sampled_from(["const:1", "const:", "poly:0.5,0.1", "poly:1,x", "exp:", "exp:1",
                            "exp:1,0.1", "exp:1,0.1,2", "sin", "sin:", "sin:2", "table:",
                            "table:1,2,3", "table:0.5,1,1.5,2", "table:1,x"])


@st.composite
def mutated_configs(draw):
    """A fuzz base with one or two descriptor or scale-list entries replaced
    by junk or removed, or a function descriptor replaced by text."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(cfg["functions"]) + ["scale1", "scale2"]))
        holder = cfg if name.startswith("scale") else cfg["functions"]
        if holder is not cfg and draw(st.integers(0, 3)) == 0:
            holder[name] = draw(TEXT_FNS)
            continue
        if not isinstance(holder[name], dict):
            holder[name] = {"family": "any"} if holder is cfg["functions"] else "integer:0..1"
            continue
        if holder is cfg:   # the keys its kind reads
            fields = sorted(SCALES[holder[name]["kind"]])
        else:               # its own keys, and those its family reads
            family = holder[name].get("family")
            reads = FAMILIES.get(family, {}) if isinstance(family, str) else {}
            fields = sorted({"family", *holder[name], *reads})
        field, junk = draw(st.sampled_from(fields)), draw(JUNK)
        if junk is MISSING:
            holder[name].pop(field, None)
        else:
            holder[name][field] = junk
    return cfg


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_configs(), st.sampled_from(["csv", "json"]))
def test_verify_fuzzed_descriptors_exit_cleanly(cfg, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "report"
        path = Path(tmp) / "v.json"
        path.write_text(json.dumps({**cfg, "seed": 3, "count": 2,
                                    "output": {"path": str(stem), "format": fmt}}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", str(path)])
        assert code in (0, 1, 2, 3)
        lines = err.getvalue().splitlines()
        if code in (2, 3):
            assert any(line.startswith("error:") for line in lines)
        if code == 2:
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["v.json"]
        if code in (0, 1):
            summary = json.loads(stem.with_suffix(".json").read_text())
            assert (summary["instances_with_violation"] > 0) == (code == 1)


def test_verify_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "JSON" in err


def test_verify_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2
    assert "absent.json" in err


def test_converge_dderiv_orders_near_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "operation": "dderiv",
        "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.02},
        "function": {"family": "sin", "omega": 1.0},
        "output": {"path": str(tmp_path / "conv")},
    })
    code, _, _ = run_cli(capsys, "converge", str(cfg))
    assert code == 0
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert lines[0] == "h,max_error,observed_order"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[2] == ""
    for line in lines[2:]:
        order = float(line.split(",")[2])
        assert 0.9 <= order <= 1.1


def test_converge_constant_function_is_exact(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "operation": "dderiv",
        "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.1},
        "function": {"family": "constant", "value": 3.0},
        "output": {"path": str(tmp_path / "conv")},
    })
    code, _, _ = run_cli(capsys, "converge", str(cfg))
    assert code == 0
    for line in (tmp_path / "conv.csv").read_text().splitlines()[1:]:
        _, err_s, order_s = line.split(",")
        assert err_s == "0"
        assert order_s == ""


def test_converge_refuses_to_write_over_its_own_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "conv.csv", {
        "operation": "dderiv",
        "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.1},
        "function": {"family": "constant", "value": 3.0},
        "output": {"path": str(tmp_path / "conv")},
    })
    before = cfg.read_bytes()
    code, _, err = run_cli(capsys, "converge", str(cfg))
    assert code == 2 and "over the config file" in err
    assert cfg.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conv.csv"]


def test_converge_exp_needs_constant_coefficient(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "operation": "exp",
        "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.01},
        "function": {"family": "sin"},
        "output": {"path": str(tmp_path / "conv")},
    })
    code, _, err = run_cli(capsys, "converge", str(cfg))
    assert code == 2
    assert "constant" in err


def test_converge_rejects_an_output_that_is_not_an_object(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "operation": "dderiv",
        "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.01},
        "function": {"family": "sin"},
        "output": "x",
    })
    code, _, err = run_cli(capsys, "converge", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "'output' must be a JSON object" in err


def test_converge_exp_tracks_the_classical_exponential(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "operation": "exp",
        "scale": {"kind": "dense_mesh", "start": 0, "end": 1, "h": 0.01},
        "function": {"family": "constant", "value": 1.0},
        "output": {"path": str(tmp_path / "conv")},
    })
    code, _, _ = run_cli(capsys, "converge", str(cfg))
    assert code == 0
    lines = (tmp_path / "conv.csv").read_text().splitlines()[1:]
    h0, err0, _ = lines[0].split(",")
    assert float(err0) <= 3.0 * float(h0)
    for line in lines[1:]:
        assert 0.9 <= float(line.split(",")[2]) <= 1.1


def test_converge_reads_numeric_text_as_its_number(tmp_path, capsys, monkeypatch):
    def run(scale, name):
        cfg = write_config(tmp_path, f"{name}.json", {
            "operation": "dderiv", "scale": {"kind": "dense_mesh", **scale},
            "function": {"family": "sin"}, "output": {"path": str(tmp_path / name)}})
        code, _, err = run_cli(capsys, "converge", str(cfg))
        return code, err
    assert run({"start": 0, "end": 1, "h": 0.25}, "number") == (0, "")
    assert run({"start": "0", "end": "1", "h": "0.25"}, "text") == (0, "")
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "number.csv").read_bytes()
    code, err = run({"start": 0, "end": 1, "h": "x"}, "bad")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "bad.csv").exists()
    # every halving is a scale of its own, within MAX_LATTICE_POINTS
    from tscale import core
    monkeypatch.setattr(core, "MAX_LATTICE_POINTS", 100)
    assert run({"start": 0, "end": 1, "h": 0.1}, "coarse") == (0, "")
    code, err = run({"start": 0, "end": 1, "h": 0.05}, "fine")
    assert code == 2 and "MAX_LATTICE_POINTS" in err
    assert not (tmp_path / "fine.csv").exists()


def child_env(**extra: str) -> dict:
    """Environment for a `python -m tscale` child process: this one's, with the
    directory holding the imported tscale package first on PYTHONPATH."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_log_level_env_controls_verbosity(tmp_path):
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps(verify_payload(tmp_path, count=1)), encoding="utf-8")
    env = child_env(TSCALE_LOG="info")
    out = subprocess.run([sys.executable, "-m", "tscale", "verify", str(cfg)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "verified 1 instances" in out.stderr
    env_quiet = child_env(TSCALE_LOG="error")
    quiet = subprocess.run([sys.executable, "-m", "tscale", "verify", str(cfg)],
                           capture_output=True, text=True, env=env_quiet)
    assert quiet.returncode == 0
    assert quiet.stderr == ""


def test_module_entry_point_matches_script():
    out = subprocess.run([sys.executable, "-m", "tscale", "calc", "dint",
                          "--scale", "integer:0..5", "--fn", "poly:0,1",
                          "--from", "0", "--to", "4"],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    assert out.stdout == "6\n"
