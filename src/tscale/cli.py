"""Command-line front end.

Three subcommands:

  calc      point operations on one scale, rows of "t,value" on stdout
  verify    run a batch of seeded bound checks from a JSON config
  converge  halve a dense mesh four times and report observed error orders

Exit codes: 0 success, 1 verify found a bound violation, 2 bad
configuration, 3 domain or regressivity failure, 4 internal error (any
other exception; its traceback is logged at debug).  Logging verbosity
comes from the TSCALE_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import BoundCase, ExponentVariant
from .config import REQUIRED, classical_forms, parse_fn, parse_scale, read_keys, realize_1d
from .core import GridFn1, cauchy_integral, delta_derivative
from .errors import ConfigError, DomainError
from .exponential import comparison_bound, exp_fn
from .spelling import _JSON_SPECIAL, WIDTH, spell
from .verify import InstanceSpec, WitnessMode, run_verification

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


# Points per block of a verify report, taken in order across all reports and
# stacks of a call.  Each block is one spelling kernel call, whose fixed cost
# is about that of spelling 900 values: enough points to spread that cost,
# few enough that a large lattice's text and the kernel's temporaries never
# pile up in memory.
_BLOCK_POINTS = 2048
# One point of a verify report: constant bytes alternating with the index of
# a field in (t1, t2, witness, bound, slack).  A JSON point is inlined in the
# top-level "points" array as json.dumps(indent=2, sort_keys=True) writes it,
# after the ",\n" that separates it from the point before.
_CSV_ROW = (b"", 0, b",", 1, b",", 2, b",", 3, b",", 4, b"\n")
_JSON_ROW = (b',\n    {\n      "bound": ', 3, b',\n      "slack": ', 4,
             b',\n      "t1": ', 0, b',\n      "t2": ', 1, b',\n      "witness": ', 2,
             b"\n    }")


def _numbers(values, json_rule: bool = False) -> list[str]:
    """Each value as fmt_number spells it or, with json_rule, as json.dumps
    spells a float (NaN, Infinity, -Infinity)."""
    return spell(values, json_rule).astype(str).tolist()


def fmt_number(x: float) -> str:
    """Shortest decimal that round-trips to the same float; 6.0 prints as 6."""
    return _numbers([x])[0]


def _print_rows(points: np.ndarray, values: np.ndarray) -> None:
    rows = zip(_numbers(points), _numbers(values))
    sys.stdout.write("t,value\n" + "".join(f"{t},{v}\n" for t, v in rows))


def _cmd_calc(args: argparse.Namespace) -> int:
    scale = parse_scale(args.scale).build()
    op = args.operation
    if op == "sigma":
        idx = [scale.sigma(i) for i in range(len(scale))]
        _print_rows(scale.points, scale.points[idx])
        return 0
    if op == "mu":
        _print_rows(scale.points, scale.graininess)
        return 0
    if op == "dint":
        f = _fixed_fn(args.fn, scale)
        print(fmt_number(cauchy_integral(f, scale.locate(args.lower),
                                         scale.locate(args.upper))))
        return 0
    if op == "compare":
        f, g = _fixed_fn(args.f, scale), _fixed_fn(args.g, scale)
        out = comparison_bound(args.xa, f, g, scale.locate(args.lower))
    elif op == "dderiv":
        out = delta_derivative(_fixed_fn(args.fn, scale))
    else:   # exp, the last of the parser's choices
        out = exp_fn(_fixed_fn(args.fn, scale), scale.locate(args.t0))
    _print_rows(out.scale.points, out.values)
    return 0


def _fixed_fn(text: str, scale) -> GridFn1:
    return realize_1d(parse_fn(text), scale)


def _read_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None


def _whole(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError("must be a nonnegative integer")
    return value


def _file_path(value) -> str:
    if not value or not isinstance(value, str) or "\0" in value:
        raise ValueError("must be text naming a file, without NUL characters")
    return value


def _functions(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError("must be a JSON object")
    return {name: parse_fn(fn) for name, fn in value.items()}


# The key tables of the verify and converge configs and their 'output' objects.
_OUTPUT = {"path": (_file_path, REQUIRED)}
_VERIFY = {"theorem": ({case.value: case for case in BoundCase}, REQUIRED),
           "scale1": (parse_scale, REQUIRED),
           "scale2": (parse_scale, REQUIRED),
           "functions": (_functions, {}),
           "witness_mode": ({mode.value: mode for mode in WitnessMode}, "equality"),
           "exponent_variant": ({v: v for v in ("first", "second", "both")}, "first"),
           "count": (_whole, 1),
           "seed": (_whole, 0),
           "output": (lambda out: read_keys(out, {**_OUTPUT, "format": (
               {"csv": "csv", "json": "json"}, "csv")}, "'output'"), REQUIRED)}
_CONVERGE = {"operation": ({"dderiv": "dderiv", "exp": "exp"}, REQUIRED),
             "scale": (parse_scale, REQUIRED),
             "function": (parse_fn, REQUIRED),
             "output": (lambda out: read_keys(out, _OUTPUT, "'output'"), REQUIRED)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed verify config: the instance batch plus output disposition."""

    instance: InstanceSpec
    output_path: str
    output_format: str
    variant_mode: str

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        top = read_keys(obj, _VERIFY, "verify config")
        out, variant = top.pop("output"), top.pop("exponent_variant")
        instance = InstanceSpec(
            case=top.pop("theorem"), rng_seed=top.pop("seed"), **top,
            exponent_variant=ExponentVariant("second" if variant == "second" else "first"))
        return cls(instance, out["path"], out["format"], variant)


def _report_blocks(reports, json_rule: bool = False):
    """Yield the reports' rows (t1, t2, witness, bound, slack) as spelled
    columns, one block of at most _BLOCK_POINTS consecutive points at a time,
    taken in order across all reports, which share one domain.  A report is
    one instance or a stack of several, whose instances' rows follow one
    another; a block is a slice of each report's flattened witness and
    bound.  Each block's witness, bound and slack are spelled by one kernel
    call, which the first block shares with the domain's two axes.  Without
    a witness, witness and slack are NaN; a slack past the float range is
    inf or NaN, as float subtraction gives it."""
    if not reports:
        return
    dom = reports[0].bound.domain
    axes = np.concatenate([dom.scale1.points, dom.scale2.points])
    n1, n2 = dom.shape
    size = n1 * n2
    total = sum(report.bound.values.size for report in reports)
    r, start, end = -1, 0, 0    # the report in hand holds rows start..end - 1
    for lo in range(0, total, _BLOCK_POINTS):
        hi = min(lo + _BLOCK_POINTS, total)
        values = np.empty((3, hi - lo))
        row = lo
        while row < hi:
            while row >= end:   # the next report, flattened once, a copy if strided
                r += 1
                report = reports[r]
                bound = report.bound.values.ravel()
                witness = None if report.witness is None else report.witness.values.ravel()
                start, end = end, end + bound.size
            stop = min(hi, end)
            values[0, row - lo:stop - lo] = \
                math.nan if witness is None else witness[row - start:stop - start]
            values[1, row - lo:stop - lo] = bound[row - start:stop - start]
            row = stop
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(values[1], values[0], out=values[2])
        spelled = spell(np.concatenate((values.ravel(), axes)) if lo == 0 else values,
                        json_rule)
        if lo == 0:
            t1, t2 = np.split(spelled[values.size:], [n1])
        at = np.arange(lo, hi) % size
        yield t1[at // n2], t2[at % n2], *spelled[:values.size].reshape(3, -1)


def _rows(template, columns) -> bytes:
    """One block of report rows: per point, template's constant bytes with
    each field index replaced by that column's spelling.  The spellings'
    NUL padding is dropped from the whole block at once."""
    consts, fields = template[::2], template[1::2]
    buf = np.empty((len(columns[0]), sum(map(len, consts)) + WIDTH * len(fields)),
                   dtype=np.uint8)
    at = 0
    for const, field in zip(consts, fields + (None,)):
        buf[:, at:at + len(const)] = np.frombuffer(const, dtype=np.uint8)
        at += len(const)
        if field is not None:
            buf[:, at:at + WIDTH] = columns[field].view(np.uint8).reshape(-1, WIDTH)
            at += WIDTH
    flat = buf.reshape(-1)
    return flat[flat != 0].tobytes()


# The indent of a list item inside a field of a digest in "digests".
_ITEM = "\n        "


def _json_column(values: list) -> list[str] | None:
    """Each value as json.dumps(indent=2) spells it as a field of an item of
    a top-level list, or None unless all are of one type among float, int,
    bool, str and list of str."""
    kinds = set(map(type, values))
    kind = kinds.pop()
    if kinds:
        return None
    if kind is float:
        return [_JSON_SPECIAL.get(text, text) for text in map(float.__repr__, values)]
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is bool:
        return ["true" if value else "false" for value in values]
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is list and all(type(text) is str for value in values for text in value):
        return [f"[{_ITEM}{(',' + _ITEM).join(map(encode_basestring_ascii, value))}\n      ]"
                if value else "[]" for value in values]
    return None


def _digests_text(digests: list) -> str | None:
    """The items of digests as json.dumps(indent=2, sort_keys=True) writes
    those of a top-level list, joined by ",\n": one spelling per value,
    formatted one key at a time, spliced into one template per digest.  None
    for digests that are not all dicts with one set of str keys, or with a
    key whose values _json_column does not spell."""
    if type(digests) is not list or not digests or any(type(d) is not dict for d in digests):
        return None
    keys = digests[0].keys()
    if not keys or any(type(k) is not str for k in keys) \
            or any(d.keys() != keys for d in digests):
        return None
    keys = sorted(keys)
    columns = [_json_column(list(map(itemgetter(key), digests))) for key in keys]
    if None in columns:
        return None
    fields = ",\n".join(f"      {encode_basestring_ascii(key).replace('%', '%%')}: %s"
                        for key in keys)
    return ",\n".join(map(f"    {{\n{fields}\n    }}".__mod__, zip(*columns)))


def _summary_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte, with the
    list payload["digests"] formatted by _digests_text and the rest by
    json.dumps; digests it declines go to json.dumps whole."""
    digests = _digests_text(payload.get("digests"))
    if digests is None:
        return json.dumps(payload, indent=2, sort_keys=True)
    text = json.dumps({**payload, "digests": []}, indent=2, sort_keys=True)
    head, tail = text.split('\n  "digests": []', 1)
    return f'{head}\n  "digests": [\n{digests}\n  ]{tail}'


def _write_csv(fh, reports) -> None:
    fh.write(b"t1,t2,witness,bound,slack\n")
    for columns in _report_blocks(reports):
        fh.write(_rows(_CSV_ROW, columns))


def _write_json(fh, payload: dict, reports) -> None:
    """payload plus the reports' rows as "points", byte for byte as
    json.dumps(indent=2, sort_keys=True) writes them, one block at a time."""
    text = _summary_text({**payload, "points": []})
    head, tail = text.split('\n  "points": []', 1)
    fh.write((head + '\n  "points": [').encode())
    comma = 1   # the first point follows "[" without the separating comma
    for columns in _report_blocks(reports, json_rule=True):
        fh.write(_rows(_JSON_ROW, columns)[comma:])
        comma = 0
    fh.write((("]" if comma else "\n  ]") + tail + "\n").encode())


def _targets(config: str, path: str, suffixes: Sequence[str]) -> list[Path]:
    """path with each of suffixes in place of its own .csv or .json suffix; a
    path without a file name, or a target that resolves to the config file,
    raises ConfigError.  Real paths are compared only for a target that is
    the config's file (a hard link to it is another path), or that does not
    exist but holds a ".." that may drop a missing directory."""
    if os.path.basename(path) in ("", ".", ".."):
        raise ConfigError(f"output.path {path!r} names a directory, not a file")
    stem = Path(path).with_suffix("") if Path(path).suffix in (".csv", ".json") else Path(path)
    targets = [stem.with_suffix(s) for s in suffixes]
    own = os.stat(config)
    for target in targets:
        try:
            found = os.stat(target)
            same = (found.st_dev, found.st_ino) == (own.st_dev, own.st_ino)
        except OSError:
            same = ".." in target.parts
        if same and target.resolve() == Path(config).resolve():
            raise ConfigError(f"output.path would write over the config file {config}")
    return targets


def _write_files(targets: Sequence[Path], writes) -> None:
    """Each write(fh) fills a temporary file next to its target; once all are
    written each replaces its target.  On failure only the temporary files
    are removed, so older reports stay as they were."""
    temps: list[Path] = []
    try:
        for target, write in zip(targets, writes):
            target.parent.mkdir(parents=True, exist_ok=True)
            temps.append(target.with_name(f".{target.name}.{os.getpid()}.tmp"))
            with open(temps[-1], "wb") as fh:
                write(fh)
        for target, temp in zip(targets, temps):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = ScenarioConfig.from_dict(_read_config(args.config))
    spec, csv = scenario.instance, scenario.output_format == "csv"
    targets = _targets(args.config, scenario.output_path,
                       (".csv", ".json") if csv else (".json",))

    started = time.monotonic()
    summary = run_verification(spec)
    elapsed = time.monotonic() - started
    payload = {**summary.to_dict(), "theorem": spec.case.value, "seed": spec.rng_seed,
               "witness_mode": spec.witness_mode.value,
               "exponent_variant": scenario.variant_mode,
               "scale1": spec.scale1.describe(), "scale2": spec.scale2.describe()}
    _write_files(targets, [
        lambda fh: _write_csv(fh, summary.stacks),
        lambda fh: fh.write((_summary_text(payload) + "\n").encode()),
    ] if csv else [lambda fh: _write_json(fh, payload, summary.stacks)])
    log.info("verified %d instances in %.3f s; wrote %s",
             summary.instances_run, elapsed, ", ".join(map(str, targets)))
    if summary.instances_with_violation:
        log.error("bound violated in %d of %d instances (worst relative excess %g)",
                  summary.instances_with_violation, summary.instances_run,
                  summary.worst_relative_violation)
        return 1
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    op, spec, fn, out = read_keys(_read_config(args.config), _CONVERGE, "converge config").values()
    if spec.kind != "dense_mesh":
        raise ConfigError("convergence study needs a dense_mesh scale")
    h0 = spec._num("h")
    spec.build()
    csv_path, = _targets(args.config, out["path"], (".csv",))

    if op == "exp":
        if fn.family != "constant" or fn.value is None:
            raise ConfigError("exp convergence needs a constant coefficient")
        rate = fn.value
    else:
        f, fprime = classical_forms(fn)

    rows: list[tuple[float, float, float | None]] = []
    for level in range(4):
        hk = h0 / 2 ** level
        mesh = replace(spec, h=hk).build()
        if op == "dderiv":
            approx = delta_derivative(GridFn1.from_function(mesh, f)).values
            ref = np.array([fprime(t) for t in mesh.points[:-1]])
        else:
            approx = exp_fn(GridFn1(mesh, np.full(len(mesh), rate)), 0).values
            ref = np.exp(rate * (mesh.points - mesh.points[0]))
        err = float(np.abs(approx - ref).max())
        prev_err = rows[-1][1] if rows else math.nan
        rows.append((hk, err, math.log2(prev_err / err) if err > 0.0 and prev_err > 0.0
                     else None))

    text = "h,max_error,observed_order\n" + "".join(
        f"{fmt_number(hk)},{fmt_number(err)},{'' if order is None else fmt_number(order)}\n"
        for hk, err, order in rows)
    _write_files([csv_path], [lambda fh: fh.write(text.encode())])
    log.info("wrote %s", csv_path)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  The handlers it holds
    look up the module names they call at each call."""
    parser = argparse.ArgumentParser(
        prog="tscale",
        description="Time-scale calculus toolkit: point calculus, "
                    "integral-inequality verification, mesh convergence.")
    sub = parser.add_subparsers(dest="command", required=True)

    calc = sub.add_parser("calc", help="evaluate one operation on a scale")
    calc.add_argument("operation",
                      choices=("sigma", "mu", "dderiv", "dint", "exp", "compare"))
    calc.add_argument("--scale", required=True,
                      help="integer:A..B | h:H,A..B | q:Q,N | explicit:p1,p2,... "
                           "| dense:H,A..B")
    calc.add_argument("--fn", help="const:c | poly:c0,c1,... | exp:A,R | sin:W "
                                   "| table:v1,v2,...")
    calc.add_argument("--f", help="forcing term for compare")
    calc.add_argument("--g", help="coefficient for compare")
    calc.add_argument("--from", dest="lower", type=float,
                      help="lower limit (a point of the scale)")
    calc.add_argument("--to", dest="upper", type=float,
                      help="upper limit (a point of the scale)")
    calc.add_argument("--t0", type=float, default=None,
                      help="anchor point for exp")
    calc.add_argument("--xa", type=float, default=0.0,
                      help="initial value for compare")
    calc.set_defaults(handler=_cmd_calc)

    verify = sub.add_parser("verify", help="run seeded bound checks from a config")
    verify.add_argument("config", help="path to a JSON scenario config")
    verify.set_defaults(handler=_cmd_verify)

    conv = sub.add_parser("converge",
                          help="halve a dense mesh and report error orders")
    conv.add_argument("config", help="path to a JSON study config")
    conv.set_defaults(handler=_cmd_converge)
    return parser


def _check_calc_args(args: argparse.Namespace) -> None:
    op = args.operation
    if op in ("dderiv", "dint", "exp") and not args.fn:
        raise ConfigError(f"calc {op} needs --fn")
    if op == "dint" and (args.lower is None or args.upper is None):
        raise ConfigError("calc dint needs --from and --to")
    if op == "exp" and args.t0 is None:
        raise ConfigError("calc exp needs --t0")
    if op == "compare" and (not args.f or not args.g or args.lower is None):
        raise ConfigError("calc compare needs --f, --g and --from")
    for flag, value in (("--from", args.lower), ("--to", args.upper), ("--t0", args.t0),
                        ("--xa", args.xa)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value}")


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("TSCALE_LOG", "error").strip().lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "calc":
            _check_calc_args(args)
        return args.handler(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
