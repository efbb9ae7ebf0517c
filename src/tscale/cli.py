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
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import BoundCase, ExponentVariant
from .config import classical_forms, parse_fn, parse_scale, realize_1d
from .core import GridFn1, cauchy_integral, delta_derivative
from .errors import ConfigError, DomainError
from .exponential import comparison_bound, exp_fn
from .spelling import WIDTH, spell
from .verify import InstanceSpec, WitnessMode, run_verification

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


# Points per block of a verify report, taken in order across all reports of
# a call.  Each block is one spelling kernel call, whose fixed cost is about
# that of spelling 900 values: enough points to spread that cost, few enough
# that a large lattice's text and the kernel's temporaries never pile up in
# memory.
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
    elif op == "exp":
        f = _fixed_fn(args.fn, scale)
        out = exp_fn(f, scale.locate(args.t0))
    else:
        raise ConfigError(f"unknown calc operation '{op}'")
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


def _section(obj: dict, key: str) -> dict:
    """obj[key] as a JSON object; absent, null or empty reads as {}."""
    value = obj.get(key) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be a JSON object")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed verify config: the instance batch plus output disposition."""

    instance: InstanceSpec
    output_path: str
    output_format: str
    variant_mode: str

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError("verify config must be a JSON object")
        case_name = obj.get("theorem")
        try:
            case = BoundCase(case_name)
        except ValueError:
            raise ConfigError(
                f"'theorem' must be one of "
                f"{', '.join(c.value for c in BoundCase)}; got {case_name!r}") from None
        for key in ("scale1", "scale2"):
            if key not in obj:
                raise ConfigError(f"verify config needs '{key}'")
        functions = {name: parse_fn(fn)
                     for name, fn in _section(obj, "functions").items()}
        mode_name = obj.get("witness_mode", "equality")
        try:
            mode = WitnessMode(mode_name)
        except ValueError:
            raise ConfigError(
                f"'witness_mode' must be equality or strict_slack; "
                f"got {mode_name!r}") from None
        variant_mode = obj.get("exponent_variant", "first")
        if variant_mode not in ("first", "second", "both"):
            raise ConfigError("'exponent_variant' must be first, second, or both")
        primary = ExponentVariant.SECOND_VARIABLE if variant_mode == "second" \
            else ExponentVariant.FIRST_VARIABLE
        count = obj.get("count", 1)
        if not isinstance(count, int) or isinstance(count, bool):
            raise ConfigError("'count' must be an integer")
        seed = obj.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("'seed' must be a nonnegative integer")
        out = _section(obj, "output")
        path = out.get("path")
        if not path:
            raise ConfigError("verify config needs output.path")
        if not isinstance(path, str) or "\0" in path:
            raise ConfigError("output.path must be text naming a file, without NUL characters")
        fmt = out.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError("output.format must be csv or json")
        instance = InstanceSpec(
            case=case,
            scale1=parse_scale(obj["scale1"]),
            scale2=parse_scale(obj["scale2"]),
            functions=functions,
            rng_seed=seed,
            count=count,
            witness_mode=mode,
            exponent_variant=primary,
        )
        return cls(instance=instance, output_path=str(path),
                   output_format=fmt, variant_mode=variant_mode)


def _report_blocks(reports, json_rule: bool = False):
    """Yield the reports' rows (t1, t2, witness, bound, slack) as spelled
    columns, one block of at most _BLOCK_POINTS consecutive points at a time,
    taken in order across all reports, which share one domain.  Each block's
    witness, bound and slack are spelled by one kernel call, which the first
    block shares with the domain's two axes.  Without a witness, witness and
    slack are NaN; a slack past the float range is inf or NaN, as float
    subtraction gives it."""
    if not reports:
        return
    dom = reports[0].bound.domain
    axes = np.concatenate([dom.scale1.points, dom.scale2.points])
    n1, n2 = dom.shape
    size = n1 * n2
    total = size * len(reports)
    current = -1
    for lo in range(0, total, _BLOCK_POINTS):
        hi = min(lo + _BLOCK_POINTS, total)
        values = np.empty((3, hi - lo))
        for r in range(lo // size, (hi - 1) // size + 1):
            if r != current:    # flattened once per report, a copy if strided
                current, report = r, reports[r]
                witness = np.full(size, math.nan) if report.witness is None \
                    else report.witness.values.ravel()
                bound = report.bound.values.ravel()
            a, b = max(lo - r * size, 0), min(hi - r * size, size)
            values[:2, r * size + a - lo:r * size + b - lo] = witness[a:b], bound[a:b]
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


def _write_csv(fh, reports) -> None:
    fh.write(b"t1,t2,witness,bound,slack\n")
    for columns in _report_blocks(reports):
        fh.write(_rows(_CSV_ROW, columns))


def _write_json(fh, payload: dict, reports) -> None:
    """payload plus the reports' rows as "points", byte for byte as
    json.dumps(indent=2, sort_keys=True) writes them, one block at a time."""
    text = json.dumps({**payload, "points": []}, indent=2, sort_keys=True)
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
        lambda fh: _write_csv(fh, summary.reports),
        lambda fh: fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()),
    ] if csv else [lambda fh: _write_json(fh, payload, summary.reports)])
    log.info("verified %d instances in %.3f s; wrote %s",
             summary.instances_run, elapsed, ", ".join(map(str, targets)))
    if summary.instances_with_violation:
        log.error("bound violated in %d of %d instances (worst relative excess %g)",
                  summary.instances_with_violation, summary.instances_run,
                  summary.worst_relative_violation)
        return 1
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    raw = _read_config(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("converge config must be a JSON object")
    op = raw.get("operation")
    if op not in ("dderiv", "exp"):
        raise ConfigError("operation must be dderiv or exp")
    spec = parse_scale(raw.get("scale") or {})
    if spec.kind != "dense_mesh":
        raise ConfigError("convergence study needs a dense_mesh scale")
    h0 = spec._num("h")
    spec.build()
    fn = parse_fn(raw.get("function") or {})
    path = _section(raw, "output").get("path")
    if not path:
        raise ConfigError("converge config needs output.path")
    csv_path, = _targets(args.config, str(path), (".csv",))

    if op == "exp":
        if fn.family != "constant" or fn.value is None:
            raise ConfigError("exp convergence needs a constant coefficient")
        rate = fn.value
    else:
        f, fprime = classical_forms(fn)

    rows: list[tuple[float, float, float | None]] = []
    prev_err: float | None = None
    for level in range(4):
        hk = h0 / 2 ** level
        mesh = replace(spec, h=hk).build()
        if op == "dderiv":
            g = GridFn1.from_function(mesh, f)
            approx = delta_derivative(g).values
            ref = np.array([fprime(t) for t in mesh.points[:-1]])
        else:
            coeff = GridFn1(mesh, np.full(len(mesh), rate))
            approx = exp_fn(coeff, 0).values
            ref = np.exp(rate * (mesh.points - mesh.points[0]))
        err = float(np.abs(approx - ref).max())
        order: float | None = None
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = math.log2(prev_err / err)
        rows.append((hk, err, order))
        prev_err = err

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
