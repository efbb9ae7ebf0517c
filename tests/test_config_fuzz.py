"""Whole verify configs, mutated, through `tscale verify`.

Hypothesis starts from a valid config of each of the four cases, kernel
batches of several instances among them, and mutates it: a key deleted, a
value replaced by one of the wrong type, a NaN, an infinity or a number at
the edge of the float range, the output path pointed somewhere it cannot
be written, or a key its object does not read.  Whatever the config, the run
must end without a traceback, with an exit code the README defines (0
success, 1 violations, 2 configuration, 3 domain), and with exit 1 exactly
when the summary counts a violation.  A valid config given one key that its
object does not read exits 2 naming the key, and writes nothing.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tscale.cli import main

# Valid configs on small lattices; every function is spelled out, so that
# mutations reach its fields.
BASES = [
    {"theorem": "pointwise", "scale1": "integer:0..4", "scale2": "q:2,3", "count": 3,
     "seed": 4, "witness_mode": "strict_slack",
     "functions": {"p": {"family": "polynomial", "coeffs": [[0.5, 1.0], [0.2, 0.0]]},
                   "q": "const:0.3", "k": {"family": "exponential"}},
     "output": {"format": "csv"}},
    {"theorem": "kernel", "scale1": "integer:-2..3", "scale2": "integer:0..3", "count": 4,
     "seed": 7, "exponent_variant": "both",
     "functions": {"p": {"family": "tabulated"}, "q": {"family": "constant", "value": 0.2},
                   "k": {"family": "affine_product"}},
     "output": {"format": "json"}},
    {"theorem": "kernel", "scale1": {"kind": "explicit", "points": [-1.5, 0, 0.5, 2]},
     "scale2": {"kind": "q_grid", "q": 1.5, "N": 3}, "count": 5, "seed": 2,
     "witness_mode": "strict_slack",
     "functions": {"k": {"family": "affine_product", "params": [0, 1, 1, 0, 1, 0, 0]}},
     "output": {"format": "csv"}},
    # k = t1 is negative on these points, and the bound fails: exit 1
    {"theorem": "kernel", "scale1": "integer:-4..-1", "scale2": "integer:0..3", "count": 3,
     "seed": 1, "functions": {"q": "const:2",
                              "k": {"family": "affine_product", "params": [0, 1, 1, 0, 1, 0, 0]}},
     "output": {"format": "json"}},
    {"theorem": "system", "scale1": {"kind": "h_grid", "start": 0, "end": 1, "h": 0.25},
     "scale2": "integer:0..3", "count": 2, "seed": 11,
     "functions": {"c1": "const:1", "h1": {"family": "exponential", "amplitude": 0.5,
                                            "rate1": 0.1, "rate2": 0.2}},
     "output": {"format": "json"}},
    {"theorem": "integrodynamic",
     "scale1": {"kind": "union", "of": ["integer:0..2", {"kind": "q_grid", "q": 2, "N": 2}]},
     "scale2": "integer:0..3", "count": 3, "seed": 3,
     "functions": {"a": {"family": "polynomial"}, "b": {"family": "exponential"},
                   "c": {"family": "constant", "value": 0.5}},
     "output": {"format": "csv"}},
    # a's drawn exponential takes the log-space cap
    {"theorem": "integrodynamic", "scale1": "explicit:0,1,3000", "scale2": "integer:0..2",
     "seed": 1, "functions": {"a": {"family": "exponential"}}, "output": {"format": "json"}},
]

# Numbers no field accepts as they are, or only at the edge of what it takes;
# whole numbers stay small, so a count or a scale end stays cheap to run.
NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e300, 5e-324,
                           -1.0, 0.0, 2.5, -1, 0, 3])
WRONG_TYPES = st.sampled_from([None, True, "x", "", [], {}, [1, 2], {"kind": "x"},
                               "integer:0..1e400", "const:nan", "poly:"])
VALUES = NUMBERS | WRONG_TYPES


def leaves(obj, path=()):
    """Every path into obj, a JSON value: each key of a dict and index of a list."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from leaves(value, (*path, key))


def output_paths(tmp_path):
    """Output paths that cannot be written or would clobber something."""
    return st.sampled_from([
        "", str(tmp_path), str(tmp_path / "v.json"), str(tmp_path / "v.json" / "report"),
        str(tmp_path / "missing" / "deeper" / "report.csv"), str(tmp_path / "report.txt"),
        "bad\x00path", 7, ["report"]])


def objects(obj):
    """Every JSON object in obj, a JSON value, obj itself first if it is one."""
    if isinstance(obj, dict):
        yield obj
    for value in obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ():
        yield from objects(value)


def misplace(draw, config) -> str:
    """Move a key into an object that does not read it, and return the key."""
    key = draw(st.sampled_from(["format", "seed", "h", "rate"]))
    if key == "format":     # out of output, to the top level
        config["format"] = config["output"].pop("format", "csv")
    elif key == "seed":     # into output
        config["output"]["seed"] = config.pop("seed", 0)
    elif key == "h":        # into an integer_segment
        config["scale2"] = {"kind": "integer_segment", "start": 0, "end": 3, "h": 0.5}
    else:                   # into a constant
        config.setdefault("functions", {})["p"] = {"family": "constant", "value": 0.5,
                                                   "rate": 0.1}
    return key


def refuse(draw, config) -> str:
    """Give config a key that its object does not read, and return it: a key
    renamed by one letter, or one moved into a sibling object.  'kind' and
    'family' stay, as they name the table that the object's keys are read by."""
    if draw(st.booleans()):
        return misplace(draw, config)
    owner = draw(st.sampled_from([o for o in objects(config) if o.keys() - {"kind", "family"}]))
    key = draw(st.sampled_from(sorted(owner.keys() - {"kind", "family"})))
    at = draw(st.integers(0, len(key) - 1))
    renamed = key[:at] + "Z" + key[at + 1:]     # no key holds a Z
    owner[renamed] = owner.pop(key)
    return renamed


@st.composite
def refused_configs(draw, tmp_path):
    """A valid config with one key that its object does not read, and that key."""
    config = copy.deepcopy(draw(st.sampled_from(BASES)))
    config["output"]["path"] = str(tmp_path / "report")
    return config, refuse(draw, config)


@st.composite
def mutated_configs(draw, tmp_path):
    config = copy.deepcopy(draw(st.sampled_from(BASES)))
    config["output"]["path"] = str(tmp_path / "report")
    for _ in range(draw(st.integers(1, 3))):
        paths = list(leaves(config))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        owner = config
        for step in parent:
            owner = owner[step]
        action = draw(st.sampled_from(["delete", "replace", "path", "refuse"]))
        if action == "path" and isinstance(config.get("output"), dict):
            config["output"]["path"] = draw(output_paths(tmp_path))
        elif action == "refuse" and isinstance(config.get("output"), dict):
            refuse(draw, config)
        elif action == "delete" and isinstance(owner, dict):
            del owner[key]
        else:
            owner[key] = copy.deepcopy(draw(VALUES))
    return config


def summary_file(config) -> Path:
    """Where the run wrote its summary, the JSON report: the output path with
    its suffix, if any, replaced by .json."""
    return Path(config["output"]["path"]).with_suffix(".json")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_verify_configs_exit_as_documented(tmp_path, capsys, monkeypatch, data):
    # a mutated output path may be relative: it lands in tmp_path
    monkeypatch.chdir(tmp_path)
    config = data.draw(mutated_configs(tmp_path))
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps(config))
    code = main(["verify", str(cfg)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err and "internal error" not in err, err
    if code in (0, 1):
        with open(summary_file(config), encoding="utf-8") as fh:
            summary = json.load(fh)
        assert (code == 1) == (summary["instances_with_violation"] > 0)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_key_nothing_reads_exits_2_naming_it(tmp_path, capsys, data):
    config, key = data.draw(refused_configs(tmp_path))
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps(config))
    code = main(["verify", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2, (code, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]
