"""Whole verify configs, mutated, through `tscale verify`.

Hypothesis starts from a valid config of each of the four cases, kernel
batches of several instances among them, and mutates it: a key deleted, a
value replaced by one of the wrong type, a NaN, an infinity or a number at
the edge of the float range, or the output path pointed somewhere it cannot
be written.  Whatever the config, the run must end without a traceback, with
an exit code the README defines (0 success, 1 violations, 2 configuration,
3 domain), and with exit 1 exactly when the summary counts a violation.
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
        action = draw(st.sampled_from(["delete", "replace", "path"]))
        if action == "path" and isinstance(config.get("output"), dict):
            config["output"]["path"] = draw(output_paths(tmp_path))
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
