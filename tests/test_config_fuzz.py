"""Bounded config fuzzer: a mutated field of a shipped config must end in
exit code 0, 2 or 3, never in a traceback.

Each example takes one of `configs/*.json`, shrinks it to N <= 8 and
T = 0.05 so that every run is quick, and mutates one field (a nested key
or a list entry): it deletes the field, or replaces it with a wrong type,
NaN, an infinity, a negative, zero, huge or subnormal number.  Runs go
through `cli.run` in one process, one at a time.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from phflow import cli

CONFIGS = {p.name: json.loads(p.read_text())
           for p in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))}

# (name, value); the value None under "delete" removes the field
MUTATIONS = (
    ("delete", None), ("string", "x"), ("list", []), ("object", {}),
    ("null", None), ("bool", True), ("nan", math.nan), ("inf", math.inf),
    ("-inf", -math.inf), ("negative", -1.5), ("zero", 0), ("huge", 1e300),
    ("huge_int", 10**400), ("subnormal", 5e-324),
)


def _bounded(cfg: dict) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["ocp"]["N"] = min(cfg["ocp"]["N"], 8)
    cfg.setdefault("integrator", {})["T"] = 0.05
    return cfg


def _paths(node, prefix=()):
    """Every key path into the nested dicts and lists of a config."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(cfg: dict, path: tuple, mutation: str, value) -> dict:
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(sorted(CONFIGS)), st.data(), st.sampled_from(MUTATIONS))
def test_mutated_config_exits_cleanly(name, data, mutation):
    cfg = _bounded(CONFIGS[name])
    path = data.draw(st.sampled_from(list(_paths(cfg))), label="field")
    cfg = _mutated(cfg, path, *mutation)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow and model-mismatch warnings
            code = cli.run(config, Path(tmp) / "out")
    assert code in (0, 2, 3), (path, mutation, err.getvalue())
    assert "Traceback" not in err.getvalue()
