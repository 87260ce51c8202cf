"""The benchmark's modules import against this checkout's package.

`perfbench/traced.py` imports by name the functions of every layer that
it traces, and `perfbench/scenarios.py` builds the benchmark's configs.
A change that deletes or renames a name they use fails here, among the
tests, and not first when the benchmark runs.  Both files are loaded by
path and are never edited by the tests."""

import importlib.util
import warnings
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# each module with the names that perfbench/run.py takes from it
@pytest.mark.parametrize("name, used", [
    ("traced", ("Tracer", "run_traced")),
    ("scenarios", ("WORKLOADS", "make_config", "write_config", "check_outputs")),
])
def test_benchmark_module_imports(name, used):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec.loader.exec_module(module)
    for attr in used:
        assert hasattr(module, attr), f"perfbench/{name}.py has no {attr}"
