"""The per-layer metrics of BENCHMARK.json name functions of the package.

The benchmark's tracer wraps only plain functions (``inspect.isfunction``)
defined in the module it traces. A metric whose function is missing, renamed
or hidden behind a wrapper object such as ``functools.lru_cache`` makes the
traced run fail; this test fails first.
"""
import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: metrics that count something other than calls of a package function:
#: SciPy's minimize inside the loophole search, tracer-side counters and ratios
NOT_A_FUNCTION = {"loophole.slsqp", "loophole.states_per_slsqp_iter",
                  "stats.lambda_min.repeat_calls", "trace.overhead_frac"}


def traced_functions():
    names = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        function = name.rsplit(".", 1)[0]
        if name not in NOT_A_FUNCTION and function not in NOT_A_FUNCTION:
            names.add(function)
    return sorted(names)


@pytest.mark.parametrize("qualname", traced_functions())
def test_metric_names_a_plain_package_function(qualname):
    module_name, attr = qualname.split(".")
    module = importlib.import_module(f"spinwitness.{module_name}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn), f"{qualname} is {fn!r}, not a plain function"
    assert fn.__module__ == module.__name__
    assert attr in getattr(module, "__all__", [attr])
