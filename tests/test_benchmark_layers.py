"""The per-layer metrics of BENCHMARK.json name functions of the package,
and a traced benchmark run reproduces the harness's exact call counts.

The benchmark's tracer wraps only plain functions (``inspect.isfunction``)
defined in the module it traces. A metric whose function is missing, renamed
or hidden behind a wrapper object such as ``functools.lru_cache`` makes the
traced run fail; this test fails first. A change that moves a pinned count
(``benchmarks/workloads.py`` ``expected_counts``) makes every traced run
report ``correct: false``; the smoke-size traced repetitions below fail first.
"""
import importlib
import inspect
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT / "benchmarks"))
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spinwitness import stats  # noqa: E402

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


@pytest.fixture(scope="module")
def traced_smoke_reps(tmp_path_factory):
    """One traced smoke-size repetition per workload, two worker processes
    at a time."""
    tmp = tmp_path_factory.mktemp("bench")

    def rep(name):
        cmds = workloads.commands(name, smoke=True)
        return cmds, bench_run.run_rep(tmp / name, 0, cmds, True, 170)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(workloads.WORKLOADS, pool.map(rep, workloads.WORKLOADS)))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_matches_pinned_counts(traced_smoke_reps, workload):
    cmds, rep = traced_smoke_reps[workload]
    assert [op["problems"] for op in rep["ops"]] == [[]] * len(cmds)
    counts = rep["result"]["trace"]
    expected = workloads.expected_counts(cmds)
    assert {key: counts.get(key) for key in expected} == expected


def test_tracer_keys_equal_probability_vectors_as_one(monkeypatch):
    # the traced lambda_min keys each probability vector by its row bytes and
    # pins repeat_calls; the cache must agree, or the control run draws again
    stats._lambda_threshold.cache_clear()
    draws = []
    trial_rng = stats.trial_rng
    monkeypatch.setattr(stats, "trial_rng", lambda *args: draws.append(args) or trial_rng(*args))
    traced = tracer.Tracer()
    lambda_min = traced.wrap_lambda_min(stats.lambda_min)
    p_0, p_a = ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4])
    for _ in range(2):  # equal contents, built separately
        lambda_min(stats.ProbabilityVector(list(p_0)), stats.ProbabilityVector(list(p_a)),
                   N=3, alpha=0.05, trials=100, seed=6)
    assert traced.counters == {"stats.lambda_min.repeat_calls": 1}
    assert len(draws) == 100
