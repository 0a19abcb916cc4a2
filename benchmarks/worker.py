"""One repetition of a workload, run by ``run.py`` in a fresh process.

Usage: ``python3 worker.py SPEC.json``. The spec names the CLI argument
lists to run in order, whether to trace, and where to write the result.
Process-wide state such as the lambda-threshold cache starts cold, as it
does for a user who runs the chain.

Nothing outside the standard library is imported before ``setup_s`` is
timed, so that figure is the full cost of importing the package (numpy and
scipy included).
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def environment() -> dict:
    """Library versions and the BLAS numpy was built against."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name}


def reference_s() -> float:
    """Time of fixed numpy kernels that do not touch spinwitness. It measures
    how fast the machine runs at this moment, for the two kinds of work the
    workloads do: many calls on tiny arrays from Python (sampling, SLSQP,
    scans) and batched 4x4 complex products (the tomography MLE). A shared
    machine slows the two kinds by different shares, so both are timed."""
    import numpy as np

    sym = np.arange(16.0).reshape(4, 4)
    sym = sym + sym.T
    probs = np.full(4, 0.25)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
    proj = rng.normal(size=(36, 4, 4)) + 0j

    def calls(n):
        for i in range(n):
            np.random.Generator(np.random.PCG64(i)).multinomial(100, probs)
            np.linalg.eigvalsh(sym)

    def batched(n):
        rho = batch.copy()
        for _ in range(n):
            weights = np.real(np.einsum("pij,bji->bp", proj, rho))
            op = np.einsum("bp,pij->bij", weights, proj)
            rho = op @ rho @ op
            rho /= np.abs(np.einsum("bii->b", rho))[:, None, None]

    calls(50)  # first calls load and initialise code paths
    batched(5)
    t0 = time.perf_counter()
    calls(3000)
    batched(40)
    return time.perf_counter() - t0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())

    t0 = time.perf_counter()
    import spinwitness
    import spinwitness.cli
    setup_s = time.perf_counter() - t0

    ref_s = reference_s()
    result = {"setup_s": setup_s, "ref_s": ref_s,
              "package": spinwitness.__file__, "environment": environment()}
    if spec["commands"]:
        tracer = None
        if spec["trace"]:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        codes, times = [], []
        start, cpu_start = time.perf_counter(), time.process_time()
        for argv in spec["commands"]:
            c0 = time.perf_counter()
            try:
                codes.append(spinwitness.cli.main(argv))
            except Exception:  # an escaped exception fails this command only
                traceback.print_exc()
                codes.append(None)
            times.append(time.perf_counter() - c0)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
        result["ref_s"] = (ref_s + reference_s()) / 2
        result["exit_codes"] = codes
        result["command_s"] = times
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.save(Path(spec["result"]).with_name("spans.npz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
