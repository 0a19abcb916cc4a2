"""Benchmark of the spinwitness analysis chain.

Usage, from the repository root:

    python3 benchmarks/run.py --workload hypothesis --seed 0 --seconds 30 --trace 0

Each repetition of a workload is a fresh Python process (``worker.py``) that
imports ``spinwitness`` from ``src/`` and calls ``spinwitness.cli.main`` for
each command of the workload in order. Repetitions run one at a time, with
BLAS/OpenMP pinned to one thread, until ``--seconds`` is used up. Repetition
``k`` runs with CLI seed ``1000 * seed + k``.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json
(medians over untraced repetitions). With ``--trace 1`` it alternates
untraced and traced repetitions on the same seed and reports the per-layer
metrics (medians over traced repetitions) and the tracing overhead.

Every command's outputs are checked (``workloads.py``); a command fails when
it exits non-zero, leaves an output missing or fails its check. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full record (per
repetition times, failures, output sha256 digests, versions, thread
settings) goes to ``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.
``--smoke`` runs the reduced sizes of ``workloads.SMOKE``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: the whole run, set-up included, ends within this many seconds
DEADLINE_S = 170.0

#: ``wall_nominal_s`` and ``setup_s`` are times rescaled to the machine speed
#: at which ``worker.reference_s`` takes this long (about its median on the
#: shared 2-core Xeon machine the bounds were set on, where the speed drifted
#: by up to 50% within minutes)
REF_NOMINAL_S = 0.17

#: one thread per process, so at most one core is busy with the workload
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _digests(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def run_rep(rep_dir: Path, seed: int, cmds, trace: bool, timeout: float) -> dict:
    """Run one repetition in a fresh worker process and check its outputs."""
    rep_dir.mkdir(parents=True)
    argvs = []
    for j, (cmd, opts) in enumerate(cmds):
        cfg = rep_dir / f"{j}-{cmd}.json"
        cfg.write_text(json.dumps(workloads.config(cmd, opts)))
        argvs.append([cmd, "--config", str(cfg), "--seed", str(seed),
                      "--out", str(rep_dir / f"{j}-{cmd}")])
    result_path = rep_dir / "result.json"
    spec = rep_dir / "spec.json"
    spec.write_text(json.dumps({"commands": argvs, "trace": trace,
                                "result": str(result_path)}))
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    t0 = time.monotonic()
    with open(rep_dir / "worker.log", "w") as log:
        try:
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)],
                           cwd=ROOT, env=env, stdout=log,
                           stderr=subprocess.STDOUT, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            log.write(f"\nworker killed after {timeout:.0f} s\n")
    elapsed = time.monotonic() - t0
    result = json.loads(result_path.read_text()) if result_path.exists() else {}

    codes = result.get("exit_codes") or [None] * len(cmds)
    ops = []
    for j, (cmd, opts) in enumerate(cmds):
        out = rep_dir / f"{j}-{cmd}"
        problems = (workloads.check(cmd, out, opts) if codes[j] == 0
                    else [f"exit code {codes[j]}"])
        ops.append({"command": cmd, "exit_code": codes[j],
                    "problems": problems, "sha256": _digests(out)})
    return {"seed": seed, "trace": trace, "process_s": elapsed,
            "result": result, "ops": ops}


def environment(first: dict) -> dict:
    """Versions, hardware and commit, for re-checking a claim later."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(),
            **first.get("environment", {}),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "git_commit": commit, "threads": THREAD_ENV}


UNITS = {"setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "wall_nominal_s": "s",
         "peak_rss_mb": "MB"}


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(workload: str, seed: int, seconds: int, trace: bool,
            smoke: bool) -> dict:
    begin = time.monotonic()
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmds = workloads.commands(workload, smoke)

    # warm-up: an import-only process fills the file cache and byte-code
    warm = run_rep(run_dir / "warmup", seed, [], False, DEADLINE_S)
    if "setup_s" not in warm["result"]:
        log = (run_dir / "warmup" / "worker.log").read_text()
        raise RuntimeError(f"cannot import spinwitness from {SRC}:\n{log}")

    reps = []
    start = time.monotonic()
    for k in itertools.count():
        group_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            name = f"rep{k:03d}" + ("-traced" if traced else "")
            reps.append(run_rep(run_dir / name, 1000 * seed + k, cmds, traced,
                                max(DEADLINE_S - (time.monotonic() - begin), 1.0)))
        now = time.monotonic()
        estimate = now - group_start
        if now + estimate > start + seconds or \
                now + estimate > begin + DEADLINE_S - 10:
            break
    return {"cmds": cmds, "reps": reps, "warmup": warm}


def _nominal(result: dict, key: str) -> float:
    """``result[key]`` at the machine speed of :data:`REF_NOMINAL_S`."""
    return result[key] * REF_NOMINAL_S / result["ref_s"]


def layer_metric(name: str, traced: list, untraced: list) -> float:
    """Median over traced repetitions of one per-layer metric."""
    if name == "trace.overhead_frac":
        # pairs on one seed, each wall time rescaled by its own reference run
        plain = {r["seed"]: _nominal(r["result"], "wall_s") for r in untraced
                 if "wall_s" in r["result"]}
        return _median([_nominal(r["result"], "wall_s") / plain[r["seed"]] - 1.0
                        for r in traced
                        if "wall_s" in r["result"] and r["seed"] in plain])
    return _median([r["result"]["trace"][name] for r in traced
                    if "trace" in r["result"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, to test the harness itself")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "spinwitness" / "__init__.py").is_file():
        print(f"no spinwitness package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)

    try:
        run = measure(args.workload, args.seed, args.seconds, trace, args.smoke)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    reps = run["reps"]
    untraced = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    ops = [op for r in reps for op in r["ops"]]
    failed = sum(1 for op in ops if op["problems"])

    problems = [f"{r['seed']} {op['command']}: {p}"
                for r in reps for op in r["ops"] for p in op["problems"]]
    for r in reps:
        package = r["result"].get("package", "")
        if package and not Path(package).resolve().is_relative_to(SRC):
            problems.append(f"spinwitness imported from {package}, not {SRC}")
    expected = workloads.expected_counts(run["cmds"])
    for r in traced:
        counts = r["result"].get("trace", {})
        for key, value in expected.items():
            if counts.get(key) != value:
                problems.append(f"seed {r['seed']}: traced {key} = "
                                f"{counts.get(key)}, expected {value}")

    started = [r["result"] for r in reps if "setup_s" in r["result"]]
    finished = [r["result"] for r in untraced if "wall_s" in r["result"]]
    samples = {
        "setup_s": [_nominal(r, "setup_s") for r in started],
        "setup_raw_s": [r["setup_s"] for r in started],
        "wall_s": [r["wall_s"] for r in finished],
        "wall_nominal_s": [_nominal(r, "wall_s") for r in finished],
        "peak_rss_mb": [r["peak_rss_mb"] for r in finished],
    }
    metrics, lines = {}, []
    if trace:
        for m in bench["per_layer"]:
            value = layer_metric(m["name"], traced, untraced)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            lines.append(f"{m['name']:<42} {value:>14.6g} {m['unit']}")
        lines.append(f"{'traced repetitions':<42} {len(traced):>14d}")
    else:
        # the raw times are printed and recorded; the rescaled ones are bounded
        for name, values in samples.items():
            lines.append(f"{name:<16} {_median(values):>10.4f} {UNITS[name]:<3}"
                         f" median of {len(values)}"
                         + (f" (min {min(values):.4f}, max {max(values):.4f})"
                            if values else ""))
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": _median(samples[m["name"]]),
                                  "unit": m["unit"]}
    lines.append(f"{'ops_failed_frac':<16} {failed / max(len(ops), 1):>10.4f} "
                 f"frac {failed} failed of {len(ops)} commands")

    first = reps[0]["result"] if reps and reps[0]["result"] else run["warmup"]["result"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(first),
        "commands": run["cmds"], "expected_trace_counts": expected,
        "metrics": metrics, "samples": samples,
        "attempted": len(ops), "failed": failed, "problems": problems,
        "repetitions": reps,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced / {len(traced)} traced repetitions")
    for line in lines:
        print(line)
    for p in problems[:20]:
        print(f"problem: {p}")
    if any(math.isnan(m["value"]) for m in metrics.values()):
        print("no repetition completed, so some metrics have no sample",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
