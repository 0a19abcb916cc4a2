"""Golden digests: every CLI command, run at reduced size with seed 0, must
reproduce the recorded sha256 of each output file byte for byte.

The scenario is the 350 um, gamma = 0.3 1/s point, where every command
succeeds (``differential`` exits 3 at the default scenario). The digests were
recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64 Linux; another LAPACK
build may round differently in the last bit and need a fresh recording.
Each command runs in a fresh process with BLAS/OpenMP pinned to one thread,
as in the benchmark harness: SLSQP's own BLAS calls round differently with
one thread and with two, which moves the loophole search's iterates.
A deliberate change of an output contract refreshes the digests it moves,
and only those.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: one thread per BLAS/OpenMP library, the settings of benchmarks/run.py
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

CONFIG = {
    "scenario": {"separation_d": 350e-6, "dephasing_gamma": 0.3},
    "scan": {"gammas": [0.0, 0.03, 0.3], "points": 121},
    "success": {"lambda_trials": 500},
    "differential": {"lambda_trials": 500},
    "tomo": {"batch_trials": 10},
    "loophole": {"restarts": 2},
}
TRIALS = "50"

GOLDEN = {
    "differential": {
        "differential.csv":
            "05133854cb306c9676f6b941ebb2adf2257528f8eef0452183fab9331d82d4aa",
        "differential_meta.json":
            "8d88ff1d09ba7321dd7f616f234ac4e7dd7240ad98317c0a303ae02f657e58a3",
    },
    "loophole": {
        "loophole.json":
            "591ea48bf742d7a1e3e2c6d05d57e575313ed1de6da2daa6ddeb1c777a3b92c3",
    },
    "pea": {
        "pea.csv":
            "6a2a2ae545126afcd058e5f337057099ea016491d05067d351ac936880f2c6ac",
    },
    "scan-witness": {
        "negativity_gamma0.03.csv":
            "98818ccceb629c1c14da48332add881542dffb2e51f436f4a341a6b7ab824add",
        "negativity_gamma0.3.csv":
            "d031032a8480d07ff0d41042c3bc4d27c3650d8ecca78bddf490bef432b90c65",
        "negativity_gamma0.csv":
            "ee269a89e56508dc376bd56205dbb6c7e8c253f79621944aaf948fb8db00222f",
        "witness_w0_gamma0.03.csv":
            "71fa72eadd98b8e4b36160a1478d7cd40fa2f08a8c8ac60897922b73817d434a",
        "witness_w0_gamma0.3.csv":
            "d54e959067f95c485bf9374a1b5300fc74da58bbe60be8777dfb02b1adac672e",
        "witness_w0_gamma0.csv":
            "2f4c73186000f0bb2d376dc96f0af672f072bd623413da10cba5fe2bcc5c4c59",
        "witness_w1_gamma0.03.csv":
            "c92bb38b463c69c309b37f73c0dd895d6f80f7144decfd748f21295ad025d75d",
        "witness_w1_gamma0.3.csv":
            "176189981dc6e40a5123e31f9ce884b4ecaa6541addc340eea676bd1f2593ac7",
        "witness_w1_gamma0.csv":
            "691a4a77badb5844be22d2b95d709dcde235822f9abe0d2ccdab575edf295e70",
    },
    "success": {
        "success.csv":
            "40664626d38ded9b9598a3efcbb237a679fe046f3bb58f2ca02b236824076343",
    },
    "tomo": {
        "tomo_batch_alt.csv":
            "95bf987af7cdbade3841516fbe585fe42c62f24a24a7522d7405dc0171d353d9",
        "tomo_batch_null.csv":
            "fa97520d79da437566b9efc0e8645018ddfc36e200c6bd176f8eb809bb03c66e",
        "tomo_exceedance.csv":
            "d4895b7d4690b2c38604232981d5f299199f652a836e93b524276366e9598f97",
    },
    "witneg": {
        "witneg.csv":
            "1edd9fc4b0d32d7e9b2d150f20b316caa38c910089065333c64760ad7eb93458",
    },
}


def run_digests(command: str, tmp_path) -> dict:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "spinwitness.cli", command, "--config", str(cfg),
         "--seed", "0", "--trials", TRIALS, "--out", str(out)],
        env={**os.environ, **THREAD_ENV, "PYTHONPATH": path},
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_golden_digests(command, tmp_path):
    assert run_digests(command, tmp_path) == GOLDEN[command]
