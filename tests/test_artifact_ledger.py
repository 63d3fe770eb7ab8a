"""Artifact bytes against the committed ledger (see ``artifact_ledger.py``),
and across BLAS thread counts."""

import json
import os
import subprocess
import sys

import pytest

import fracnls
from artifact_ledger import CONFIGS, LEDGER, artifact_hashes, environment
from test_cli import KIND_CONFIGS

with open(LEDGER) as fh:
    ledger = json.load(fh)


def test_ledger_covers_the_configs():
    assert ledger["configs"] == json.loads(json.dumps(CONFIGS))


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_the_ledger(tmp_path, name):
    env = environment()
    if env != ledger["environment"]:
        differ = {k: (ledger["environment"].get(k), v) for k, v in env.items() if ledger["environment"].get(k) != v}
        pytest.skip(f"ledger written in another environment (ledger, here): {differ}")
    got, want = artifact_hashes(CONFIGS[name], str(tmp_path)), ledger["artifacts"][name]
    moved = [f"seed {seed}: {file}" for seed in sorted(want.keys() | got.keys())
             for file in sorted(want.get(seed, {}).keys() | got.get(seed, {}).keys())
             if want.get(seed, {}).get(file) != got.get(seed, {}).get(file)]
    assert not moved


# Runs the config of argv[1] into argv[2] and prints the sha256 of the fBm
# increment factor at H 0.7, n 1024 and of the run's holder report.
THREAD_PROBE = """
import contextlib, hashlib, io, sys
from fracnls import fbm
from fracnls.cli import parse_config, run
with contextlib.redirect_stdout(io.StringIO()):
    run(parse_config(sys.argv[1]), sys.argv[2])
with open(sys.argv[2] + "/holder_report.json", "rb") as fh:
    report = fh.read()
print(hashlib.sha256(fbm._increment_factor(0.7, 1024).tobytes()).hexdigest(), hashlib.sha256(report).hexdigest())
"""


def test_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the convolution holder run (n 1024) reads the increment factor through
    # the response map; LAPACK's Cholesky factor, which it read before, moved
    # in its last bits between one OpenBLAS thread and two.  Two children, one
    # per count: OpenBLAS reads the count once, when it loads
    src = os.path.dirname(os.path.dirname(fracnls.__file__))
    config = json.dumps({**KIND_CONFIGS["holder"], "seed": 0})
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE, config, str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, check=True)
        hashes.append(out.stdout.split())
    assert hashes[0] == hashes[1]
