"""The artifact ledger: the sha256 of every artifact of the ledger configs.

Each config of ``CONFIGS`` runs in process at seeds 0-3, and every file it
writes is hashed, a manifest without its ``version`` line, so a version bump
alone moves nothing.  ``tests/artifact_ledger.json`` holds the hashes with the
environment they were computed in; ``tests/test_artifact_ledger.py`` recomputes
them and compares where the environment matches.  A change that moves artifact
bytes rewrites the ledger, and the diff of the ledger is the list of what
moved.  Rewrite it from the repository root:

    PYTHONPATH=src python tests/artifact_ledger.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile

import numpy as np

from fracnls.cli import parse_config, run
from test_cli import KIND_CONFIGS, README_LDP

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifact_ledger.json")
SEEDS = (0, 1, 2, 3)

_KERR = {"kind": "kerr", "lam": -1, "sigma": 1}

# every kind, plus the dense-lab configs that the kinds' entries leave out:
# nonlinear skeletons and optimizer runs, and a d = 2 grid
CONFIGS = {
    **KIND_CONFIGS,
    "skeleton-kerr-snapshots": {**KIND_CONFIGS["skeleton"], "nl": _KERR, "snapshot_every": 4},
    "ldp-optimizer": {**README_LDP, "replicates": 2000, "optimizer": {"enabled": True}},
    "ldp-kerr-sup-norm-optimizer": {
        **README_LDP, "nl": _KERR, "u0": {"type": "gaussian", "amplitude": 0.5},
        "event": {"kind": "sup-norm-exceed", "threshold": 2}, "eps_ladder": [0.25, 0.16],
        "replicates": 200, "optimizer": {"enabled": True, "budget": 600},
    },
    "support-d2": {**KIND_CONFIGS["support"], "grid": {"d": 2, "N": 8}},
}

_VERSION_LINE = re.compile(rb'\n  "version": "[^"]*",?')


def environment() -> dict:
    """What artifact bits may depend on besides the code.  scipy is not part
    of it, since no run loads it, and neither is the BLAS thread count: every
    ledger config gives the same bits at one OpenBLAS thread and at two."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "machine": f"{platform.machine()} {cpu}".strip(),
    }


def file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.json":
        data = _VERSION_LINE.sub(b"", data, count=1)
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(raw: dict, workdir: str) -> dict:
    """{seed: {file name: sha256}} of the runs of ``raw`` at each seed of SEEDS."""
    hashes = {}
    for seed in SEEDS:
        out = os.path.join(workdir, str(seed))
        with contextlib.redirect_stdout(io.StringIO()):  # the oracle suite's table
            run(parse_config(json.dumps({**raw, "seed": seed})), out)
        hashes[str(seed)] = {name: file_hash(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    return hashes


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = {name: artifact_hashes(raw, os.path.join(tmp, name)) for name, raw in CONFIGS.items()}
    ledger = {"environment": environment(), "configs": CONFIGS, "artifacts": artifacts}
    with open(LEDGER, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    count = sum(len(files) for seeds in artifacts.values() for files in seeds.values())
    print(f"{LEDGER}: {count} files of {len(CONFIGS)} configs at seeds {list(SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
