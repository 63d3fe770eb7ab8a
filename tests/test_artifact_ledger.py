"""Artifact bytes against the committed ledger (see ``artifact_ledger.py``)."""

import json

import pytest

from artifact_ledger import CONFIGS, LEDGER, artifact_hashes, environment

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
