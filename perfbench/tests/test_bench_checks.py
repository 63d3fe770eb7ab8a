"""Each output check accepts real artifacts and rejects tampered ones."""

import json
import shutil

import pytest

import workloads


def _rate_report(out, slope, pinv=0.2215, bound=0.2215):
    out.mkdir(parents=True, exist_ok=True)
    (out / "rate_report.json").write_text(json.dumps(
        {"slope_value": slope, "pinv_rate": pinv, "variational_bound": bound}
    ))
    (out / "ladder.csv").write_text("eps,p_hat,ci_lo,ci_hi,minus_eps_log_p\n")
    return out


def test_ldp_accepts_agreeing_rates(tmp_path):
    assert workloads.check_ldp(_rate_report(tmp_path, slope=0.2148)) == []


@pytest.mark.parametrize("slope", [0.2215 * 1.26, 0.2215 / 1.26])
def test_ldp_rejects_slope_outside_25_percent(tmp_path, slope):
    problems = workloads.check_ldp(_rate_report(tmp_path, slope=slope))
    assert any("slope_value" in p for p in problems)


def test_ldp_rejects_missing_slope(tmp_path):
    assert workloads.check_ldp(_rate_report(tmp_path, slope=None))


def _oracle_report(out, failed):
    out.mkdir(parents=True, exist_ok=True)
    records = [
        {"oracle": "a", "measured": 0.0, "tolerance": 1.0, "passed": True},
        {"oracle": "b", "measured": 2.0, "tolerance": 1.0, "passed": not failed},
    ]
    (out / "oracle_report.json").write_text(json.dumps(
        {"oracles": records, "failed": failed, "total": len(records)}
    ))
    return out


def test_oracle_accepts_clean_report(tmp_path):
    assert workloads.check_oracle(_oracle_report(tmp_path, failed=0)) == []


def test_oracle_rejects_failed_report(tmp_path):
    assert workloads.check_oracle(_oracle_report(tmp_path, failed=1))


def test_oracle_rejects_failed_count_that_hides_a_failure(tmp_path):
    out = _oracle_report(tmp_path, failed=1)
    report = json.loads((out / "oracle_report.json").read_text())
    report["failed"] = 0
    (out / "oracle_report.json").write_text(json.dumps(report))
    assert workloads.check_oracle(out)


N_SHORT = 16  # the focusing run is absorbed at index 10 on the criterion grid


@pytest.fixture(scope="module")
def cemetery_run(tmp_path_factory):
    """Real artifacts of the cemetery workload, shortened to 16 steps."""
    from fracnls.cli import parse_config, run

    root = tmp_path_factory.mktemp("cemetery")
    pairs = workloads.configs("cemetery-snapshots", seed=0)
    for label, cfg in pairs:
        cfg["n"], cfg["T"] = N_SHORT, N_SHORT * 1.25e-4
        run(parse_config(json.dumps(cfg)), str(root / label))
    return root, pairs


@pytest.fixture
def cemetery(cemetery_run, tmp_path):
    root, pairs = cemetery_run
    copy = tmp_path / "run"
    shutil.copytree(root, copy)
    return copy, pairs


def test_cemetery_accepts_real_run(cemetery):
    root, pairs = cemetery
    assert workloads.check("cemetery-snapshots", root, pairs) == []


def test_cemetery_rejects_snapshot_past_the_cemetery(cemetery):
    root, pairs = cemetery
    k = json.loads((root / "focusing" / "trajectory.json").read_text())["cemetery_index"]
    shutil.copy(root / "focusing" / "field_000000.csv", root / "focusing" / f"field_{k:06d}.csv")
    problems = workloads.check("cemetery-snapshots", root, pairs)
    assert any("focusing snapshots" in p for p in problems)


def test_cemetery_rejects_wrong_flag(cemetery):
    root, pairs = cemetery
    diag = root / "focusing" / "diagnostics.csv"
    lines = diag.read_text().splitlines()
    lines[-1] = lines[-1][:-1] + "0"
    diag.write_text("\n".join(lines) + "\n")
    problems = workloads.check("cemetery-snapshots", root, pairs)
    assert any("cemetery flags" in p for p in problems)


def test_cemetery_rejects_absorbed_twin(cemetery):
    root, pairs = cemetery
    shutil.rmtree(root / "defocusing")
    shutil.copytree(root / "focusing", root / "defocusing")
    problems = workloads.check("cemetery-snapshots", root, pairs)
    assert any("twin" in p for p in problems)


def test_digest_tracks_bytes_and_names(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.csv").write_text("1,2\n")
    (tmp_path / "y.json").write_text("{}\n")
    files, nbytes, sha = workloads.artifact_digest(tmp_path)
    assert (files, nbytes) == (2, 7)
    (tmp_path / "y.json").write_text("{}\t")
    assert workloads.artifact_digest(tmp_path)[2] != sha
    (tmp_path / "y.json").write_text("{}\n")
    assert workloads.artifact_digest(tmp_path)[2] == sha
    (tmp_path / "y.json").rename(tmp_path / "z.json")
    assert workloads.artifact_digest(tmp_path)[2] != sha
