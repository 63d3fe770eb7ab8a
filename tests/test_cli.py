"""Configuration validation, artifact determinism, and exit-code tests."""

import json
import math
import os

import pytest

from fracnls.cli import main, parse_config, run, write_csv
from fracnls.errors import ConfigError
from fracnls.fbm import HurstKernel
from fracnls.ldp import EventSpec, LdpLab, wilson_interval
from fracnls.solver import SolverConfig


class TestParseConfig:
    def test_minimal_fbm_defaults(self):
        cfg = parse_config('{"kind": "fbm", "H": 0.6}')
        assert cfg["n"] == 256
        assert cfg["replicates"] == 1000
        assert cfg["sampler"] == "exact"
        assert cfg["seed"] == 0

    def test_hurst_domain_message(self):
        with pytest.raises(ConfigError, match=r"H must lie in \(0,1\)"):
            parse_config('{"kind": "fbm", "H": 1.2}')

    def test_n1_window_message(self):
        cfg = {
            "kind": "solve", "H": 0.3, "eps": 1.0, "n": 16,
            "grid": {"N": 8}, "noise": {"alpha": 0.1},
        }
        with pytest.raises(ConfigError, match="admissible window"):
            parse_config(json.dumps(cfg))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config('{"kind": "fbm", "H": 0.5, "bogus": 1}')

    def test_unknown_nested_key_rejected(self):
        cfg = {"kind": "solve", "grid": {"N": 8, "volume": 2}}
        with pytest.raises(ConfigError, match=r"\$\.grid\.volume"):
            parse_config(json.dumps(cfg))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config('{"kind": "frobnicate"}')

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{nope}")

    def test_ladder_validation(self):
        cfg = {"kind": "ldp", "H": 0.7, "n": 16, "grid": {"N": 8}, "eps_ladder": []}
        with pytest.raises(ConfigError, match="eps_ladder"):
            parse_config(json.dumps(cfg))


class TestRunDeterminism:
    def test_fbm_byte_identical(self, tmp_path):
        cfg = parse_config('{"kind": "fbm", "H": 0.7, "n": 16, "replicates": 4, "seed": 3}')
        run(cfg, str(tmp_path / "a"))
        run(cfg, str(tmp_path / "b"))
        pa = (tmp_path / "a" / "paths.csv").read_bytes()
        pb = (tmp_path / "b" / "paths.csv").read_bytes()
        assert pa == pb

    def test_manifest_reproduces_run(self, tmp_path):
        cfg = parse_config('{"kind": "fbm", "H": 0.7, "n": 16, "replicates": 4, "seed": 3}')
        run(cfg, str(tmp_path / "a"))
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest.pop("version")
        cfg2 = parse_config(json.dumps(manifest))
        run(cfg2, str(tmp_path / "b"))
        assert (tmp_path / "a" / "paths.csv").read_bytes() == (
            tmp_path / "b" / "paths.csv"
        ).read_bytes()

    def test_ldp_ladder_matches_loop_reference(self, tmp_path):
        raw = {
            "kind": "ldp", "H": 0.7, "n": 16, "grid": {"N": 8}, "nl": None,
            "u0": {"type": "zero"},
            "noise": {"eigenvalues": [0.2, 1, 0.05, 0.01, 0.005, 0.01, 0.05, 1]},
            "event": {"kind": "terminal-ball-exit", "threshold": 0.64},
            "eps_ladder": [0.25, 0.16], "replicates": 500, "seed": 9,
        }
        cfg = parse_config(json.dumps(raw))
        run(cfg, str(tmp_path / "ldp"))
        # reference: rung idx keyed seed + idx, one trajectory per replicate
        scfg = SolverConfig(T=cfg["T"], n_steps=cfg["n"], blowup_threshold=cfg["threshold"])
        lab = LdpLab(cfg["_u0"], cfg["_nl"], cfg["_spec"], HurstKernel(cfg["H"]), scfg)
        ev = EventSpec(**cfg["event"])
        reps = cfg["replicates"]
        rows = []
        for idx, eps in enumerate(cfg["eps_ladder"]):
            hits = sum(
                lab.event_occurred(lab.sample_trajectory(eps, cfg["seed"] + idx, i), ev)
                for i in range(reps)
            )
            p = hits / reps
            lo, hi = wilson_interval(hits, reps)
            rows.append([eps, p, lo, hi, -eps * math.log(p) if p > 0 else math.inf])
        write_csv(str(tmp_path / "reference.csv"),
                  ["eps", "p_hat", "ci_lo", "ci_hi", "minus_eps_log_p"], rows)
        assert (tmp_path / "ldp" / "ladder.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()


class TestArtifacts:
    def test_solve_outputs(self, tmp_path):
        raw = {
            "kind": "solve", "T": 0.25, "n": 32, "grid": {"N": 16},
            "nl": {"kind": "kerr", "lam": -1, "sigma": 1},
            "u0": {"type": "gaussian", "amplitude": 0.5, "width": 0.8},
            "snapshot_every": 16,
        }
        out = tmp_path / "solve"
        run(parse_config(json.dumps(raw)), str(out))
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "t,mass,h1_norm,hamiltonian,cemetery"
        assert len(diag) == 34  # header + 33 grid points
        assert (out / "field_000000.csv").exists()
        assert (out / "field_000032.csv").exists()
        traj = json.loads((out / "trajectory.json").read_text())
        assert traj["cemetery_index"] is None

    def test_blowup_serialization_has_no_post_cemetery_fields(self, tmp_path):
        raw = {
            "kind": "solve", "T": 0.25, "n": 2000, "grid": {"N": 4096, "L": 2.0},
            "nl": {"kind": "kerr", "lam": 1, "sigma": 2},
            "u0": {"type": "gaussian", "amplitude": 8.0, "width": 0.25},
            "threshold": 1000.0, "snapshot_every": 1,
        }
        out = tmp_path / "blow"
        run(parse_config(json.dumps(raw)), str(out))
        traj = json.loads((out / "trajectory.json").read_text())
        assert traj["cemetery_index"] is not None
        k_star = traj["cemetery_index"]
        snaps = sorted(p for p in os.listdir(out) if p.startswith("field_"))
        indices = [int(p[6:12]) for p in snaps]
        assert max(indices) < k_star
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        for k, row in enumerate(rows):
            flag = int(row.split(",")[-1])
            assert flag == (1 if k >= k_star else 0)

    def test_skeleton_writes_control(self, tmp_path):
        raw = {
            "kind": "skeleton", "H": 0.7, "T": 1.0, "n": 16, "grid": {"N": 8},
            "nl": None, "u0": {"type": "zero"}, "noise": {"alpha": 0.2, "r": 4.0},
            "control": {"type": "random", "scale": 0.5, "seed": 2},
        }
        out = tmp_path / "skel"
        run(parse_config(json.dumps(raw)), str(out))
        header = (out / "control.csv").read_text().splitlines()[0]
        assert header.startswith("s,mode_0")

    def test_holder_report(self, tmp_path):
        raw = {"kind": "holder", "H": 0.7, "source": "fbm", "n": 4096, "replicates": 2}
        out = tmp_path / "hold"
        run(parse_config(json.dumps(raw)), str(out))
        rep = json.loads((out / "holder_report.json").read_text())
        assert len(rep["reports"]) == 2
        for r in rep["reports"]:
            assert 0.5 < r["exponent"] < 0.9


class TestMainExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"H": 1.2}')
        code = main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "H must lie in (0,1)" in capsys.readouterr().err

    def test_missing_out(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"H": 0.5}')
        assert main(["fbm", "--config", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["fbm", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3

    def test_success_and_seed_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"H": 0.6, "n": 8, "replicates": 2}')
        assert main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "o1"), "--seed", "5"]) == 0
        manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_oracle_suite_runs_clean(self, tmp_path):
        assert main(["oracle-suite", "--out", str(tmp_path / "oracle")]) == 0
        rep = json.loads((tmp_path / "oracle" / "oracle_report.json").read_text())
        assert rep["failed"] == 0
        assert rep["total"] >= 12
