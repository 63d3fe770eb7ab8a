"""Configuration validation, artifact determinism, and exit-code tests."""

import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracnls
from fracnls import __version__, fbm
from fracnls.cli import (
    _TEXT_VALUES,
    _WIDTH,
    _field_csv_template,
    _float_text,
    atomic_write,
    main,
    parse_config,
    run,
    write_csv,
    write_field_csv,
    write_json,
)
from fracnls.errors import ConfigError
from fracnls.fbm import TimeGrid, replicate_stream
from fracnls.field import ComplexField, GridSpec, field_from_modes, sobolev_norm, sobolev_norms
from fracnls.ldp import EVENT_KINDS, EventSpec, LdpLab, holder_exponent, wilson_interval
from fracnls.noise import ConvolutionSampler
from fracnls.solver import SolverConfig, solve_mild, solve_skeleton


README_FBM = {"H": 0.7, "T": 1.0, "n": 256, "replicates": 1000, "seed": 42}

README_LDP = {
    "kind": "ldp", "H": 0.7, "T": 1.0, "n": 16, "grid": {"N": 8},
    "nl": None, "u0": {"type": "zero"},
    "noise": {"eigenvalues": [0.2, 1, 0.05, 0.01, 0.005, 0.01, 0.05, 1]},
    "event": {"kind": "terminal-ball-exit", "threshold": 0.64},
    "eps_ladder": [0.25, 0.16, 0.09, 0.04],
    "replicates": 20000, "seed": 7,
}

# One config of every kind, small enough to run twice.
KIND_CONFIGS = {
    "fbm": {"kind": "fbm", "H": 0.7, "n": 16, "replicates": 4, "seed": 3},
    "convolve": {"kind": "convolve", "H": 0.6, "n": 8, "grid": {"N": 8}, "snapshot_every": 4,
                 "noise": {"eigenvalues": [0.2, 1, 0.05, 0.01, 0.005, 0.01, 0.05, 1]}},
    "solve": {"kind": "solve", "H": 0.4, "eps": 0.5, "T": 0.25, "n": 16, "grid": {"N": 16},
              "nl": {"kind": "saturated", "lam": 1}, "u0": {"type": "plane", "mode": 2},
              "noise": {"alpha": 0.3}, "snapshot_every": 8, "seed": 1},
    "skeleton": {"kind": "skeleton", "H": 0.7, "n": 16, "grid": {"N": 8}, "nl": None,
                 "u0": {"type": "gaussian", "width": 0.5}, "control": {"scale": 0.5}, "seed": 2},
    "ldp": README_LDP,
    "holder": {"kind": "holder", "H": 0.6, "source": "convolution", "n": 1024, "seed": 2},
    "support": {"kind": "support", "H": 0.7, "n": 16, "grid": {"N": 8}, "nl": None,
                "samples": 10, "family_sizes": [4, 16]},
    "oracle-suite": {"kind": "oracle-suite"},
}


# Keys the kinds that solve shared until 0.3.0, though no run of these kinds read them.
DELETED_KEYS = [("ldp", "eps"), ("ldp", "snapshot_every"), ("support", "eps"), ("support", "snapshot_every"),
                ("skeleton", "eps")]


# Keys that do not apply where a switch of their section turns them off:
# (kind, section, key, the section given with the key).
UNREAD_KEYS = [
    ("solve", "nl", "kappa", {"kind": "kerr", "lam": 1, "kappa": 0.5}),
    ("ldp", "optimizer", "n_splines", {"enabled": False, "n_splines": 4}),
    ("ldp", "optimizer", "budget", {"budget": 1000}),
    ("skeleton", "control", "scale", {"type": "zero", "scale": 0.5}),
    ("ldp", "event", "sobolev_index", {"kind": "blow-up-before-T", "sobolev_index": 1.0}),
]


def _public(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def sample_trajectory(lab: LdpLab, eps: float, seed: int, replicate: int):
    """Reference: replicate ``replicate`` of ``seed`` drawn and solved alone."""
    return solve_mild(lab.u0, lab.nl, lab.L.sample_mode_paths(seed, replicate), eps, lab.cfg)


def _key_paths(node, prefix=()):
    """Every key path (list positions included) of a resolved config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-100, 100) | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, 2**64]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

ORACLE_NAMES = [
    "normalization-constant-H0.25", "normalization-constant-H0.5", "normalization-constant-H0.75",
    "kernel-two-rule-agreement", "kernel-derivative-fd-H0.25", "kernel-derivative-fd-H0.75",
    "covariance-kernel-quadrature", "exact-sampler-variance", "fast-vs-exact-ks-pvalue",
    "duality-indicator", "duality-polynomial", "restriction-identity",
    "rkhs-vs-covariance", "group-deviation-bound-margin", "plane-wave-solver",
    "q-ll-factorization", "rate-projection-bound", "holder-line-path",
]


# Values whose %.17g text is easy to get wrong: signed zeros, non-finite
# values, the smallest subnormal, huge magnitudes and integral floats.
SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0,
                  1e22, 0.1]


def float_edge_values() -> np.ndarray:
    """Floats whose %.17g text is easy to get wrong, with their negatives:
    each power of ten from 1e-320 to 1e308 and the two floats either side of
    it; exact 18-digit ties, odd m / 2**j for m in [8e14, 8e15), j in 3..6;
    both sides of 1e-5, 1e-4, 1e16 and 1e17, where %g changes layout;
    subnormals, zeros, nan, inf and the largest float; and the bounds of the
    formatter's table, 1e-270 and 1e270, with their neighbours."""
    def neighbours(v, k=2):
        out = [v]
        for _ in range(k):
            out = [np.nextafter(out[0], -np.inf), *out, np.nextafter(out[-1], np.inf)]
        return out

    values = [w for k in range(-320, 309) for w in neighbours(float(f"1e{k}"))]
    m = 2 * np.random.default_rng(0).integers(4 * 10**14, 4 * 10**15, 500) + 1
    values += [float(v) for j in range(3, 7) for v in m / 2.0**j]
    values += [float(8 * 10**14 + 1) / 8, float(8 * 10**15 - 1) / 64]
    for v in (1e-5, 1e-4, 1e16, 1e17, 1e-270, 1e270):
        values += neighbours(v, 1)
    values += [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0, math.nan, math.inf,
               sys.float_info.max]
    values = np.array(values)
    return np.concatenate([values, -values])


def _field_csv_reference(field: ComplexField) -> bytes:
    """Snapshot bytes from one "%d" or "%.17g" per value, row by row in C order."""
    g = field.grid
    header = (["index"] if g.d == 1 else ["ix", "iy"]) + ["x", "y"][: g.d] + ["re", "im"]
    lines = [",".join(header)]
    for idx in np.ndindex(*g.shape):
        v = complex(field.values[idx])
        cells = ["%d" % i for i in idx] + ["%.17g" % float(g.coordinates[a][i]) for a, i in enumerate(idx)]
        lines.append(",".join(cells + ["%.17g" % v.real, "%.17g" % v.imag]))
    return ("\n".join(lines) + "\n").encode()


def _snapshot_values(shape, rng, strided: bool) -> np.ndarray:
    """Normal Re and Im with SPECIAL_FLOATS in both, optionally as a strided view."""
    values = np.empty(shape, dtype=complex)
    values.real = rng.normal(size=shape)
    values.imag = rng.normal(size=shape)
    n = len(SPECIAL_FLOATS)
    values.real.reshape(-1)[:n] = SPECIAL_FLOATS
    values.imag.reshape(-1)[:n] = SPECIAL_FLOATS[3:] + SPECIAL_FLOATS[:3]
    if not strided:
        return values
    parent = np.zeros(tuple(2 * k for k in shape), dtype=complex)
    view = parent[(slice(None, None, 2),) * len(shape)]
    view[...] = values
    return view


class TestParseConfig:
    def test_minimal_fbm_defaults(self):
        cfg = parse_config('{"kind": "fbm", "H": 0.6}')
        assert cfg["n"] == 256
        assert cfg["replicates"] == 1000
        assert "sampler" not in cfg  # one sampler: circulant embedding
        assert cfg["seed"] == 0

    @pytest.mark.parametrize("kind", ["skeleton", "ldp", "support"])
    def test_dense_kinds_default_to_the_dense_limit(self, kind):
        assert parse_config(json.dumps({"kind": kind, "H": 0.7, "grid": {"N": 8}}))["n"] == 64
        assert parse_config('{"kind": "solve"}')["n"] == 1000
        with pytest.raises(ConfigError, match=r"^\$\.n: .* are limited to n <= 64$"):
            parse_config(json.dumps({"kind": kind, "H": 0.7, "grid": {"N": 8}, "n": 65}))

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

    @pytest.mark.parametrize(
        "u0, key",
        [({"type": "gaussian", "mode": "x"}, "mode"), ({"type": "zero", "amplitude": 2.0}, "amplitude"),
         ({"type": "plane", "width": 1.0}, "width")],
        ids=["gaussian-mode", "zero-amplitude", "plane-width"],
    )
    def test_u0_takes_only_the_keys_its_type_reads(self, u0, key):
        with pytest.raises(ConfigError, match=rf"^\$\.u0\.{key}: unknown key"):
            parse_config(json.dumps({"kind": "solve", "u0": u0}))

    def test_u0_echo_is_the_keys_its_type_reads(self):
        echo = {t: parse_config(json.dumps({"kind": "solve", "u0": {"type": t}}))["u0"]
                for t in ("zero", "gaussian", "plane")}
        assert echo == {
            "zero": {"type": "zero"},
            "gaussian": {"type": "gaussian", "amplitude": 1.0, "width": 1.0},
            "plane": {"type": "plane", "amplitude": 1.0, "mode": 1},
        }

    @pytest.mark.parametrize("key", ["alpha", "r"])
    def test_power_law_key_beside_eigenvalues(self, key):
        noise = {"eigenvalues": [1.0] * 8, key: 0.2}
        cfg = {"kind": "convolve", "H": 0.7, "grid": {"N": 8}, "noise": noise}
        with pytest.raises(ConfigError, match=rf"^\$\.noise\.{key}: unknown key"):
            parse_config(json.dumps(cfg))

    @pytest.mark.parametrize("kind", KIND_CONFIGS)
    @settings(max_examples=60, deadline=None)
    @given(value=JSON_VALUES)
    @example(8589934592.0)  # N 2^33: a config error, not a 64 GiB wavenumber array
    def test_any_json_value_at_any_key_path(self, kind, value):
        base = _public(parse_config(json.dumps(KIND_CONFIGS[kind])))
        for path in _key_paths(base):
            cfg = json.loads(json.dumps(base))
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                parse_config(json.dumps(cfg))
            except ConfigError:
                pass


# Valid configs of every kind that runs a model, within small bounds.
_HURST = st.floats(0.01, 0.99)
_HORIZON = st.floats(0.05, 2.0)
_SMALL = st.floats(-2.0, 2.0)
_STEPS = st.integers(1, 32)


@st.composite
def _noise_section(draw, H: float, grid: dict):
    if draw(st.booleans()):
        modes = grid["N"] ** grid["d"]
        return {"eigenvalues": draw(st.lists(st.floats(0.0, 2.0), min_size=modes, max_size=modes))}
    lo, hi = (0.5 - H, 1.0 - H) if H < 0.5 else (0.0, 1.0)
    alpha = lo + (hi - lo) * draw(st.floats(0.05, 0.95))
    return {"alpha": alpha, "r": 1.0 + 2.0 * (H + alpha) + draw(st.floats(0.1, 4.0))}


def _grid_section(draw) -> dict:
    return {"d": draw(st.sampled_from([1, 2])), "N": draw(st.sampled_from([8, 16])),
            "L": draw(st.floats(0.5, 10.0))}


def _model_keys(draw) -> dict:
    H, grid = draw(_HURST), _grid_section(draw)
    nl = draw(st.none() | st.builds(dict, kind=st.just("kerr"), lam=st.sampled_from([-1, 1]),
                                    sigma=st.floats(0.5, 3.0))
              | st.builds(dict, kind=st.just("saturated"), lam=st.sampled_from([-1, 1]),
                          sigma=st.floats(0.5, 3.0), kappa=st.floats(0.1, 3.0)))
    u0 = draw(st.just({"type": "zero"})
              | st.builds(dict, type=st.just("gaussian"), amplitude=_SMALL, width=st.floats(0.1, 2.0))
              | st.builds(dict, type=st.just("plane"), amplitude=_SMALL,
                          mode=st.integers(-grid["N"] // 2, grid["N"] // 2)))
    return {"H": H, "T": draw(_HORIZON), "n": draw(_STEPS), "grid": grid,
            "nl": nl, "u0": u0, "threshold": draw(st.none() | st.floats(0.5, 20.0)),
            "noise": draw(_noise_section(H, grid))}


@st.composite
def valid_configs(draw):
    kind = draw(st.sampled_from(["fbm", "convolve", "solve", "skeleton", "ldp", "holder", "support"]))
    cfg = {"kind": kind, "seed": draw(st.integers(0, 2**32))}
    if kind == "fbm":
        cfg.update(H=draw(_HURST), T=draw(_HORIZON), n=draw(_STEPS), replicates=draw(st.integers(1, 200)))
    elif kind == "convolve":
        H, grid, n = draw(_HURST), _grid_section(draw), draw(_STEPS)
        cfg.update(H=H, T=draw(_HORIZON), n=n, grid=grid, noise=draw(_noise_section(H, grid)),
                   snapshot_every=draw(st.integers(1, n)))
    elif kind == "holder":
        # n is at least 2**10 for this kind, so a few replicates keep it small
        cfg.update(H=draw(_HURST), T=draw(_HORIZON), n=1024, replicates=draw(st.integers(1, 4)))
        if draw(st.booleans()):
            grid = _grid_section(draw)
            cfg.update(source="convolution", grid=grid, noise=draw(_noise_section(cfg["H"], grid)))
    else:
        cfg.update(_model_keys(draw))
        snapshots = st.integers(0, cfg["n"])
        if kind == "solve":
            cfg["eps"] = draw(st.just(0.0) | st.floats(0.01, 1.0))
            cfg["snapshot_every"] = draw(snapshots)
            if cfg["eps"] == 0.0:
                del cfg["H"], cfg["noise"]
        elif kind == "skeleton":
            cfg["snapshot_every"] = draw(snapshots)
            cfg["control"] = draw(st.just({"type": "zero"})
                                  | st.builds(dict, type=st.just("random"), scale=_SMALL))
        elif kind == "ldp":
            event = {"kind": draw(st.sampled_from(EVENT_KINDS)), "threshold": draw(st.floats(0.0, 5.0))}
            if event["kind"] != "blow-up-before-T":
                event["sobolev_index"] = draw(st.floats(0.0, 2.0))
            optimizer = {"enabled": draw(st.booleans())}
            if optimizer["enabled"]:
                optimizer.update(n_splines=draw(st.integers(4, 8)), budget=draw(st.integers(100, 300)))
            cfg.update(event=event, optimizer=optimizer, replicates=draw(st.integers(100, 200)),
                       eps_ladder=draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4)))
        else:
            sizes = draw(st.lists(st.integers(1, 16), min_size=2, max_size=3))
            cfg.update(samples=draw(st.integers(2, 10)), family_sizes=sorted(sizes), control_scale=draw(_SMALL))
    return cfg


# The resolver's refusals of a config that every key check accepts.
RUN_REFUSALS = [
    "must exceed the initial H^1 norm",
    "the deterministic flow is absorbed at step",
    "degenerate terminal covariance",
    "exceeds the optimizer's limit",
]


def _run_main(raw: dict, tmp: str, out: str) -> tuple:
    """Exit code, stdout, stderr and the files written of ``raw`` run through ``main``."""
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([raw["kind"], "--config", path, "--out", os.path.join(tmp, out)])
    files = {}
    if os.path.isdir(os.path.join(tmp, out)):
        for name in sorted(os.listdir(os.path.join(tmp, out))):
            with open(os.path.join(tmp, out, name), "rb") as fh:
                files[name] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), files


class TestEndToEndFuzz:
    @settings(max_examples=100, deadline=None)
    @given(raw=valid_configs())
    def test_valid_configs_run_and_rerun_byte_identical(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            first = _run_main(raw, tmp, "a")
            second = _run_main(raw, tmp, "b")
        code, _, err, _ = first
        assert code in (0, 1, 2), err
        if code == 1:
            assert any(refusal in err for refusal in RUN_REFUSALS), err
        assert second == first


class TestRunDeterminism:
    def test_fbm_byte_identical(self, tmp_path):
        cfg = parse_config('{"kind": "fbm", "H": 0.7, "n": 16, "replicates": 4, "seed": 3}')
        run(cfg, str(tmp_path / "a"))
        run(cfg, str(tmp_path / "b"))
        pa = (tmp_path / "a" / "paths.csv").read_bytes()
        pb = (tmp_path / "b" / "paths.csv").read_bytes()
        assert pa == pb

    @pytest.mark.parametrize("raw", KIND_CONFIGS.values(), ids=KIND_CONFIGS.keys())
    def test_manifest_reproduces_run(self, tmp_path, raw):
        cfg = parse_config(json.dumps(raw))
        run(cfg, str(tmp_path / "a"))
        cfg2 = parse_config((tmp_path / "a" / "manifest.json").read_text())
        assert _public(cfg2) == _public(cfg)
        run(cfg2, str(tmp_path / "b"))
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        assert "manifest.json" in names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

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
        lab = LdpLab(cfg["_u0"], cfg["_nl"], cfg["_spec"], cfg["H"], scfg)
        ev = EventSpec(**cfg["event"])
        reps = cfg["replicates"]
        rows = []
        for idx, eps in enumerate(cfg["eps_ladder"]):
            hits = sum(
                lab.event_occurred(sample_trajectory(lab, eps, cfg["seed"] + idx, i), ev)
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

    def test_linear_terminal_ball_computes_its_pinv_rate_once(self, tmp_path, monkeypatch):
        # the set-up check's rate is the one the report carries
        calls = []
        original = fracnls.ldp.cheapest_terminal_rate
        monkeypatch.setattr(fracnls.ldp, "cheapest_terminal_rate",
                            lambda *args: calls.append(args) or original(*args))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**README_LDP, "eps_ladder": [0.25], "replicates": 100}))
        assert main(["ldp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "o" / "rate_report.json").read_text())
        assert report["pinv_rate"] == original(*calls[0])[0]

    def test_blowup_bound_is_finite_when_u0_holds_the_sup(self, tmp_path):
        # the focusing flow's H^1 norm is largest at t = 0, which no control
        # moves, so only a score that reads the sup after t = 0 has a slope at
        # the zero control
        raw = {
            "kind": "ldp", "H": 0.7, "n": 32, "grid": {"N": 16}, "nl": {"kind": "kerr", "lam": 1, "sigma": 2},
            "u0": {"type": "gaussian", "amplitude": 1.0, "width": 1 / math.sqrt(2)}, "threshold": 3.0,
            "event": {"kind": "blow-up-before-T"}, "replicates": 100,
            "optimizer": {"enabled": True, "n_splines": 4, "budget": 1000},
        }
        cfg = parse_config(json.dumps(raw))
        assert np.nanargmax(cfg["_lab"].deterministic.h1_norms) == 0
        run(cfg, str(tmp_path / "ldp"))
        bound = json.loads((tmp_path / "ldp" / "rate_report.json").read_text())["variational_bound"]
        assert bound is not None and 0.0 < bound < math.inf

    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_sup_norm_bound_is_finite_when_u0_holds_the_sup(self, s):
        # the focusing flow's H^s norm is largest at t = 0, so a score that read
        # the sup from t = 0 on would have no slope at the zero control
        raw = {
            "kind": "ldp", "H": 0.7, "n": 32, "grid": {"N": 8}, "nl": {"kind": "kerr", "lam": 1, "sigma": 2},
            "u0": {"type": "gaussian", "amplitude": 1.0, "width": 1 / math.sqrt(2)}, "threshold": 3.0,
            "event": {"kind": "sup-norm-exceed", "threshold": 2.0, "sobolev_index": s},
            "optimizer": {"enabled": True, "budget": 1000},
        }
        cfg = parse_config(json.dumps(raw))
        lab, ev = cfg["_lab"], EventSpec(**cfg["event"])
        norms = [sobolev_norm(lab.deterministic.field(k), s) for k in range(cfg["n"] + 1)]
        assert np.argmax(norms) == 0 and max(norms) < ev.threshold
        res = lab.minimize_rate(ev, cfg["optimizer"]["n_splines"], cfg["optimizer"]["budget"])
        assert res.feasible and 0.0 < res.rate < math.inf

    @pytest.mark.parametrize(
        "raw, cemeteries",
        [
            # samples absorbed at assorted steps, some never
            ({"kind": "support", "H": 0.7, "n": 32, "grid": {"N": 16},
              "nl": {"kind": "kerr", "lam": 1, "sigma": 2},
              "u0": {"type": "gaussian", "amplitude": 1.6, "width": 0.7}, "threshold": 6.0,
              "samples": 30, "family_sizes": [8, 64], "control_scale": 2.0},
             {7, 8, 9, None}),
            # 17 x 64 complex mode paths a row: blocks of 30, 1 samples and 30, 30, 4 members
            ({"kind": "support", "H": 0.7, "n": 16, "grid": {"d": 2, "N": 8},
              "nl": {"kind": "saturated", "lam": 1}, "u0": {"type": "gaussian"},
              "samples": 31, "family_sizes": [8, 64]},
             {None}),
        ],
        ids=["kerr-mixed-cemeteries", "d2-several-blocks"],
    )
    def test_support_matches_loop_reference(self, tmp_path, raw, cemeteries):
        cfg = parse_config(json.dumps(raw))
        run(cfg, str(tmp_path / "support"))
        # reference: one solve per sample and per family member, and one
        # distance per pair, as the max over the steps of the H^1 norm
        scfg = SolverConfig(T=cfg["T"], n_steps=cfg["n"], blowup_threshold=cfg["threshold"])
        lab = LdpLab(cfg["_u0"], cfg["_nl"], cfg["_spec"], cfg["H"], scfg)
        samples = [sample_trajectory(lab, 1.0, cfg["seed"], i) for i in range(cfg["samples"])]
        assert {s.cemetery_index for s in samples} == cemeteries
        family = []
        for i in range(cfg["family_sizes"][-1]):
            z = replicate_stream(cfg["seed"] + 7_777, i).standard_normal((lab.spec.grid.mode_count, cfg["n"]))
            h = cfg["control_scale"] * z
            family.append(solve_skeleton(lab.u0, h, lab.nl, scfg, lab.L))

        def distance(a, b):
            if a.cemetery_index != b.cemetery_index:
                return math.inf
            return max(float(sobolev_norms(a.grid, u - v, 1.0)) for u, v in zip(a.spectra, b.spectra))

        pairs = [[distance(s, f) for f in family] for s in samples]
        medians = [float(np.median([min(row[:size]) for row in pairs])) for size in cfg["family_sizes"]]
        write_json(str(tmp_path / "support.json"),
                   {"family_sizes": cfg["family_sizes"], "medians": medians, "monotone": True})
        write_csv(str(tmp_path / "support.csv"), ["family_size", "median_distance"],
                  list(zip(cfg["family_sizes"], medians)))
        for name in ("support.json", "support.csv"):
            assert (tmp_path / "support" / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_holder_convolution_matches_loop_reference(self, tmp_path):
        raw = {"kind": "holder", "H": 0.6, "source": "convolution", "n": 1024, "replicates": 10, "seed": 5}
        cfg = parse_config(json.dumps(raw))
        run(cfg, str(tmp_path / "holder"))
        # a replicate's mode paths are 1025 x 8 complex: 10 replicates span four blocks
        assert cfg["replicates"] > 3 * (fbm._BLOCK_BYTES // (1025 * 8 * 16))
        # reference: one sample_mode_paths draw per replicate
        sampler = ConvolutionSampler(cfg["_spec"], cfg["H"], TimeGrid(cfg["T"], cfg["n"]))
        w = 1.0 + cfg["_grid"].xi_squared.reshape(-1)
        reports = [
            asdict(holder_exponent(sampler.sample_mode_paths(cfg["seed"], i), weights=w))
            for i in range(cfg["replicates"])
        ]
        write_json(str(tmp_path / "reference.json"), {"H": cfg["H"], "reports": reports})
        assert (tmp_path / "holder" / "holder_report.json").read_bytes() == (
            tmp_path / "reference.json"
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_first_snapshot_is_u0_as_given(self, tmp_path, d):
        # the solver steps spectra, and state 0 is u0 itself, never a
        # transform round trip, so its imaginary parts stay zero
        raw = {
            "kind": "solve", "T": 0.25, "n": 4, "grid": {"d": d, "N": 16},
            "nl": {"kind": "kerr", "lam": 1, "sigma": 1},
            "u0": {"type": "gaussian", "amplitude": 0.9, "width": 0.6},
            "snapshot_every": 2,
        }
        cfg = parse_config(json.dumps(raw))
        run(cfg, str(tmp_path / "solve"))
        write_field_csv(str(tmp_path / "u0.csv"), cfg["_u0"])
        assert (tmp_path / "solve" / "field_000000.csv").read_bytes() == (tmp_path / "u0.csv").read_bytes()

    def test_linear_hamiltonian_is_conserved(self, tmp_path):
        # a linear run reports the kinetic energy, which the free flow conserves
        raw = {
            "kind": "solve", "T": 1.0, "n": 1000, "grid": {"N": 64}, "nl": None,
            "u0": {"type": "gaussian", "amplitude": 1.5, "width": 0.5},
        }
        run(parse_config(json.dumps(raw)), str(tmp_path))
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
        energies = np.array([float(row.split(",")[3]) for row in rows])
        assert len(energies) == 1001 and energies[0] > 0
        assert np.abs(energies - energies[0]).max() <= 1e-12 * energies[0]

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

    # N 16, and the snapshot size: 4096 modes, whose 8192 floats are one
    # formatter block
    @pytest.mark.parametrize("d, N", [(1, 16), (2, 16), (1, 4096), (2, 64)])
    def test_field_csv_matches_row_loop(self, tmp_path, d, N):
        rng = np.random.default_rng(d)
        # the same N at two L, then both grids again with strided values: two
        # templates, then two cached ones
        writes = [(2.0, False), (0.75, False), (2.0, True), (0.75, True)]
        for k, (L, strided) in enumerate(writes):
            g = GridSpec(d, N, L)
            f = ComplexField(g, _snapshot_values(g.shape, rng, strided))
            assert f.values.flags.c_contiguous is not strided
            if k == 2:
                hits = _field_csv_template.cache_info().hits
            write_field_csv(str(tmp_path / f"field_{k}.csv"), f)
            assert (tmp_path / f"field_{k}.csv").read_bytes() == _field_csv_reference(f)
        assert _field_csv_template.cache_info().hits == hits + 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_convolve_snapshots_match_row_loop(self, tmp_path, d):
        raw = {"kind": "convolve", "H": 0.6, "n": 8, "grid": {"d": d, "N": 8, "L": 1.5},
               "snapshot_every": 3, "seed": 5}
        cfg = parse_config(json.dumps(raw))
        run(cfg, str(tmp_path))
        sampler = ConvolutionSampler(cfg["_spec"], cfg["H"], TimeGrid(cfg["T"], cfg["n"]))
        paths = sampler.sample_mode_paths(cfg["seed"], 0)
        names = sorted(p for p in os.listdir(tmp_path) if p.startswith("field_"))
        assert names == ["field_000000.csv", "field_000003.csv", "field_000006.csv"]
        for name in names:
            snapshot = field_from_modes(cfg["_grid"], paths[int(name[6:12])])
            assert (tmp_path / name).read_bytes() == _field_csv_reference(snapshot)

    def test_pathset_csv_matches_row_loop(self, tmp_path):
        # paths.csv: the times as the header row, then one row per path
        grid = TimeGrid(0.3, 8)
        values = np.random.default_rng(0).normal(size=(3, 9))
        values.reshape(-1)[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
        write_csv(str(tmp_path / "paths.csv"), ["%.17g" % t for t in grid.points.tolist()], values.tolist())
        rows = [grid.points, *values]
        expected = "".join(",".join("%.17g" % float(v) for v in row) + "\n" for row in rows)
        assert (tmp_path / "paths.csv").read_text() == expected

    def test_mixed_csv_matches_per_element_format(self, tmp_path):
        # every cell is the %.17g text of a float, so an integer column, as
        # the diagnostics' cemetery flag and the support family sizes, reads
        # as the str of its integers below 2**53
        ints = [0, 1, -3, 2**53 - 1, 7, 64, 1 - 2**53, 8, 12, 5, 9, 11, 13]
        rows = [[f, i, -f, i + 1] for f, i in zip(SPECIAL_FLOATS, ints)]
        write_csv(str(tmp_path / "mixed.csv"), ["a", "n", "b", "m"], rows)
        expected = ["a,n,b,m"] + [",".join("%.17g" % float(v) for v in row) for row in rows]
        assert (tmp_path / "mixed.csv").read_text() == "\n".join(expected) + "\n"
        for row, line in zip(rows, expected[1:]):
            cells = line.split(",")
            assert [cells[1], cells[3]] == [str(row[1]), str(row[3])]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_artifact_mode_follows_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write(str(tmp_path / "a.txt"), b"x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "a.txt").st_mode) == mode
        assert (tmp_path / "a.txt").read_text() == "x\n"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_skeleton_writes_control(self, tmp_path):
        raw = {
            "kind": "skeleton", "H": 0.7, "T": 1.0, "n": 16, "grid": {"N": 8},
            "nl": None, "u0": {"type": "zero"}, "noise": {"alpha": 0.2, "r": 4.0},
            "control": {"type": "random", "scale": 0.5}, "seed": 2,
        }
        out = tmp_path / "skel"
        run(parse_config(json.dumps(raw)), str(out))
        header = (out / "control.csv").read_text().splitlines()[0]
        assert header.startswith("s,mode_0")

    @pytest.mark.parametrize("kind", ["skeleton", "support"])
    def test_control_runs_never_assemble_the_dense_operator(self, tmp_path, kind):
        # their controls go through the response map, as the sampler's normals do
        cfg = parse_config(json.dumps(KIND_CONFIGS[kind]))
        assert run(cfg, str(tmp_path)) == 0
        assert "mats" not in vars(cfg["_lab"].L)

    def test_skeleton_control_draws_from_the_seed(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({k: v for k, v in KIND_CONFIGS["skeleton"].items() if k != "seed"}))
        for seed in ("1", "2"):
            assert main(["skeleton", "--config", str(cfg), "--out", str(tmp_path / seed), "--seed", seed]) == 0
        for name in ("control.csv", "diagnostics.csv"):
            assert (tmp_path / "1" / name).read_bytes() != (tmp_path / "2" / name).read_bytes(), name

    def test_holder_report(self, tmp_path):
        raw = {"kind": "holder", "H": 0.7, "source": "fbm", "n": 4096, "replicates": 2}
        out = tmp_path / "hold"
        run(parse_config(json.dumps(raw)), str(out))
        rep = json.loads((out / "holder_report.json").read_text())
        assert len(rep["reports"]) == 2
        for r in rep["reports"]:
            assert 0.5 < r["exponent"] < 0.9


def _percent_text(values: np.ndarray) -> list[bytes]:
    return [("%.17g" % v).encode() for v in values.tolist()]


class TestFloatText:
    """The CSV float formatter against '%.17g' itself."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _float_text(values) == _percent_text(values)

    def test_edge_values(self):
        # deciding the exponent after rounding fails here, on every float just
        # below a power of ten whose 17 digits round up to it
        values = float_edge_values()
        assert _float_text(values) == _percent_text(values)

    def test_shape_and_order(self):
        values = np.arange(24.0).reshape(2, 3, 4)[:, ::2] * -0.3
        assert _float_text(values) == _percent_text(values.reshape(-1))
        assert _float_text(np.array([])) == []

    def test_blocks_join_in_order(self):
        # three blocks and a part of one
        values = np.random.default_rng(1).normal(size=3 * _TEXT_VALUES + 5)
        assert _float_text(values) == _percent_text(values)

    def test_one_block_mixes_every_run_with_gaps(self):
        # every (sign, layout) run in one block, between zeros and magnitudes
        # outside the table (1e-270, 1e270), which the layout's rows skip
        rng = np.random.default_rng(3)
        exponents = [-269, -20, -6, *range(-5, 18), 40, 269]
        # 1.5 and 3 end in zeros that are cut; scaled at random, 17 digits stay
        runs = np.array([float(f"{m}e{e}") for e in exponents for m in (1.5, 3, 1.2345678901234567)])
        inside = np.concatenate([runs, runs * rng.uniform(0.5, 1.5, runs.size)])
        gaps = [0.0, -0.0, 1e-280, -1e-300, 5e-324, 1e271, -1e300, math.inf, -math.inf, math.nan]
        values = rng.permutation(np.concatenate([inside, -inside, gaps * 10]))
        assert values.size <= _TEXT_VALUES
        assert _float_text(values) == _percent_text(values)

    @pytest.mark.parametrize("kind", ["snapshot", "in-table"])
    def test_one_block_peaks_at_its_text(self, kind):
        # A block peaks in tolist, holding the text's objects and list, the
        # 24-byte array they are made from and the 1-byte mask of values
        # formatted one by one: a layout array left alive through tolist adds
        # 8 bytes a value and shows here.  The allowance is for the few
        # values that mask names and numpy's small objects.
        rng = np.random.default_rng(4)
        if kind == "snapshot":  # zeros and special floats leave gaps in the rows
            values = _snapshot_values((_TEXT_VALUES // 2,), rng, False).view(float)
        else:  # every value in the table's range, in many layouts
            values = rng.normal(size=_TEXT_VALUES) * 10.0 ** rng.integers(-20, 20, _TEXT_VALUES)
        _float_text(values[:16])  # the decimal tables, built on first use
        tracemalloc.start()
        try:
            text = _float_text(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == _percent_text(values)
        own = sys.getsizeof(text) + sum(map(sys.getsizeof, text))
        assert peak <= own + (_WIDTH + 1) * values.size + 16384

    @pytest.mark.parametrize("kind", ["fbm", "convolve", "solve", "skeleton", "ldp", "support"])
    def test_every_csv_cell_is_its_own_percent_text(self, tmp_path, kind):
        # a number cell re-rendered as '%.17g' % float(cell), or str(int(cell))
        # when it is an integer, gives the same bytes back, header rows included
        raw = {**KIND_CONFIGS[kind], "seed": 5}
        if kind == "skeleton":
            raw["snapshot_every"] = 4
        run(parse_config(json.dumps(raw)), str(tmp_path))
        files = sorted(p for p in os.listdir(tmp_path) if p.endswith(".csv"))
        assert files
        for name in files:
            data = (tmp_path / name).read_bytes()
            lines = data.decode().split("\n")
            assert lines[-1] == ""
            rendered = []
            for line in lines[:-1]:
                cells = []
                for cell in line.split(","):
                    if re.fullmatch(r"-?[0-9]+", cell) and cell != "-0":  # "-0" is a float's
                        cell = str(int(cell))
                    else:
                        try:
                            cell = "%.17g" % float(cell)
                        except ValueError:  # a column name
                            pass
                    cells.append(cell)
                rendered.append(",".join(cells))
            assert "\n".join(rendered + [""]).encode() == data, name


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

    def test_huge_grid_is_a_config_error_that_allocates_nothing(self, tmp_path, capsys):
        # N 2^33 is a power of two; its wavenumbers alone would take 64 GiB
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"grid": {"N": 2**33}}))
        tracemalloc.start()
        try:
            code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: $.grid: N^d = 8589934592 modes exceed the limit 16777216\n")
        assert peak < 2**20
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["fbm", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3

    def test_success_and_seed_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"H": 0.6, "n": 8, "replicates": 2}')
        assert main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "o1"), "--seed", "5"]) == 0
        manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert manifest["seed"] == 5

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("fbm", '{"H": 0.5,', "malformed JSON"),
            ("convolve", json.dumps({"H": 0.7, "grid": {"N": 8}, "noise": {"eigenvalues": ["a"] * 8}}),
             r"\$\.noise\.eigenvalues"),
            ("support", json.dumps({"H": 0.7, "n": 16, "grid": {"N": 8}, "family_sizes": [8, "x"]}),
             r"\$\.family_sizes\[1\]"),
            ("ldp", json.dumps({"H": 0.7, "n": 4, "grid": {"N": 8}, "nl": None, "eps_ladder": [0.25],
                                "replicates": 100, "optimizer": {"enabled": "false", "budget": 100}}),
             r"\$\.optimizer\.enabled"),
            ("solve", json.dumps({"u0": {"type": [1]}}), r"\$\.u0\.type"),
            ("solve", json.dumps({"nl": {"kind": {}}}), r"\$\.nl\.kind"),
            ("solve", '{"n": 1e400}', r"\$\.n: expected a finite number"),
            ("convolve", '{"H": 0.7, "noise": {"eigenvalues": [NaN, 1, 1, 1, 1, 1, 1, 1]}}',
             r"\$\.noise\.eigenvalues: expected finite numbers"),
            ("solve", json.dumps({"grid": {"N": 2**64}}), r"\$\.grid: N\^d = "),
            # keys no run of the kind reads
            *[(kind, json.dumps({**KIND_CONFIGS[kind], key: 1}), rf"^config error: \$\.{key}: unknown key")
              for kind, key in DELETED_KEYS],
            ("skeleton", json.dumps({**KIND_CONFIGS["skeleton"], "control": {"scale": 0.5, "seed": 2}}),
             r"^config error: \$\.control\.seed: unknown key"),
            ("fbm", json.dumps({**KIND_CONFIGS["fbm"], "sampler": "fast"}), r"^config error: \$\.sampler: unknown key"),
            # keys their run does not read, given where their switch turns them off
            *[(kind, json.dumps({**KIND_CONFIGS[kind], section: value}),
               rf"^config error: \$\.{section}\.{key}: does not apply to this config\n\Z")
              for kind, section, key, value in UNREAD_KEYS],
            # the power law outside its admissible window
            ("convolve", json.dumps({"H": 0.7, "noise": {"alpha": 1.0}}),
             r"^config error: \$\.noise: alpha outside the admissible window \(0\.0, 1\.0\)"),
            ("convolve", json.dumps({"H": 0.7, "noise": {"alpha": 0.25, "r": 1.0}}),
             r"^config error: \$\.noise: decay exponent r=1\.0 too small"),
            # a blow-up threshold the initial datum already reaches
            ("solve", json.dumps({"T": 0.25, "n": 8, "grid": {"N": 16}, "threshold": 0.001,
                                  "u0": {"type": "gaussian", "amplitude": 1.0}}),
             r"\$\.threshold: blow-up threshold 0\.001 must exceed the initial H\^1 norm 1\.63"),
            ("ldp", json.dumps({"H": 0.7, "n": 16, "grid": {"N": 8}, "threshold": 6.0,
                                "u0": {"type": "gaussian", "amplitude": 5.0}}),
             r"\$\.threshold: blow-up threshold 6\.0 must exceed the initial H\^1 norm"),
            ("solve", json.dumps({"grid": {"N": 16}, "u0": {"type": "plane", "amplitude": 1.7e308}}),
             r"\$\.threshold: blow-up threshold nan must exceed the initial H\^1 norm nan"),
            # a terminal ball around a deterministic flow absorbed before T
            ("ldp", json.dumps({"H": 0.7, "n": 32, "grid": {"N": 16}, "threshold": 6.0,
                                "nl": {"kind": "kerr", "lam": 1, "sigma": 2},
                                "u0": {"type": "gaussian", "amplitude": 1.7, "width": 0.7},
                                "event": {"kind": "terminal-ball-exit", "threshold": 0.5},
                                "eps_ladder": [4.0], "replicates": 100}),
             r"^config error: \$\.event\.kind: the deterministic flow is absorbed at step 6, "
             r"so terminal-ball-exit has no centre\n\Z"),
            # a linear terminal ball under a noise whose terminal covariance is
            # zero, or underflows to it: the run would have no pinv rate
            *[("ldp", json.dumps({**README_LDP, "noise": {"eigenvalues": [value] * 8}, "replicates": 100}),
               r"^config error: \$\.noise: degenerate terminal covariance: no reachable direction\n\Z")
              for value in (0.0, 1e-200)],
            # a ball radius, or a noise gain, whose pinv rate is past float range
            *[("ldp", json.dumps({**README_LDP, **raw, "replicates": 100}),
               r"^config error: \$\.noise: terminal rate (inf|nan) is past float range")
              for raw in ({"event": {"threshold": 1.3e154}},
                          {"noise": {"eigenvalues": [0.2, 1e300, 0.05, 0.01, 0.005, 0.01, 0.05, 1]}})],
        ],
        ids=["malformed-json", "eigenvalues-not-numbers", "family-sizes-mixed-types",
             "optimizer-enabled-not-boolean", "u0-type-unhashable", "nl-kind-unhashable",
             "n-overflows", "eigenvalue-nan", "grid-too-large",
             *[f"{kind}-{key}" for kind, key in DELETED_KEYS], "skeleton-control-seed", "fbm-sampler",
             *[f"{kind}-{section}-{key}-unread" for kind, section, key, _ in UNREAD_KEYS],
             "alpha-outside-window", "decay-too-small",
             "threshold-below-u0", "ldp-threshold-below-u0", "u0-norm-overflows",
             "terminal-ball-absorbed-flow", "ldp-noise-zero", "ldp-noise-underflows",
             "ldp-pinv-rate-overflows", "ldp-noise-overflows"],
    )
    def test_malformed_input_is_a_config_error(self, tmp_path, capsys, kind, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert re.search(message, err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, raw, key",
        [
            ("solve", {"grid": 5}, "grid"),
            ("solve", {"u0": "zero"}, "u0"),
            ("solve", {"nl": 7}, "nl"),
            ("convolve", {"H": 0.7, "noise": 2}, "noise"),
            ("ldp", {"H": 0.7, "n": 16, "grid": {"N": 8}, "event": 3}, "event"),
            ("ldp", {"H": 0.7, "n": 16, "grid": {"N": 8}, "optimizer": [1]}, "optimizer"),
            ("skeleton", {"H": 0.7, "n": 16, "grid": {"N": 8}, "control": "x"}, "control"),
        ],
        ids=["grid", "u0", "nl", "noise", "event", "optimizer", "control"],
    )
    def test_section_that_is_not_an_object(self, tmp_path, capsys, kind, raw, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: $.{key}: expected an object")

    def test_readme_fbm_example_reruns_from_its_manifest(self, tmp_path):
        cfg = tmp_path / "fbm.json"
        cfg.write_text(json.dumps(README_FBM))
        assert main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest.json"
        assert json.loads(manifest.read_text())["version"] == __version__
        assert main(["fbm", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b")) == ["manifest.json", "paths.csv"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, literal):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"kind": "solve", "T": {literal}, "n": 4}}')
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: $.T: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "raw, key",
        [({"grid": {"L": 5.99e306}}, "grid.L"), ({"grid": {"d": 2, "L": 1e200}}, "grid.L"),
         ({"grid": {"N": 16}, "u0": {"type": "plane", "mode": 5.7e307}}, "u0.mode"),
         ({"grid": {"N": 16}, "u0": {"type": "plane", "mode": -9}}, "u0.mode"),
         ({"T": 1e308, "grid": {"N": 8}, "u0": {"type": "gaussian"}}, "T")],
        ids=["L-past-coordinates", "L-d2", "mode-huge", "mode-past-nyquist", "T-past-phases"],
    )
    def test_grid_the_floats_cannot_hold_is_a_config_error(self, tmp_path, capsys, raw, key):
        # an L whose coordinates overflow, a plane wave past the grid's
        # wavenumbers, or a T whose free-flow phases overflow, is refused
        # before any field is built
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 4, **raw}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: $.{key}: ")
        assert not (tmp_path / "o").exists()

    def test_plane_wave_at_the_nyquist_mode_runs(self):
        cfg = parse_config(json.dumps({"kind": "solve", "grid": {"N": 16, "L": 1e12},
                                       "u0": {"type": "plane", "mode": -8}}))
        assert np.isfinite(cfg["_u0"].values).all()

    def test_private_key_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"H": 0.7, "n": 8, "replicates": 2, "_spec": 1}')
        assert main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: $._spec: unknown key")

    @pytest.mark.parametrize(
        "kind, raw, key",
        [("solve", {"H": "x"}, "H"),
         ("solve", {"eps": 0.0, "noise": {"alpha": 0.3}}, "noise"),
         ("holder", {"source": "fbm", "H": 0.6, "grid": {"N": 8}}, "grid")],
        ids=["noiseless-solve-H", "noiseless-solve-noise", "fbm-holder-grid"],
    )
    def test_key_that_does_not_apply_is_a_config_error(self, tmp_path, capsys, kind, raw, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: $.{key}: does not apply")

    def test_out_key_in_the_config_is_read(self, tmp_path):
        raw = {"H": 0.6, "n": 8, "replicates": 2, "out": str(tmp_path / "o")}
        assert parse_config(json.dumps({"kind": "fbm", **raw}))["_out"] == raw["out"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main(["fbm", "--config", str(cfg)]) == 0
        assert "out" not in json.loads((tmp_path / "o" / "manifest.json").read_text())

    @pytest.mark.parametrize("value", [5, ["o"], None], ids=["int", "list", "null"])
    def test_out_that_is_not_a_string_is_a_config_error(self, tmp_path, capsys, value):
        raw = {"kind": "fbm", "H": 0.5, "out": value}
        with pytest.raises(ConfigError, match=r"^\$\.out: expected a string"):
            parse_config(json.dumps(raw))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: $.out: expected a string")
        assert not (tmp_path / "o").exists()

    def test_other_version_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"H": 0.7, "n": 8, "replicates": 2, "version": "0.0.1"}')
        assert main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: $.version: ")

    def test_oversized_optimizer_basis_is_a_config_error(self, tmp_path, capsys):
        # 64 modes x 9 splines = 576 coefficients, past the optimizer's 512:
        # refused while the config resolves, not after the Monte Carlo ladder
        cfg = tmp_path / "c.json"
        cfg.write_text('{"H": 0.7, "optimizer": {"enabled": true, "n_splines": 9}}')
        assert main(["ldp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == ("config error: $.optimizer.n_splines: control basis of 64 modes x 9 splines "
                                           "= 576 coefficients exceeds the optimizer's limit 512\n")
        assert not (tmp_path / "o").exists()

    def test_oracle_suite_runs_clean(self, tmp_path):
        assert main(["oracle-suite", "--out", str(tmp_path / "oracle")]) == 0
        rep = json.loads((tmp_path / "oracle" / "oracle_report.json").read_text())
        assert rep["failed"] == 0
        assert [r["oracle"] for r in rep["oracles"]] == ORACLE_NAMES
        assert rep["total"] == len(ORACLE_NAMES)


def test_readme_examples_are_the_tested_configs():
    # each ``cat > <kind>.json <<'EOF'`` heredoc of the README, as JSON
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        text = fh.read()
    examples = {kind: json.loads(body)
                for kind, body in re.findall(r"cat > (\w+)\.json <<'EOF'\n(.*?)\nEOF\n", text, re.S)}
    assert examples == {"fbm": README_FBM, "ldp": {k: v for k, v in README_LDP.items() if k != "kind"}}


# Resolves and runs each config of argv[1] in turn under argv[2], and prints
# the modules loaded after the import, then after each resolve and run.
IMPORT_PROBE = """
import json, sys
import fracnls.cli as cli
seen = [sorted(sys.modules)]
for i, raw in enumerate(json.loads(sys.argv[1])):
    cfg = cli.parse_config(json.dumps(raw))
    seen.append(sorted(sys.modules))
    cli.run(cfg, f"{sys.argv[2]}/{i}")
    seen.append(sorted(sys.modules))
print(json.dumps(seen))
"""

# The noisy kinds among them draw their increments from H alone, the oracle
# suite's references (c_H, the Beta weight and the closed-form kernel) use the
# stdlib gamma, and the optimizer builds its spline basis and minimizes on
# numpy alone.
LDP_OPTIMIZER = {**README_LDP, "replicates": 200, "optimizer": {"enabled": True, "n_splines": 4, "budget": 100}}
NUMPY_ONLY_CONFIGS = [
    KIND_CONFIGS["fbm"],
    {"kind": "holder", "H": 0.6, "source": "fbm", "n": 1024, "replicates": 2},
    {"kind": "solve", "T": 0.25, "n": 16, "grid": {"N": 16}, "u0": {"type": "plane", "mode": 2}},
    *(KIND_CONFIGS[kind] for kind in ("convolve", "solve", "skeleton", "support", "holder", "oracle-suite")),
    {**README_LDP, "replicates": 200},
    LDP_OPTIMIZER,
]


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # numpy is the one runtime dependency: no kind loads a scipy module at
    # import, while its config resolves or while it runs
    src = os.path.dirname(os.path.dirname(fracnls.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def probe(name: str, configs: list) -> list:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(configs), str(tmp_path / name)],
                             env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    def scipy_modules(modules: list) -> list:
        return [m for m in modules if m.split(".")[0] == "scipy"]

    seen = probe("numpy-only", NUMPY_ONLY_CONFIGS)
    assert [scipy_modules(modules) for modules in seen] == [[]] * (1 + 2 * len(NUMPY_ONLY_CONFIGS))
    for kind, raw in {**KIND_CONFIGS, "ldp": LDP_OPTIMIZER}.items():
        imported, resolved, ran = probe(kind, [raw])
        assert (scipy_modules(imported), scipy_modules(resolved), scipy_modules(ran)) == ([], [], []), kind
        if kind == "oracle-suite":
            # the suite's set-up loads the numpy submodules its samplers call
            assert ran == resolved
