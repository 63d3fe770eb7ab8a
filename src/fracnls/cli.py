"""Command-line runner: JSON configs in, CSV/JSON artifacts out.

Every experiment validates its configuration up front (unknown keys are
rejected, domain rules produce targeted messages), runs deterministically
from counter-based seeds, and writes outputs atomically together with a
manifest echoing the fully resolved configuration.

Exit codes: 0 success, 1 validation error, 2 invariant failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import ConfigError, InvariantViolation
from .fbm import (
    HurstKernel,
    TimeGrid,
    build_covariance_matrix,
    covariance_from_kernel,
    duality_pairing,
    kernel_eval,
    kernel_eval_grid,
    kernel_time_derivative,
    normalization_constant,
    rkhs_inner_product,
    sample_fbm_exact,
    sample_fbm_fast,
    apply_kt_star,
    fbm_covariance,
)
from .field import (
    ComplexField,
    GridSpec,
    group_deviation_norm,
    hamiltonian,
    l2_norm,
    mass,
)
from .noise import (
    _DENSE_LIMIT,
    Control,
    ConvolutionSampler,
    CorrelationSpec,
    build_correlation,
    build_L,
    build_Q,
    gaussian_rate,
    verify_factorization,
)
from .solver import NonlinearitySpec, SolverConfig, solve_mild, solve_skeleton
from .ldp import EventSpec, LdpLab, holder_exponent, support_distance
from .fbm import replicate_stream

EXPERIMENT_KINDS = (
    "fbm",
    "convolve",
    "solve",
    "skeleton",
    "ldp",
    "holder",
    "support",
    "oracle-suite",
)

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _require_hurst(value, path):
    if not isinstance(value, (int, float)) or not 0.0 < float(value) < 1.0:
        raise ConfigError(f"{path}: H must lie in (0,1), got {value!r}")
    return float(value)


def _require_number(value, path, lo=None, hi=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    v = int(value) if integer else float(value)
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {v}")
    return v


def _require_choice(value, path, choices):
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _reject_unknown(cfg: dict, known, path):
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")


def _grid_config(cfg: dict, path: str, defaults=(1, 8, math.pi)) -> GridSpec:
    cfg = dict(cfg or {})
    _reject_unknown(cfg, {"d", "N", "L"}, path)
    d = _require_number(cfg.get("d", defaults[0]), f"{path}.d", lo=1, hi=2, integer=True)
    N = _require_number(cfg.get("N", defaults[1]), f"{path}.N", lo=8, integer=True)
    L = _require_number(cfg.get("L", defaults[2]), f"{path}.L", lo=1e-12)
    try:
        return GridSpec(d=d, N=N, L=L)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _nl_config(cfg: dict, path: str) -> NonlinearitySpec | None:
    if cfg is None:
        return None
    cfg = dict(cfg)
    _reject_unknown(cfg, {"kind", "lam", "sigma", "kappa"}, path)
    kind = _require_choice(cfg.get("kind", "kerr"), f"{path}.kind", {"kerr", "saturated"})
    lam = _require_number(cfg.get("lam", -1.0), f"{path}.lam")
    sigma = _require_number(cfg.get("sigma", 1.0), f"{path}.sigma", lo=1e-12)
    kappa = _require_number(cfg.get("kappa", 1.0 if kind == "saturated" else 0.0), f"{path}.kappa", lo=0.0)
    try:
        return NonlinearitySpec(kind=kind, lam=lam, sigma=sigma, kappa=kappa)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _u0_config(cfg: dict, path: str, grid: GridSpec) -> ComplexField:
    cfg = dict(cfg or {"type": "zero"})
    _reject_unknown(cfg, {"type", "amplitude", "width", "mode"}, path)
    kind = _require_choice(cfg.get("type", "zero"), f"{path}.type", {"zero", "gaussian", "plane"})
    amp = _require_number(cfg.get("amplitude", 1.0), f"{path}.amplitude")
    if kind == "zero":
        return ComplexField.zero(grid)
    if kind == "gaussian":
        width = _require_number(cfg.get("width", 1.0), f"{path}.width", lo=1e-12)
        mesh = np.meshgrid(*grid.coordinates, indexing="ij")
        r2 = sum(x * x for x in mesh)
        return ComplexField(grid, amp * np.exp(-r2 / (2.0 * width**2)).astype(complex))
    mode = _require_number(cfg.get("mode", 1), f"{path}.mode", integer=True)
    mesh = np.meshgrid(*grid.coordinates, indexing="ij")
    phase = sum((math.pi * mode / grid.L) * x for x in mesh)
    return ComplexField(grid, amp * np.exp(1j * phase))


def _correlation_config(cfg: dict, path: str, grid: GridSpec, H: float) -> CorrelationSpec:
    cfg = dict(cfg or {})
    _reject_unknown(cfg, {"alpha", "r", "eigenvalues"}, path)
    if "eigenvalues" in cfg:
        ev = np.asarray(cfg["eigenvalues"], dtype=float)
        alpha = _require_number(cfg.get("alpha", 0.2), f"{path}.alpha")
        r = _require_number(cfg.get("r", 0.0), f"{path}.r")
        try:
            return CorrelationSpec(grid=grid, eigenvalues=ev, r=r, alpha=alpha)
        except ValueError as exc:
            raise ConfigError(f"{path}.eigenvalues: {exc}") from exc
    alpha = _require_number(cfg.get("alpha", 0.25 if H >= 0.5 else 0.75 - H), f"{path}.alpha")
    r = _require_number(cfg.get("r", 4.0), f"{path}.r")
    return build_correlation(grid, r, H, alpha)  # raises ConfigError on bad windows


def parse_config(text: str) -> dict:
    """Validate a JSON config document and fill defaults.

    Returns the resolved configuration dictionary; raises
    :class:`ConfigError` with the offending JSON path on violations.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$: config must be a JSON object")
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"$.kind: expected one of {EXPERIMENT_KINDS}, got {kind!r}")
    resolved = _VALIDATORS[kind](raw)
    resolved["kind"] = kind
    resolved["seed"] = _require_number(raw.get("seed", 0), "$.seed", lo=0, integer=True)
    return resolved


def _common_keys():
    return {"kind", "seed", "out"}


def _validate_fbm(raw: dict) -> dict:
    _reject_unknown(raw, _common_keys() | {"H", "T", "n", "replicates", "sampler"}, "$")
    if "H" not in raw:
        raise ConfigError("$.H: required")
    return {
        "H": _require_hurst(raw["H"], "$.H"),
        "T": _require_number(raw.get("T", 1.0), "$.T", lo=1e-12),
        "n": _require_number(raw.get("n", 256), "$.n", lo=1, integer=True),
        "replicates": _require_number(raw.get("replicates", 1000), "$.replicates", lo=1, integer=True),
        "sampler": _require_choice(raw.get("sampler", "exact"), "$.sampler", {"exact", "fast"}),
    }


def _validate_convolve(raw: dict) -> dict:
    _reject_unknown(raw, _common_keys() | {"H", "T", "n", "grid", "noise", "snapshot_every"}, "$")
    if "H" not in raw:
        raise ConfigError("$.H: required")
    H = _require_hurst(raw["H"], "$.H")
    grid = _grid_config(raw.get("grid"), "$.grid")
    spec = _correlation_config(raw.get("noise"), "$.noise", grid, H)
    return {
        "H": H,
        "T": _require_number(raw.get("T", 1.0), "$.T", lo=1e-12),
        "n": _require_number(raw.get("n", 64), "$.n", lo=1, integer=True),
        "grid": {"d": grid.d, "N": grid.N, "L": grid.L},
        "noise": {"alpha": spec.alpha, "r": spec.r},
        "snapshot_every": _require_number(raw.get("snapshot_every", 1), "$.snapshot_every", lo=1, integer=True),
        "_grid": grid,
        "_spec": spec,
    }


def _validate_solve(raw: dict, extra_keys=frozenset(), skeleton: bool = False) -> dict:
    keys = _common_keys() | {
        "H", "T", "n", "grid", "nl", "u0", "eps", "noise", "threshold", "snapshot_every",
    } | extra_keys
    _reject_unknown(raw, keys, "$")
    eps = _require_number(raw.get("eps", 0.0), "$.eps", lo=0.0)
    grid = _grid_config(raw.get("grid"), "$.grid", defaults=(1, 64, math.pi))
    out = {
        "T": _require_number(raw.get("T", 1.0), "$.T", lo=1e-12),
        "n": _require_number(raw.get("n", 1000), "$.n", lo=1, integer=True),
        "grid": {"d": grid.d, "N": grid.N, "L": grid.L},
        "eps": eps,
        "snapshot_every": _require_number(raw.get("snapshot_every", 0), "$.snapshot_every", lo=0, integer=True),
        "_grid": grid,
    }
    out["_nl"] = _nl_config(raw.get("nl", {"kind": "kerr", "lam": -1.0, "sigma": 1.0}), "$.nl")
    if out["_nl"] is None:
        out["nl"] = None  # linear run, no nonlinearity
    else:
        out["nl"] = {
            "kind": out["_nl"].kind, "lam": out["_nl"].lam,
            "sigma": out["_nl"].sigma, "kappa": out["_nl"].kappa,
        }
    out["_u0"] = _u0_config(raw.get("u0"), "$.u0", grid)
    u0_raw = dict(raw.get("u0") or {"type": "zero"})
    u0_raw.setdefault("type", "zero")
    if u0_raw["type"] != "zero":
        u0_raw.setdefault("amplitude", 1.0)
    if u0_raw["type"] == "gaussian":
        u0_raw.setdefault("width", 1.0)
    if u0_raw["type"] == "plane":
        u0_raw.setdefault("mode", 1)
    out["u0"] = u0_raw
    if raw.get("threshold") is not None:
        out["threshold"] = _require_number(raw["threshold"], "$.threshold", lo=1e-12)
    else:
        out["threshold"] = None
    needs_noise = eps > 0.0 or skeleton
    if needs_noise:
        if "H" not in raw:
            raise ConfigError("$.H: required when noise is active")
        H = _require_hurst(raw["H"], "$.H")
        spec = _correlation_config(raw.get("noise"), "$.noise", grid, H)
        out["H"] = H
        out["noise"] = {"alpha": spec.alpha, "r": spec.r}
        out["_spec"] = spec
    return out


def _validate_skeleton(raw: dict) -> dict:
    out = _validate_solve(raw, extra_keys={"control"}, skeleton=True)
    ctl = dict(raw.get("control") or {})
    _reject_unknown(ctl, {"type", "scale", "seed"}, "$.control")
    out["control"] = {
        "type": _require_choice(ctl.get("type", "random"), "$.control.type", {"zero", "random"}),
        "scale": _require_number(ctl.get("scale", 1.0), "$.control.scale"),
        "seed": _require_number(ctl.get("seed", 0), "$.control.seed", lo=0, integer=True),
    }
    if out["n"] > _DENSE_LIMIT:
        raise ConfigError("$.n: skeleton runs use the dense response operator; need n <= 64")
    return out


def _validate_ldp(raw: dict) -> dict:
    out = _validate_solve(raw, extra_keys={"event", "eps_ladder", "replicates", "optimizer"}, skeleton=True)
    ev = dict(raw.get("event") or {})
    _reject_unknown(ev, {"kind", "threshold", "sobolev_index"}, "$.event")
    kind = _require_choice(
        ev.get("kind", "terminal-ball-exit"),
        "$.event.kind",
        {"terminal-ball-exit", "sup-norm-exceed", "blow-up-before-T"},
    )
    out["event"] = {
        "kind": kind,
        "threshold": _require_number(ev.get("threshold", 1.0), "$.event.threshold", lo=0.0),
        "sobolev_index": _require_number(ev.get("sobolev_index", 0.0), "$.event.sobolev_index", lo=0.0),
    }
    ladder = raw.get("eps_ladder", [0.25, 0.16, 0.09, 0.04])
    if not isinstance(ladder, list) or not ladder:
        raise ConfigError("$.eps_ladder: expected a nonempty list")
    out["eps_ladder"] = [
        _require_number(e, f"$.eps_ladder[{i}]", lo=1e-12) for i, e in enumerate(ladder)
    ]
    out["replicates"] = _require_number(raw.get("replicates", 2000), "$.replicates", lo=100, integer=True)
    opt = dict(raw.get("optimizer") or {})
    _reject_unknown(opt, {"enabled", "n_splines", "budget"}, "$.optimizer")
    out["optimizer"] = {
        "enabled": bool(opt.get("enabled", False)),
        "n_splines": _require_number(opt.get("n_splines", 8), "$.optimizer.n_splines", lo=4, integer=True),
        "budget": _require_number(opt.get("budget", 4000), "$.optimizer.budget", lo=100, integer=True),
    }
    if out["n"] > _DENSE_LIMIT:
        raise ConfigError("$.n: rate computations use the dense response operator; need n <= 64")
    return out


def _validate_holder(raw: dict) -> dict:
    _reject_unknown(raw, _common_keys() | {"source", "H", "T", "n", "grid", "noise", "replicates"}, "$")
    if "H" not in raw:
        raise ConfigError("$.H: required")
    H = _require_hurst(raw["H"], "$.H")
    source = _require_choice(raw.get("source", "fbm"), "$.source", {"fbm", "convolution"})
    out = {
        "source": source,
        "H": H,
        "T": _require_number(raw.get("T", 1.0), "$.T", lo=1e-12),
        "n": _require_number(raw.get("n", 2**14 if source == "fbm" else 2**10), "$.n", lo=2**10, integer=True),
        "replicates": _require_number(raw.get("replicates", 1), "$.replicates", lo=1, integer=True),
    }
    if source == "convolution":
        grid = _grid_config(raw.get("grid"), "$.grid")
        spec = _correlation_config(raw.get("noise"), "$.noise", grid, H)
        out["grid"] = {"d": grid.d, "N": grid.N, "L": grid.L}
        out["noise"] = {"alpha": spec.alpha, "r": spec.r}
        out["_grid"], out["_spec"] = grid, spec
    return out


def _validate_support(raw: dict) -> dict:
    out = _validate_solve(raw, extra_keys={"samples", "family_sizes", "control_scale"}, skeleton=True)
    out["samples"] = _require_number(raw.get("samples", 50), "$.samples", lo=2, integer=True)
    sizes = raw.get("family_sizes", [8, 64])
    if not isinstance(sizes, list) or len(sizes) < 2 or sorted(sizes) != sizes:
        raise ConfigError("$.family_sizes: expected an increasing list of at least two sizes")
    out["family_sizes"] = [
        _require_number(s, f"$.family_sizes[{i}]", lo=1, integer=True) for i, s in enumerate(sizes)
    ]
    out["control_scale"] = _require_number(raw.get("control_scale", 1.0), "$.control_scale")
    if out["n"] > _DENSE_LIMIT:
        raise ConfigError("$.n: support runs use the dense response operator; need n <= 64")
    return out


def _validate_oracle(raw: dict) -> dict:
    _reject_unknown(raw, _common_keys(), "$")
    return {}


_VALIDATORS = {
    "fbm": _validate_fbm,
    "convolve": _validate_convolve,
    "solve": lambda raw: _validate_solve(raw),
    "skeleton": _validate_skeleton,
    "ldp": _validate_ldp,
    "holder": _validate_holder,
    "support": _validate_support,
    "oracle-suite": _validate_oracle,
}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_pathset_csv(path: str, ps) -> None:
    header = [_FLOAT_FMT % t for t in ps.grid.points]
    write_csv(path, header, ps.values.tolist())


def write_field_csv(path: str, field: ComplexField) -> None:
    g = field.grid
    rows = []
    if g.d == 1:
        x = g.coordinates[0]
        for i in range(g.N):
            rows.append([i, float(x[i]), float(field.values[i].real), float(field.values[i].imag)])
        write_csv(path, ["index", "x", "re", "im"], rows)
    else:
        x, y = g.coordinates
        for i in range(g.N):
            for j in range(g.N):
                rows.append(
                    [i, j, float(x[i]), float(y[j]),
                     float(field.values[i, j].real), float(field.values[i, j].imag)]
                )
        write_csv(path, ["ix", "iy", "x", "y", "re", "im"], rows)


def _manifest(cfg: dict, out_dir: str) -> None:
    public = {k: v for k, v in cfg.items() if not k.startswith("_")}
    public["version"] = __version__
    write_json(os.path.join(out_dir, "manifest.json"), public)


def _trajectory_outputs(traj, nl, out_dir: str, snapshot_every: int) -> None:
    rows = []
    for k, t in enumerate(traj.times):
        f = traj.fields[k]
        if f is None:
            rows.append([float(t), math.nan, math.nan, math.nan, 1])
            continue
        lam = nl.lam if nl is not None else -1.0
        sig = nl.sigma if nl is not None else 1.0
        rows.append(
            [float(t), mass(f), float(traj.h1_norms[k]), hamiltonian(f, lam, sig), 0]
        )
    write_csv(os.path.join(out_dir, "diagnostics.csv"),
              ["t", "mass", "h1_norm", "hamiltonian", "cemetery"], rows)
    if snapshot_every > 0:
        for k in range(0, len(traj.fields), snapshot_every):
            if traj.fields[k] is None:
                break  # no fields exist past the cemetery
            write_field_csv(os.path.join(out_dir, f"field_{k:06d}.csv"), traj.fields[k])
    write_json(
        os.path.join(out_dir, "trajectory.json"),
        {
            "blowup_time": None if not traj.blown_up else traj.blowup_time,
            "cemetery_index": traj.cemetery_index,
            "epsilon": traj.epsilon,
        },
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_fbm(cfg: dict, out_dir: str) -> int:
    grid = TimeGrid(cfg["T"], cfg["n"])
    sampler = sample_fbm_exact if cfg["sampler"] == "exact" else sample_fbm_fast
    ps = sampler(cfg["H"], grid, cfg["replicates"], cfg["seed"])
    write_pathset_csv(os.path.join(out_dir, "paths.csv"), ps)
    return 0


def _run_convolve(cfg: dict, out_dir: str) -> int:
    tg = TimeGrid(cfg["T"], cfg["n"])
    kern = HurstKernel(cfg["H"])
    sampler = ConvolutionSampler(cfg["_spec"], kern, tg)
    path = sampler.sample(cfg["seed"], 0)
    rows = [
        [float(tg.points[k]), float(np.sqrt((np.abs(path.mode_paths[k]) ** 2).sum()))]
        for k in range(tg.n + 1)
    ]
    write_csv(os.path.join(out_dir, "l2_norms.csv"), ["t", "l2_norm"], rows)
    for k in range(0, tg.n + 1, cfg["snapshot_every"]):
        write_field_csv(os.path.join(out_dir, f"field_{k:06d}.csv"), path.field(k))
    return 0


def _solver_pieces(cfg: dict):
    scfg = SolverConfig(T=cfg["T"], n_steps=cfg["n"], blowup_threshold=cfg["threshold"])
    forcing = None
    if cfg["eps"] > 0.0:
        kern = HurstKernel(cfg["H"])
        tg = TimeGrid(cfg["T"], cfg["n"])
        forcing = ConvolutionSampler(cfg["_spec"], kern, tg).sample(cfg["seed"], 0)
    return scfg, forcing


def _run_solve(cfg: dict, out_dir: str) -> int:
    scfg, forcing = _solver_pieces(cfg)
    traj = solve_mild(cfg["_u0"], cfg["_nl"], forcing, cfg["eps"], scfg)
    _trajectory_outputs(traj, cfg["_nl"], out_dir, cfg["snapshot_every"])
    return 0


def _run_skeleton(cfg: dict, out_dir: str) -> int:
    scfg = SolverConfig(T=cfg["T"], n_steps=cfg["n"], blowup_threshold=cfg["threshold"])
    kern = HurstKernel(cfg["H"])
    tg = TimeGrid(cfg["T"], cfg["n"])
    L = build_L(cfg["_spec"], kern, tg)
    n_modes = cfg["_grid"].mode_count
    if cfg["control"]["type"] == "zero":
        h = Control.zero(n_modes, tg)
    else:
        z = replicate_stream(cfg["control"]["seed"], 0).standard_normal((n_modes, tg.n))
        h = Control(values=cfg["control"]["scale"] * z, tg=tg)
    traj = solve_skeleton(cfg["_u0"], h, cfg["_nl"], scfg, L)
    _trajectory_outputs(traj, cfg["_nl"], out_dir, cfg["snapshot_every"])
    rows = [[float(tg.midpoints[m])] + [float(v) for v in h.values[:, m]] for m in range(tg.n)]
    write_csv(
        os.path.join(out_dir, "control.csv"),
        ["s"] + [f"mode_{j}" for j in range(n_modes)],
        rows,
    )
    return 0


def _run_ldp(cfg: dict, out_dir: str) -> int:
    scfg = SolverConfig(T=cfg["T"], n_steps=cfg["n"], blowup_threshold=cfg["threshold"])
    kern = HurstKernel(cfg["H"])
    lab = LdpLab(cfg["_u0"], cfg["_nl"], cfg["_spec"], kern, scfg)
    ev = EventSpec(
        kind=cfg["event"]["kind"],
        threshold=cfg["event"]["threshold"],
        sobolev_index=cfg["event"]["sobolev_index"],
    )
    report = lab.rate_ladder(ev, cfg["eps_ladder"], cfg["replicates"], cfg["seed"])
    if ev.kind == "terminal-ball-exit" and cfg["_nl"] is None:
        report.pinv_rate = lab.pinv_terminal_rate(ev.threshold)[0]
    if cfg["optimizer"]["enabled"]:
        res = lab.minimize_rate(
            ev, n_splines=cfg["optimizer"]["n_splines"], budget=cfg["optimizer"]["budget"]
        )
        report.variational_bound = res.rate if res.feasible else None
    write_json(os.path.join(out_dir, "rate_report.json"), report.to_dict())
    rows = [
        [eps, p, lo, hi, -eps * math.log(p) if p > 0 else math.inf]
        for eps, p, lo, hi in zip(report.eps_ladder, report.p_hats, report.ci_lo, report.ci_hi)
    ]
    write_csv(os.path.join(out_dir, "ladder.csv"),
              ["eps", "p_hat", "ci_lo", "ci_hi", "minus_eps_log_p"], rows)
    return 0


def _run_holder(cfg: dict, out_dir: str) -> int:
    reports = []
    if cfg["source"] == "fbm":
        grid = TimeGrid(cfg["T"], cfg["n"])
        ps = sample_fbm_fast(cfg["H"], grid, cfg["replicates"], cfg["seed"])
        for i in range(cfg["replicates"]):
            reports.append(holder_exponent(ps.values[i]).to_dict())
    else:
        kern = HurstKernel(cfg["H"])
        tg = TimeGrid(cfg["T"], cfg["n"])
        sampler = ConvolutionSampler(cfg["_spec"], kern, tg)
        w = 1.0 + cfg["_grid"].xi_squared.reshape(-1)
        for i in range(cfg["replicates"]):
            paths = sampler.sample_mode_paths(cfg["seed"], i)
            reports.append(holder_exponent(paths, weights=w).to_dict())
    write_json(os.path.join(out_dir, "holder_report.json"), {"H": cfg["H"], "reports": reports})
    return 0


def _run_support(cfg: dict, out_dir: str) -> int:
    scfg = SolverConfig(T=cfg["T"], n_steps=cfg["n"], blowup_threshold=cfg["threshold"])
    kern = HurstKernel(cfg["H"])
    lab = LdpLab(cfg["_u0"], cfg["_nl"], cfg["_spec"], kern, scfg)
    samples = [lab.sample_trajectory(1.0, cfg["seed"], i) for i in range(cfg["samples"])]
    n_modes = cfg["_grid"].mode_count
    biggest = cfg["family_sizes"][-1]
    family = []
    for i in range(biggest):
        z = replicate_stream(cfg["seed"] + 7_777, i).standard_normal((n_modes, cfg["n"]))
        h = Control(values=cfg["control_scale"] * z, tg=lab.tg)
        family.append(solve_skeleton(cfg["_u0"], h, cfg["_nl"], scfg, lab.L))
    medians = []
    for size in cfg["family_sizes"]:
        med, _ = support_distance(samples, family[:size])
        medians.append(med)
    monotone = all(medians[i + 1] <= medians[i] + 1e-12 for i in range(len(medians) - 1))
    write_json(
        os.path.join(out_dir, "support.json"),
        {"family_sizes": cfg["family_sizes"], "medians": medians, "monotone": monotone},
    )
    write_csv(os.path.join(out_dir, "support.csv"), ["family_size", "median_distance"],
              list(zip(cfg["family_sizes"], medians)))
    if not monotone:
        raise InvariantViolation("support proximity did not improve with a larger family")
    return 0


# ---------------------------------------------------------------------------
# Oracle suite: every derived expected value recomputed from scratch
# ---------------------------------------------------------------------------

def _oracle_records(seed: int = 0) -> list[dict]:
    records = []

    def add(name, measured, tolerance, passed):
        records.append(
            {"oracle": name, "measured": float(measured), "tolerance": float(tolerance),
             "passed": bool(passed)}
        )

    # gamma-expression oracle for the normalization constant
    gamma = math.gamma
    for H in (0.25, 0.5, 0.75):
        oracle = math.sqrt(2 * H * gamma(1.5 - H) / (gamma(H + 0.5) * gamma(2 - 2 * H)))
        err = abs(normalization_constant(H) - oracle)
        add(f"normalization-constant-H{H}", err, 1e-12, err <= 1e-12)

    # kernel: two quadrature rules at doubled resolution
    kern = HurstKernel(0.7)
    a = kernel_eval_grid(kern, 1.0, 0.5, order=64)
    b = kernel_eval_grid(kern, 1.0, 0.5, order=128)
    c = kernel_eval(kern, 1.0, 0.5)
    err = max(abs(float(a) - float(b)), abs(float(b) - c))
    add("kernel-two-rule-agreement", err, 1e-8, err <= 1e-8)

    # derivative against central finite differences
    for H in (0.25, 0.75):
        k = HurstKernel(H)
        d = kernel_time_derivative(k, 1.0, 0.5)
        h = 1e-6
        fd = (kernel_eval(k, 1.0 + h, 0.5) - kernel_eval(k, 1.0 - h, 0.5)) / (2 * h)
        rel = abs(d - fd) / abs(fd)
        add(f"kernel-derivative-fd-H{H}", rel, 1e-4, rel <= 1e-4)

    # covariance reconstruction from kernel quadrature
    kern7 = HurstKernel(0.7)
    tg64 = TimeGrid(1.0, 64)
    err = float(np.abs(covariance_from_kernel(kern7, tg64) - build_covariance_matrix(0.7, tg64)).max())
    add("covariance-kernel-quadrature", err, 1e-3, err <= 1e-3)

    # exact sampler variance against the analytic law (4 standard errors)
    reps = 3000
    ps = sample_fbm_exact(0.7, tg64, reps, seed)
    t = tg64.points[32]
    sample_var = float(ps.values[:, 32].var(ddof=1))
    target = t**1.4
    se = target * math.sqrt(2.0 / (reps - 1))
    add("exact-sampler-variance", abs(sample_var - target), 4 * se, abs(sample_var - target) <= 4 * se)

    # fast sampler distributional equality (two-sample KS, level 0.01)
    from scipy import stats

    tgk = TimeGrid(1.0, 1024)
    pe = sample_fbm_exact(0.7, tgk, 1000, seed + 1)
    pf = sample_fbm_fast(0.7, tgk, 1000, seed + 2)
    pval = float(stats.ks_2samp(pe.values[:, -1], pf.values[:, -1]).pvalue)
    add("fast-vs-exact-ks-pvalue", pval, 0.01, pval > 0.01)

    # duality pairing with independent node sets
    tg16 = TimeGrid(1.0, 16)
    phi = np.zeros(16)
    phi[:8] = 1.0
    lhs, rhs = duality_pairing(kern7, phi, np.ones(16), tg16)
    add("duality-indicator", abs(lhs - rhs), 1e-6, abs(lhs - rhs) <= 1e-6)
    mid = tg16.midpoints
    lhs, rhs = duality_pairing(kern7, 1 + 0.5 * mid - 2 * mid**2, 0.3 - mid, tg16)
    add("duality-polynomial", abs(lhs - rhs), 1e-5, abs(lhs - rhs) <= 1e-5)

    # restriction identity on the grid
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=16)
    restricted = vals.copy()
    restricted[10:] = 0.0
    err = 0.0
    for s in tg16.midpoints[:10]:
        full = apply_kt_star(kern7, restricted, tg16.points, float(s))
        trunc = apply_kt_star(kern7, vals[:10], tg16.points[:11], float(s))
        err = max(err, abs(full - trunc))
    add("restriction-identity", err, 1e-8, err <= 1e-8)

    # energy-space inner product reproduces the covariance
    ind_t = np.zeros(32)
    ind_t[:16] = 1.0
    ind_s = np.zeros(32)
    ind_s[:8] = 1.0
    tg32 = TimeGrid(1.0, 32)
    ip = rkhs_inner_product(kern7, ind_t, ind_s, tg32)
    err = abs(ip - fbm_covariance(0.7, 0.5, 0.25))
    add("rkhs-vs-covariance", err, 1e-4, err <= 1e-4)

    # group deviation bound over the scan
    grid = GridSpec(1, 64, math.pi)
    worst = -1.0
    for gam in np.linspace(0.0, 0.95, 20):
        for t in np.logspace(-2, 0, 20):
            margin = group_deviation_norm(grid, float(gam), float(t)) - 2 ** (1 - gam) * t**gam
            worst = max(worst, margin)
    add("group-deviation-bound-margin", worst, 1e-12, worst <= 1e-12)

    # plane-wave solver error
    x = grid.coordinates[0]
    u0 = ComplexField(grid, 0.8 * np.exp(1j * 2 * x))
    nl = NonlinearitySpec("kerr", 1.0, 1.0)
    traj = solve_mild(u0, nl, None, 0.0, SolverConfig(T=1.0, n_steps=1000))
    omega = 4.0 - 0.8**2
    exact = ComplexField(grid, 0.8 * np.exp(1j * 2 * x) * np.exp(1j * omega))
    err = l2_norm(traj.terminal_field() - exact)
    add("plane-wave-solver", err, 1e-6, err <= 1e-6)

    # covariance factorization at oracle scale
    g8 = GridSpec(1, 8, math.pi)
    ev = np.zeros(8)
    ev[[0, 1, 2, 7]] = [1.0, 0.7, 0.4, 0.7]
    spec = CorrelationSpec(grid=g8, eigenvalues=ev, r=0.0, alpha=0.2)
    tg8 = TimeGrid(1.0, 8)
    L = build_L(spec, kern7, tg8)
    resid = verify_factorization(build_Q(spec, kern7, tg8, method="beta"), L)
    add("q-ll-factorization", resid, 1e-10, resid <= 1e-10)

    # rate of a reachable target is bounded by the generating energy
    h0 = Control(values=rng.normal(size=(8, 8)), tg=tg8)
    f = L.apply(h0)[1:].T
    res = gaussian_rate(L, f)
    gap = res.rate - h0.half_energy
    add("rate-projection-bound", gap, 1e-9, res.feasible and gap <= 1e-9)

    # regularity estimator on a Lipschitz path
    rep = holder_exponent(np.linspace(0.0, 1.0, 2048))
    add("holder-line-path", abs(rep.exponent - 1.0), 0.02, abs(rep.exponent - 1.0) <= 0.02)

    return records


def _run_oracle_suite(cfg: dict, out_dir: str) -> int:
    records = _oracle_records(cfg.get("seed", 0))
    n_failed = sum(not r["passed"] for r in records)
    write_json(
        os.path.join(out_dir, "oracle_report.json"),
        {"oracles": records, "failed": n_failed, "total": len(records)},
    )
    for r in records:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['oracle']}: measured={r['measured']:.3e} tol={r['tolerance']:.3e}")
    if n_failed:
        raise InvariantViolation(f"{n_failed} oracle checks failed")
    return 0


_RUNNERS = {
    "fbm": _run_fbm,
    "convolve": _run_convolve,
    "solve": _run_solve,
    "skeleton": _run_skeleton,
    "ldp": _run_ldp,
    "holder": _run_holder,
    "support": _run_support,
    "oracle-suite": _run_oracle_suite,
}


def run(cfg: dict, out_dir: str) -> int:
    """Execute a validated config; artifacts land in ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _manifest(cfg, out_dir)
    return _RUNNERS[cfg["kind"]](cfg, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracnls",
        description="Numerical experiments for fractional-noise Schrodinger dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            with open(args.config) as fh:
                text = fh.read()
            raw = json.loads(text)
        else:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("$: config must be a JSON object")
        raw["kind"] = args.command
        if args.seed is not None:
            raw["seed"] = args.seed
        out_dir = args.out or raw.get("out")
        if out_dir is None:
            raise ConfigError("$.out: output directory required (config key or --out)")
        raw.pop("out", None)
        cfg = parse_config(json.dumps({k: v for k, v in raw.items() if not k.startswith("_")}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3

    try:
        run(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
