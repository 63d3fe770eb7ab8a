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

from . import __version__, oracles
from .errors import ConfigError, InvariantViolation
from .fbm import (
    HurstKernel,
    TimeGrid,
    replicate_normals,
    replicate_stream,
    sample_fbm_exact,
    sample_fbm_fast,
)
from .field import ComplexField, GridSpec, hamiltonian, mass
from .noise import (
    _DENSE_LIMIT,
    Control,
    ConvolutionSampler,
    CorrelationSpec,
    build_correlation,
    build_L,
)
from .solver import NonlinearitySpec, SolverConfig, solve_mild, solve_skeleton
from .ldp import EventSpec, LdpLab, holder_exponent, support_distance

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


def _section(value, path: str) -> dict:
    """A config section: a JSON object, or null for all its defaults."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return dict(value)


def _grid_config(cfg: dict, path: str, defaults=(1, 8, math.pi)) -> GridSpec:
    cfg = _section(cfg, path)
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
    cfg = _section(cfg, path)
    _reject_unknown(cfg, {"kind", "lam", "sigma", "kappa"}, path)
    kind = _require_choice(cfg.get("kind", "kerr"), f"{path}.kind", {"kerr", "saturated"})
    lam = _require_number(cfg.get("lam", -1.0), f"{path}.lam")
    sigma = _require_number(cfg.get("sigma", 1.0), f"{path}.sigma", lo=1e-12)
    kappa = _require_number(cfg.get("kappa", 1.0 if kind == "saturated" else 0.0), f"{path}.kappa", lo=0.0)
    try:
        return NonlinearitySpec(kind=kind, lam=lam, sigma=sigma, kappa=kappa)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _u0_config(cfg: dict, path: str, grid: GridSpec) -> tuple[ComplexField, dict]:
    """Initial datum and the resolved config it was built from."""
    cfg = _section(cfg, path)
    _reject_unknown(cfg, {"type", "amplitude", "width", "mode"}, path)
    kind = _require_choice(cfg.setdefault("type", "zero"), f"{path}.type", {"zero", "gaussian", "plane"})
    if kind != "zero":
        cfg.setdefault("amplitude", 1.0)
    amp = _require_number(cfg.get("amplitude", 1.0), f"{path}.amplitude")
    if kind == "zero":
        return ComplexField.zero(grid), cfg
    mesh = np.meshgrid(*grid.coordinates, indexing="ij")
    if kind == "gaussian":
        width = _require_number(cfg.setdefault("width", 1.0), f"{path}.width", lo=1e-12)
        r2 = sum(x * x for x in mesh)
        return ComplexField(grid, amp * np.exp(-r2 / (2.0 * width**2)).astype(complex)), cfg
    mode = _require_number(cfg.setdefault("mode", 1), f"{path}.mode", integer=True)
    phase = sum((math.pi * mode / grid.L) * x for x in mesh)
    return ComplexField(grid, amp * np.exp(1j * phase)), cfg


def _correlation_config(cfg: dict, path: str, grid: GridSpec, H: float) -> CorrelationSpec:
    cfg = _section(cfg, path)
    _reject_unknown(cfg, {"alpha", "r", "eigenvalues"}, path)
    if "eigenvalues" in cfg:
        try:
            ev = np.asarray(cfg["eigenvalues"])
        except ValueError as exc:  # ragged nesting
            raise ConfigError(f"{path}.eigenvalues: {exc}") from exc
        if ev.dtype.kind not in "iuf":
            raise ConfigError(f"{path}.eigenvalues: expected numbers, got {cfg['eigenvalues']!r}")
        alpha = _require_number(cfg.get("alpha", 0.2), f"{path}.alpha")
        r = _require_number(cfg.get("r", 0.0), f"{path}.r")
        try:
            return CorrelationSpec(grid=grid, eigenvalues=ev, r=r, alpha=alpha)
        except ValueError as exc:
            raise ConfigError(f"{path}.eigenvalues: {exc}") from exc
    alpha = _require_number(cfg.get("alpha", 0.25 if H >= 0.5 else 0.75 - H), f"{path}.alpha")
    r = _require_number(cfg.get("r", 4.0), f"{path}.r")
    return build_correlation(grid, r, H, alpha)  # raises ConfigError on bad windows


def _load_object(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$: config must be a JSON object")
    return raw


def parse_config(text: str) -> dict:
    """Validate a JSON config document and fill defaults.

    Returns the resolved configuration dictionary; raises
    :class:`ConfigError` with the offending JSON path on violations.
    """
    raw = _load_object(text)
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"$.kind: expected one of {EXPERIMENT_KINDS}, got {kind!r}")
    version = raw.get("version", __version__)
    if version != __version__:
        raise ConfigError(f"$.version: expected {__version__!r}, got {version!r}")
    resolved = _VALIDATORS[kind](raw)
    resolved["kind"] = kind
    resolved["seed"] = _require_number(raw.get("seed", 0), "$.seed", lo=0, integer=True)
    return resolved


def _common_keys():
    return {"kind", "seed", "out", "version"}


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
    out["_u0"], out["u0"] = _u0_config(raw.get("u0"), "$.u0", grid)
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
    ctl = _section(raw.get("control"), "$.control")
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
    ev = _section(raw.get("event"), "$.event")
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
    opt = _section(raw.get("optimizer"), "$.optimizer")
    _reject_unknown(opt, {"enabled", "n_splines", "budget"}, "$.optimizer")
    enabled = opt.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ConfigError(f"$.optimizer.enabled: expected true or false, got {enabled!r}")
    out["optimizer"] = {
        "enabled": enabled,
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
    message = "$.family_sizes: expected an increasing list of at least two sizes"
    if not isinstance(sizes, list) or len(sizes) < 2:
        raise ConfigError(message)
    sizes = [_require_number(s, f"$.family_sizes[{i}]", lo=1, integer=True) for i, s in enumerate(sizes)]
    if sorted(sizes) != sizes:
        raise ConfigError(message)
    out["family_sizes"] = sizes
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


_INDEX_COLUMNS = {1: ["index"], 2: ["ix", "iy"]}


def write_field_csv(path: str, field: ComplexField) -> None:
    """One row per grid point in C order: grid indices, coordinates, Re, Im."""
    g = field.grid
    columns = [
        *np.indices(g.shape).reshape(g.d, -1),
        *np.meshgrid(*g.coordinates, indexing="ij"),
        field.values.real,
        field.values.imag,
    ]
    table = np.column_stack([c.reshape(-1) for c in columns])
    row = ",".join(["%d"] * g.d + [_FLOAT_FMT] * (g.d + 2))
    header = _INDEX_COLUMNS[g.d] + ["x", "y"][: g.d] + ["re", "im"]
    body = "\n".join([row] * g.mode_count) % tuple(table.reshape(-1).tolist())
    atomic_write_text(path, ",".join(header) + "\n" + body + "\n")


def _manifest(cfg: dict, out_dir: str) -> None:
    public = {k: v for k, v in cfg.items() if not k.startswith("_")}
    public["version"] = __version__
    write_json(os.path.join(out_dir, "manifest.json"), public)


def _trajectory_outputs(traj, nl, out_dir: str, snapshot_every: int) -> None:
    lam = nl.lam if nl is not None else -1.0
    sig = nl.sigma if nl is not None else 1.0
    fields = [ComplexField(traj.grid, v) for v in traj.states]
    rows = [
        [float(t), mass(f), float(h1), hamiltonian(f, lam, sig), 0]
        for t, f, h1 in zip(traj.times, fields, traj.h1_norms)
    ]
    rows += [[float(t), math.nan, math.nan, math.nan, 1] for t in traj.times[len(fields):]]
    write_csv(os.path.join(out_dir, "diagnostics.csv"),
              ["t", "mass", "h1_norm", "hamiltonian", "cemetery"], rows)
    if snapshot_every > 0:
        for k in range(0, len(fields), snapshot_every):
            write_field_csv(os.path.join(out_dir, f"field_{k:06d}.csv"), fields[k])
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
    for z in replicate_normals(cfg["seed"] + 7_777, range(biggest), (n_modes, cfg["n"])):
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

def _run_oracle_suite(cfg: dict, out_dir: str) -> int:
    records = oracles.records(cfg.get("seed", 0))
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
        raw = {}
        if args.config is not None:
            with open(args.config) as fh:
                raw = _load_object(fh.read())
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
