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
from collections import ChainMap
from dataclasses import asdict
from typing import Callable, NamedTuple

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
from .field import ComplexField, GridSpec, field_from_modes, hamiltonian, mass
from .noise import (
    _DENSE_LIMIT,
    Control,
    ConvolutionSampler,
    CorrelationSpec,
    build_correlation,
    build_L,
)
from .solver import NONLINEARITY_KINDS, NonlinearitySpec, SolverConfig, solve_mild, solve_skeleton
from .ldp import EVENT_KINDS, EventSpec, LdpLab, holder_exponent, support_distance

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Config schema: one key table per kind, one walker
# ---------------------------------------------------------------------------
#
# A table maps each key a section accepts to a _Key: the check that turns its
# JSON value into the resolved one, its default and when it applies. Defaults
# and ``when`` may be functions of the scope, the keys resolved so far
# (innermost section first); a key whose ``when`` is false is accepted and
# left out of the run. The walker's output, ``version`` included, is the
# public config and the manifest; the run's objects are built from it alone.


class _Required(str):
    """Default of a key that must be given; the text says when."""


class _Key(NamedTuple):
    check: Callable
    default: object = _Required()
    when: Callable | None = None


def _num(lo=None, hi=None, integer=False):
    def check(value, path, scope):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int no float holds
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if integer and int(value) != value:
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        v = int(value) if integer else float(value)
        if lo is not None and v < lo:
            raise ConfigError(f"{path}: must be >= {lo}, got {v}")
        if hi is not None and v > hi:
            raise ConfigError(f"{path}: must be <= {hi}, got {v}")
        return v

    return check


def _int(lo=None, hi=None):
    return _num(lo, hi, integer=True)


def _must(ok, expected: str):
    def check(value, path, scope):
        if not ok(value):
            raise ConfigError(f"{path}: {expected}, got {value!r}")
        return value

    return check


def _choice(*choices):  # a tuple compares, so any JSON value is safe in it
    return _must(lambda v: v in choices, f"expected one of {sorted(choices)}")


_hurst = _must(lambda v: isinstance(v, (int, float)) and 0.0 < v < 1.0, "H must lie in (0,1)")
_flag = _must(lambda v: isinstance(v, bool), "expected true or false")
_version = _must(lambda v: v == __version__, f"expected {__version__!r}")


def _nullable(check):
    return lambda value, path, scope: None if value is None else check(value, path, scope)


def _list(item, message: str, min_len=1, increasing=False):
    def check(value, path, scope):
        if not isinstance(value, list) or len(value) < min_len:
            raise ConfigError(f"{path}: {message}")
        out = [item(v, f"{path}[{i}]", scope) for i, v in enumerate(value)]
        if increasing and sorted(out) != out:
            raise ConfigError(f"{path}: {message}")
        return out

    return check


def _eigenvalues(value, path, scope):
    """Finite numbers, echoed flat (row-major for d = 2)."""
    try:
        ev = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{path}: {exc}") from exc
    if ev.dtype.kind not in "iuf":
        raise ConfigError(f"{path}: expected numbers, got {value!r}")
    if not np.isfinite(ev).all():
        raise ConfigError(f"{path}: expected finite numbers, got {value!r}")
    return ev.astype(float).reshape(-1).tolist()


def _section(table):
    """A nested object, null for all its defaults. ``table`` is a key table or
    a function of the raw object that picks one."""

    def check(value, path, scope):
        if value is None:
            value = {}
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        return _walk(value, table(value) if callable(table) else table, path, scope)

    return check


def _walk(raw: dict, table: dict, path: str, scope: ChainMap) -> dict:
    """Check each key of ``table`` in order, filling defaults, then reject the rest."""
    out: dict = {}
    scope = scope.new_child(out)
    for key, spec in table.items():
        if spec.when is not None and not spec.when(scope):
            continue
        if key in raw:
            value = raw[key]
        elif isinstance(spec.default, _Required):
            raise ConfigError(f"{path}.{key}: required{spec.default}")
        else:
            value = spec.default(scope) if callable(spec.default) else spec.default
        out[key] = spec.check(value, f"{path}.{key}", scope)
    for key in raw:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown key")
    return out


# Kinds that build the dense response operator, as their n message names them.
_DENSE_USERS = {"skeleton": "skeleton runs", "ldp": "rate computations", "support": "support runs"}


def _steps(value, path, scope):
    n = _int(1)(value, path, scope)
    user = _DENSE_USERS.get(scope["kind"])
    if user is not None and n > _DENSE_LIMIT:
        raise ConfigError(f"{path}: {user} use the dense response operator; need n <= {_DENSE_LIMIT}")
    return n


def _grid(N: int, when=None) -> _Key:
    keys = {"d": _Key(_int(1, 2), 1), "N": _Key(_int(8), N), "L": _Key(_num(1e-12), math.pi)}
    return _Key(_section(keys), None, when)


def _noise(when=None) -> _Key:
    """Either the power law {alpha, r} or explicit {eigenvalues}."""
    power_law = {
        "alpha": _Key(_num(), lambda s: 0.25 if s["H"] >= 0.5 else 0.75 - s["H"]),
        "r": _Key(_num(), 4.0),
    }
    explicit = {"eigenvalues": _Key(_eigenvalues)}
    return _Key(_section(lambda raw: explicit if "eigenvalues" in raw else power_law), None, when)


# The u0 parameters each type reads.
_U0 = {
    "zero": {},
    "gaussian": {"amplitude": _Key(_num(), 1.0), "width": _Key(_num(1e-12), 1.0)},
    "plane": {"amplitude": _Key(_num(), 1.0), "mode": _Key(_int(), 1)},
}


def _u0_keys(raw: dict) -> dict:
    params = next((keys for name, keys in _U0.items() if name == raw.get("type", "zero")), {})
    return {"type": _Key(_choice(*_U0), "zero"), **params}


def _noise_active(scope) -> bool:
    return scope["eps"] > 0.0 or scope["kind"] != "solve"


def _convolution(scope) -> bool:
    return scope["source"] == "convolution"


_T = _Key(_num(1e-12), 1.0)
_SOLVE = {
    "eps": _Key(_num(0.0), 0.0),
    "T": _T,
    "n": _Key(_steps, 1000),
    "grid": _grid(64),
    "snapshot_every": _Key(_int(0), 0),
    "nl": _Key(_nullable(_section({
        "kind": _Key(_choice(*NONLINEARITY_KINDS), "kerr"),
        "lam": _Key(_num(), -1.0),
        "sigma": _Key(_num(1e-12), 1.0),
        "kappa": _Key(_num(0.0), lambda s: 1.0 if s["kind"] == "saturated" else 0.0),
    })), {}),
    "u0": _Key(_section(_u0_keys), None),
    "threshold": _Key(_nullable(_num(1e-12)), None),
    "H": _Key(_hurst, _Required(" when noise is active"), _noise_active),
    "noise": _noise(_noise_active),
}
_TABLES = {
    "fbm": {
        "H": _Key(_hurst),
        "T": _T,
        "n": _Key(_int(1), 256),
        "replicates": _Key(_int(1), 1000),
        "sampler": _Key(_choice("exact", "fast"), "exact"),
    },
    "convolve": {
        "H": _Key(_hurst),
        "T": _T,
        "n": _Key(_int(1), 64),
        "grid": _grid(8),
        "noise": _noise(),
        "snapshot_every": _Key(_int(1), 1),
    },
    "solve": _SOLVE,
    "skeleton": {**_SOLVE, "control": _Key(_section({
        "type": _Key(_choice("zero", "random"), "random"),
        "scale": _Key(_num(), 1.0),
        "seed": _Key(_int(0), 0),
    }), None)},
    "ldp": {
        **_SOLVE,
        "event": _Key(_section({
            "kind": _Key(_choice(*EVENT_KINDS), "terminal-ball-exit"),
            "threshold": _Key(_num(0.0), 1.0),
            "sobolev_index": _Key(_num(0.0), 0.0),
        }), None),
        "eps_ladder": _Key(_list(_num(1e-12), "expected a nonempty list"), [0.25, 0.16, 0.09, 0.04]),
        "replicates": _Key(_int(100), 2000),
        "optimizer": _Key(_section({
            "enabled": _Key(_flag, False),
            "n_splines": _Key(_int(4), 8),
            "budget": _Key(_int(100), 4000),
        }), None),
    },
    "holder": {
        "source": _Key(_choice("fbm", "convolution"), "fbm"),
        "H": _Key(_hurst),
        "T": _T,
        "n": _Key(_int(2**10), lambda s: 2**14 if s["source"] == "fbm" else 2**10),
        "replicates": _Key(_int(1), 1),
        "grid": _grid(8, _convolution),
        "noise": _noise(_convolution),
    },
    "support": {
        **_SOLVE,
        "samples": _Key(_int(2), 50),
        "family_sizes": _Key(_list(_int(1), "expected an increasing list of at least two sizes", 2, True),
                             [8, 64]),
        "control_scale": _Key(_num(), 1.0),
    },
    "oracle-suite": {},
}
EXPERIMENT_KINDS = tuple(_TABLES)
_COMMON = {
    "kind": _Key(_choice(*EXPERIMENT_KINDS)),
    "version": _Key(_version, __version__),
    "seed": _Key(_int(0), 0),
    "out": _Key(None, None, lambda s: False),  # the output directory, which main reads
}


def _construct(path: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _initial_datum(grid: GridSpec, u0: dict) -> ComplexField:
    if u0["type"] == "zero":
        return ComplexField.zero(grid)
    mesh = np.meshgrid(*grid.coordinates, indexing="ij")
    if u0["type"] == "gaussian":
        r2 = sum(x * x for x in mesh)
        return ComplexField(grid, u0["amplitude"] * np.exp(-r2 / (2.0 * u0["width"] ** 2)).astype(complex))
    phase = sum((math.pi * u0["mode"] / grid.L) * x for x in mesh)
    return ComplexField(grid, u0["amplitude"] * np.exp(1j * phase))


def _resolve(raw: dict) -> dict:
    """The public config of a loaded object, plus the run's objects under
    ``_``-prefixed keys, each built from its resolved section."""
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"$.kind: expected one of {EXPERIMENT_KINDS}, got {kind!r}")
    cfg = _walk(raw, {**_COMMON, **_TABLES[kind]}, "$", ChainMap())
    if "grid" in cfg:
        grid = cfg["_grid"] = _construct("$.grid", GridSpec, **cfg["grid"])
    if "eigenvalues" in cfg.get("noise", ()):
        cfg["_spec"] = _construct("$.noise.eigenvalues", CorrelationSpec, grid, cfg["noise"]["eigenvalues"])
    elif "noise" in cfg:  # raises ConfigError on bad windows
        cfg["_spec"] = build_correlation(grid, cfg["noise"]["r"], cfg["H"], cfg["noise"]["alpha"])
    if "u0" in cfg:
        cfg["_nl"] = None if cfg["nl"] is None else _construct("$.nl", NonlinearitySpec, **cfg["nl"])
        cfg["_u0"] = _construct("$.u0", _initial_datum, grid, cfg["u0"])
    return cfg


def _load_object(text) -> dict:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and over-long integers
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$: config must be a JSON object")
    return raw


def parse_config(text: str) -> dict:
    """Validate a JSON config document and fill defaults.

    Returns the resolved configuration dictionary; raises
    :class:`ConfigError` with the offending JSON path on violations.
    """
    return _resolve(_load_object(text))


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
    paths = ConvolutionSampler(cfg["_spec"], kern, tg).sample_mode_paths(cfg["seed"], 0)
    rows = [
        [float(tg.points[k]), float(np.sqrt((np.abs(paths[k]) ** 2).sum()))]
        for k in range(tg.n + 1)
    ]
    write_csv(os.path.join(out_dir, "l2_norms.csv"), ["t", "l2_norm"], rows)
    for k in range(0, tg.n + 1, cfg["snapshot_every"]):
        snapshot = field_from_modes(cfg["_grid"], paths[k])
        write_field_csv(os.path.join(out_dir, f"field_{k:06d}.csv"), snapshot)
    return 0


def _solver_pieces(cfg: dict):
    scfg = SolverConfig(T=cfg["T"], n_steps=cfg["n"], blowup_threshold=cfg["threshold"])
    forcing = None
    if cfg["eps"] > 0.0:
        kern = HurstKernel(cfg["H"])
        tg = TimeGrid(cfg["T"], cfg["n"])
        forcing = ConvolutionSampler(cfg["_spec"], kern, tg).sample_mode_paths(cfg["seed"], 0)
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
    write_json(os.path.join(out_dir, "rate_report.json"), asdict(report))
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
            reports.append(asdict(holder_exponent(ps.values[i])))
    else:
        kern = HurstKernel(cfg["H"])
        tg = TimeGrid(cfg["T"], cfg["n"])
        sampler = ConvolutionSampler(cfg["_spec"], kern, tg)
        w = 1.0 + cfg["_grid"].xi_squared.reshape(-1)
        for i in range(cfg["replicates"]):
            paths = sampler.sample_mode_paths(cfg["seed"], i)
            reports.append(asdict(holder_exponent(paths, weights=w)))
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
    records = oracles.records(cfg["seed"])
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
    public = {k: v for k, v in cfg.items() if not k.startswith("_")}
    write_json(os.path.join(out_dir, "manifest.json"), public)
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
            with open(args.config, "rb") as fh:
                raw = _load_object(fh.read())
        raw["kind"] = args.command
        if args.seed is not None:
            raw["seed"] = args.seed
        out_dir = args.out or raw.get("out")
        if not isinstance(out_dir, str):
            raise ConfigError("$.out: output directory required (config key or --out)")
        cfg = _resolve(raw)
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
