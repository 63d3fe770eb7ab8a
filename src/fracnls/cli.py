"""Command-line runner: JSON configs in, CSV/JSON artifacts out.

Every experiment validates its configuration up front (unknown keys are
rejected, domain rules produce targeted messages), runs deterministically
from counter-based seeds, and writes outputs atomically together with a
manifest echoing the fully resolved configuration.

Exit codes: 0 success, 1 validation error, 2 invariant failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
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
from .fbm import HurstKernel, TimeGrid, replicate_normals, replicate_stream, sample_fbm_fast
from .field import ComplexField, GridSpec, field_from_modes, hamiltonian, mass, sobolev_norm
from .noise import _DENSE_LIMIT, ConvolutionSampler, CorrelationSpec
from .noise import build_correlation, replicate_blocks
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
# (innermost section first); a key whose ``when`` is false does not apply and
# must not be given. The walker's output, ``version`` included, is the public
# config and the manifest; the run's objects are built from it alone.


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
_string = _must(lambda v: isinstance(v, str), "expected a string")
# The range of T and of grid.L, within which every kind runs free of overflow
_span = _num(1e-12, 1e12)


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
            if key in raw:
                raise ConfigError(f"{path}.{key}: does not apply to this config")
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


# Kinds that run on one LdpLab, as their n message names them.  They keep the
# dense limit on n: the pseudo-inverse rate reads the dense response matrices,
# and the optimizer's skeleton solves (dim + 1 rows at once) are not bounded by
# a memory rule yet.
_LAB_KINDS = {"skeleton": "skeleton runs", "ldp": "rate computations", "support": "support runs"}


def _steps(value, path, scope):
    n = _int(1)(value, path, scope)
    user = _LAB_KINDS.get(scope["kind"])
    if user is not None and n > _DENSE_LIMIT:
        raise ConfigError(f"{path}: {user} are limited to n <= {_DENSE_LIMIT}")
    return n


def _grid(N: int, when=None) -> _Key:
    keys = {"d": _Key(_int(1, 2), 1), "N": _Key(_int(8), N), "L": _Key(_span, math.pi)}
    return _Key(_section(keys), None, when)


def _noise(when=None) -> _Key:
    """Either the power law {alpha, r} or explicit {eigenvalues}."""
    power_law = {
        "alpha": _Key(_num(), lambda s: 0.25 if s["H"] >= 0.5 else 0.75 - s["H"]),
        "r": _Key(_num(), 4.0),
    }
    explicit = {"eigenvalues": _Key(_eigenvalues)}
    return _Key(_section(lambda raw: explicit if "eigenvalues" in raw else power_law), None, when)


def _wavenumber(value, path, scope):
    """A plane-wave mode the grid resolves: |mode| <= N/2."""
    half = scope["grid"]["N"] // 2
    return _int(-half, half)(value, path, scope)


# The u0 parameters each type reads.
_U0 = {
    "zero": {},
    "gaussian": {"amplitude": _Key(_num(), 1.0), "width": _Key(_num(1e-12), 1.0)},
    "plane": {"amplitude": _Key(_num(), 1.0), "mode": _Key(_wavenumber, 1)},
}


def _u0_keys(raw: dict) -> dict:
    params = next((keys for name, keys in _U0.items() if name == raw.get("type", "zero")), {})
    return {"type": _Key(_choice(*_U0), "zero"), **params}


def _convolution(scope) -> bool:
    return scope["source"] == "convolution"


def _noisy(scope) -> bool:
    return scope["eps"] > 0.0


def _enabled(scope) -> bool:
    return scope["enabled"]


_T = _Key(_span, 1.0)
_MODEL = {
    "T": _T,
    "n": _Key(_steps, lambda s: _DENSE_LIMIT if s["kind"] in _LAB_KINDS else 1000),
    "grid": _grid(64),
    "nl": _Key(_nullable(_section({
        "kind": _Key(_choice(*NONLINEARITY_KINDS), "kerr"),
        "lam": _Key(_num(), -1.0),
        "sigma": _Key(_num(1e-12), 1.0),
        "kappa": _Key(_num(0.0), 1.0, lambda s: s["kind"] == "saturated"),
    })), {}),
    "u0": _Key(_section(_u0_keys), None),
    "threshold": _Key(_nullable(_num(1e-12)), None),
    "H": _Key(_hurst),
    "noise": _noise(),
}
_TABLES = {
    "fbm": {
        "H": _Key(_hurst),
        "T": _T,
        "n": _Key(_int(1), 256),
        "replicates": _Key(_int(1), 1000),
    },
    "convolve": {
        "H": _Key(_hurst),
        "T": _T,
        "n": _Key(_int(1), 64),
        "grid": _grid(8),
        "noise": _noise(),
        "snapshot_every": _Key(_int(1), 1),
    },
    "solve": {"eps": _Key(_num(0.0), 0.0), **_MODEL, "H": _Key(_hurst, _Required(" when eps > 0"), _noisy),
              "noise": _noise(_noisy), "snapshot_every": _Key(_int(0), 0)},
    "skeleton": {**_MODEL, "snapshot_every": _Key(_int(0), 0), "control": _Key(_section({
        "type": _Key(_choice("zero", "random"), "random"),
        "scale": _Key(_num(), 1.0, lambda s: s["type"] == "random"),
    }), None)},
    "ldp": {
        **_MODEL,
        "event": _Key(_section({
            "kind": _Key(_choice(*EVENT_KINDS), "terminal-ball-exit"),
            "threshold": _Key(_num(0.0), 1.0),
            "sobolev_index": _Key(_num(0.0), 0.0, lambda s: s["kind"] != "blow-up-before-T"),
        }), None),
        "eps_ladder": _Key(_list(_num(1e-12), "expected a nonempty list"), [0.25, 0.16, 0.09, 0.04]),
        "replicates": _Key(_int(100), 2000),
        "optimizer": _Key(_section({
            "enabled": _Key(_flag, False),
            "n_splines": _Key(_int(4), 8, _enabled),
            "budget": _Key(_int(100), 4000, _enabled),
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
        **_MODEL,
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
    # ``out`` is the output directory, which main reads: checked, but no part of the public config
    cfg = _walk({k: v for k, v in raw.items() if k != "out"}, {**_COMMON, **_TABLES[kind]}, "$", ChainMap())
    if "out" in raw:
        cfg["_out"] = _string(raw["out"], "$.out", None)
    if "T" in cfg and "u0" not in cfg:  # a model's grid is its solver config's
        cfg["_tg"] = _construct("$.n", TimeGrid, cfg["T"], cfg["n"])
    if "grid" in cfg:
        grid = cfg["_grid"] = _construct("$.grid", GridSpec, **cfg["grid"])
    if "eigenvalues" in cfg.get("noise", ()):
        cfg["_spec"] = _construct("$.noise.eigenvalues", CorrelationSpec, grid, cfg["noise"]["eigenvalues"])
    elif "noise" in cfg:
        cfg["_spec"] = _construct("$.noise", build_correlation, grid, H=cfg["H"], **cfg["noise"])
    if "noise" in cfg:
        cfg["_kern"] = _construct("$.H", HurstKernel, cfg["H"])
    if "u0" in cfg:
        cfg["_scfg"] = _construct("$.threshold", SolverConfig, cfg["T"], cfg["n"], cfg["threshold"])
        cfg["_tg"] = cfg["_scfg"].tg
        cfg["_nl"] = None if cfg["nl"] is None else _construct("$.nl", NonlinearitySpec, **cfg["nl"])
        cfg["_u0"] = _construct("$.u0", _initial_datum, grid, cfg["u0"])
        with np.errstate(over="ignore", invalid="ignore"):  # an initial norm past float range is refused
            _construct("$.threshold", cfg["_scfg"].blowup_cap, sobolev_norm(cfg["_u0"], 1.0))
    if kind in _LAB_KINDS:
        lab = cfg["_lab"] = LdpLab(cfg["_u0"], cfg["_nl"], cfg["_spec"], cfg["_kern"], cfg["_scfg"])
    if kind == "ldp":
        if cfg["event"]["kind"] == "terminal-ball-exit":
            _construct("$.event.kind", lab.terminal_centre)
            if cfg["nl"] is None:  # the run's pinv rate, which a noise with no reachable direction lacks
                with np.errstate(over="ignore", invalid="ignore"):  # a rate past float range is refused
                    cfg["_pinv_rate"] = _construct("$.noise", lab.pinv_terminal_rate, cfg["event"]["threshold"])[0]
        if cfg["optimizer"]["enabled"]:  # also loads the scipy modules minimize_rate calls
            _construct("$.optimizer.n_splines", lab.control_basis, cfg["optimizer"]["n_splines"])
    if kind == "oracle-suite":
        # the suite's scipy references, loaded at set-up so that its run imports nothing
        import scipy.integrate
        import scipy.special
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
    umask = os.umask(0)  # the one portable way to read it; artifacts are written from one thread
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600, widened to what open() would give
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list[str], rows: list) -> None:
    """A header row, then the nonempty list ``rows`` through one row template:
    %.17g in the columns where the first row holds a float, str elsewhere."""
    row = ",".join(_FLOAT_FMT if isinstance(v, float) else "%s" for v in rows[0])
    body = "\n".join([row] * len(rows)) % tuple(v for r in rows for v in r)
    atomic_write_text(path, ",".join(header) + "\n" + body + "\n")


_INDEX_COLUMNS = {1: ["index"], 2: ["ix", "iy"]}


@functools.lru_cache(maxsize=4)
def _field_csv_template(grid: GridSpec) -> str:
    """The snapshot text of ``grid`` with Re and Im left as %.17g placeholders.

    The index and coordinate columns are the same in every snapshot on a grid,
    so they are formatted once here, not once per file.
    """
    columns = [
        *np.indices(grid.shape).reshape(grid.d, -1),
        *np.meshgrid(*grid.coordinates, indexing="ij"),
    ]
    table = np.column_stack([c.reshape(-1) for c in columns])
    row = ",".join(["%d"] * grid.d + [_FLOAT_FMT] * grid.d + ["%" + _FLOAT_FMT] * 2)
    header = _INDEX_COLUMNS[grid.d] + ["x", "y"][: grid.d] + ["re", "im"]
    body = "\n".join([row] * grid.mode_count) % tuple(table.reshape(-1).tolist())
    return ",".join(header) + "\n" + body + "\n"


def write_field_csv(path: str, field: ComplexField) -> None:
    """One row per grid point in C order: grid indices, coordinates, Re, Im."""
    # complex memory interleaves re, im: the order the template's rows want
    values = np.ascontiguousarray(field.values, dtype=complex).reshape(-1).view(float)
    atomic_write_text(path, _field_csv_template(field.grid) % tuple(values.tolist()))


def _trajectory_outputs(traj, nl, out_dir: str, snapshot_every: int) -> None:
    # a linear run reports the kinetic energy, which the free flow conserves
    lam, sig = (0.0, 1.0) if nl is None else (nl.lam, nl.sigma)
    rows = []
    # one field at a time, each read back from its spectrum once
    for k, spectrum in enumerate(traj.spectra):
        f = traj.field(k)
        rows.append([float(traj.times[k]), mass(f), float(traj.h1_norms[k]),
                     hamiltonian(f, lam, sig, spectrum), 0])
        if snapshot_every > 0 and k % snapshot_every == 0:
            write_field_csv(os.path.join(out_dir, f"field_{k:06d}.csv"), f)
    rows += [[float(t), math.nan, math.nan, math.nan, 1] for t in traj.times[len(rows):]]
    write_csv(os.path.join(out_dir, "diagnostics.csv"),
              ["t", "mass", "h1_norm", "hamiltonian", "cemetery"], rows)
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
    paths = sample_fbm_fast(cfg["H"], cfg["_tg"], cfg["replicates"], cfg["seed"])
    times = [_FLOAT_FMT % t for t in cfg["_tg"].points.tolist()]
    write_csv(os.path.join(out_dir, "paths.csv"), times, paths.tolist())
    return 0


def _sampler(cfg: dict) -> ConvolutionSampler:
    return ConvolutionSampler(cfg["_spec"], cfg["_kern"], cfg["_tg"])


def _run_convolve(cfg: dict, out_dir: str) -> int:
    tg = cfg["_tg"]
    paths = _sampler(cfg).sample_mode_paths(cfg["seed"], 0)
    rows = [
        [float(tg.points[k]), float(np.sqrt((np.abs(paths[k]) ** 2).sum()))]
        for k in range(tg.n + 1)
    ]
    write_csv(os.path.join(out_dir, "l2_norms.csv"), ["t", "l2_norm"], rows)
    for k in range(0, tg.n + 1, cfg["snapshot_every"]):
        snapshot = field_from_modes(cfg["_grid"], paths[k])
        write_field_csv(os.path.join(out_dir, f"field_{k:06d}.csv"), snapshot)
    return 0


def _run_solve(cfg: dict, out_dir: str) -> int:
    forcing = _sampler(cfg).sample_mode_paths(cfg["seed"], 0) if cfg["eps"] > 0.0 else None
    traj = solve_mild(cfg["_u0"], cfg["_nl"], forcing, cfg["eps"], cfg["_scfg"])
    _trajectory_outputs(traj, cfg["_nl"], out_dir, cfg["snapshot_every"])
    return 0


def _run_skeleton(cfg: dict, out_dir: str) -> int:
    lab, tg = cfg["_lab"], cfg["_tg"]
    n_modes = cfg["_grid"].mode_count
    if cfg["control"]["type"] == "zero":
        h = np.zeros((n_modes, tg.n))
    else:
        h = cfg["control"]["scale"] * replicate_stream(cfg["seed"], 0).standard_normal((n_modes, tg.n))
    traj = solve_skeleton(lab.u0, h, lab.nl, lab.cfg, lab.L)
    _trajectory_outputs(traj, cfg["_nl"], out_dir, cfg["snapshot_every"])
    write_csv(os.path.join(out_dir, "control.csv"), ["s"] + [f"mode_{j}" for j in range(n_modes)],
              np.column_stack([tg.midpoints, h.T]).tolist())
    return 0


def _run_ldp(cfg: dict, out_dir: str) -> int:
    lab = cfg["_lab"]
    ev = EventSpec(**cfg["event"])
    report = lab.rate_ladder(ev, cfg["eps_ladder"], cfg["replicates"], cfg["seed"])
    report.pinv_rate = cfg.get("_pinv_rate")
    if cfg["optimizer"]["enabled"]:
        res = lab.minimize_rate(ev, cfg["optimizer"]["n_splines"], cfg["optimizer"]["budget"])
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
    if cfg["source"] == "fbm":
        paths = sample_fbm_fast(cfg["H"], cfg["_tg"], cfg["replicates"], cfg["seed"])
        reports = [asdict(holder_exponent(values)) for values in paths]
    else:
        w = 1.0 + cfg["_grid"].xi_squared.reshape(-1)
        blocks = _sampler(cfg).sample_mode_path_blocks(cfg["seed"], cfg["replicates"])
        reports = [asdict(holder_exponent(paths, weights=w)) for block in blocks for paths in block]
    write_json(os.path.join(out_dir, "holder_report.json"), {"H": cfg["H"], "reports": reports})
    return 0


def _run_support(cfg: dict, out_dir: str) -> int:
    lab, grid, tg = cfg["_lab"], cfg["_grid"], cfg["_tg"]
    shape = (grid.mode_count, tg.n)
    # blocks of samples against blocks of family members: one difference of
    # a sample row with a family block stays within the block's budget
    family = [lab.skeletons(cfg["control_scale"] * replicate_normals(cfg["seed"] + 7_777, rows, shape))
              for rows in replicate_blocks(tg, grid.mode_count, cfg["family_sizes"][-1])]
    distances = np.vstack([
        np.hstack([support_distance(grid, samples, members) for members in family])
        for samples in lab.trajectory_blocks(1.0, cfg["samples"], cfg["seed"])
    ])
    # the median over samples of the distance to the nearest of the first ``size`` members
    medians = [float(np.median(distances[:, :size].min(axis=1))) for size in cfg["family_sizes"]]
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
        cfg = _resolve(raw)
        out_dir = args.out or cfg.get("_out")
        if out_dir is None:
            raise ConfigError("$.out: output directory required (config key or --out)")
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
