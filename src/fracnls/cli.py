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
from .fbm import TimeGrid, replicate_normals, sample_fbm_fast
from .field import ComplexField, GridSpec, field_from_modes, hamiltonian, mass, sobolev_norm
from .noise import _DENSE_LIMIT, ConvolutionSampler, CorrelationSpec
from .noise import build_correlation, replicate_blocks
from .solver import NONLINEARITY_KINDS, NonlinearitySpec, SolverConfig, solve_mild, solve_skeleton
from .ldp import EVENT_KINDS, EventSpec, LdpLab, holder_exponent, support_distance

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


# Kinds that run on one LdpLab, as their n message names them.  None assembles the
# dense response matrices: the dense limit on n is their memory bound for now.
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
    if "u0" in cfg:
        cfg["_scfg"] = _construct("$.threshold", SolverConfig, cfg["T"], cfg["n"], cfg["threshold"])
        cfg["_tg"] = cfg["_scfg"].tg
        cfg["_nl"] = None if cfg["nl"] is None else _construct("$.nl", NonlinearitySpec, **cfg["nl"])
        cfg["_u0"] = _construct("$.u0", _initial_datum, grid, cfg["u0"])
        with np.errstate(over="ignore", invalid="ignore"):  # an initial norm past float range is refused
            _construct("$.threshold", cfg["_scfg"].blowup_cap, sobolev_norm(cfg["_u0"], 1.0))
    if kind in _LAB_KINDS:
        lab = cfg["_lab"] = LdpLab(cfg["_u0"], cfg["_nl"], cfg["_spec"], cfg["H"], cfg["_scfg"])
    if kind == "ldp":
        if cfg["event"]["kind"] == "terminal-ball-exit":
            _construct("$.event.kind", lab.terminal_centre)
            if cfg["nl"] is None:  # the run's pinv rate, which a noise with no reachable direction lacks
                with np.errstate(over="ignore", invalid="ignore"):  # a rate past float range is refused
                    cfg["_pinv_rate"] = _construct("$.noise", lab.pinv_terminal_rate, cfg["event"]["threshold"])
        if cfg["optimizer"]["enabled"]:
            _construct("$.optimizer.n_splines", lab.control_basis, cfg["optimizer"]["n_splines"])
    if kind == "oracle-suite":
        # numpy's lazily loaded submodules the suite's samplers call, loaded at
        # set-up so that its run imports nothing
        import numpy.fft
        import numpy.random
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
#
# Every float of a CSV is written as its _FLOAT_FMT text, byte for byte, and
# _float_text computes that text for whole arrays.  The 17 significant digits
# of |v| are floor(|v| 10**(16 - e)) for its decimal exponent e, rounded half
# up; Dekker's error-free product (Numer. Math. 1971) with 10**(16 - e) held
# as a double-double gives that product to about 1e-14.  Near-ties, which
# round half to even, and the values the table does not reach take
# _FLOAT_FMT itself, one at a time.

_FLOAT_FMT = "%.17g"
# Dekker's splitter 2**27 + 1: the halves it cuts a float into multiply exactly
_SPLIT = 134217729.0
# The power table spans e = -_EXP.._EXP: the magnitudes of (1e-270, 1e270),
# one step either side, within which no split or product leaves float range
_EXP = 272
# The longest text, -d.dddddddddddddddde-ddd
_WIDTH = 24
# Values per _float_block call: the Re and Im of one N-4096 snapshot.  A call
# has a fixed cost of 0.1-0.3 ms; past this size the cost per value (140-210
# ns on a 2-CPU host) stops falling, while the peak memory grows with it.  A
# call peaks in tolist, at about 87 bytes a value under tracemalloc on snapshot
# values (0.71 MB a call): the text's own objects and list, and the 24-byte
# array they are made from.
_TEXT_VALUES = 8192


@functools.cache
def _decimal_tables() -> tuple:
    """Built on first use: 10**(16 - e) for e = -_EXP.._EXP as a double-double
    (hi, lo), with hi's two Dekker halves; the groups "0000".."9999" as
    uint32; and the exponent suffixes ("e-05", "e+123"), NUL-padded to 5 bytes."""
    powers, suffixes = [], []
    for e in range(-_EXP, _EXP + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # correctly rounded
        p, q = hi.as_integer_ratio()
        c = _SPLIT * hi
        hi1 = c - (c - hi)
        powers.append((hi, (num * q - p * den) / (den * q), hi1, hi - hi1))
        suffixes.append(b"e%+03d" % e)
    quads = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    return (np.array(powers).T.copy(), quads.reshape(-1, 4).view(np.uint32)[:, 0],
            np.array(suffixes, "S5").view(np.uint8).reshape(-1, 5))


def _scaled(a: np.ndarray, e: np.ndarray):
    """floor(a 10**(16 - e)) as int64, and the fraction left, to about 1e-14."""
    hi, lo, hi1, hi2 = _decimal_tables()[0]
    k = e + _EXP
    p = a * np.take(hi, k)  # an integer whenever it reaches 10**16 > 2**53
    a1 = _SPLIT * a
    a1 -= a1 - a
    a2 = a - a1
    # ((a1 h1 - p) + a1 h2 + a2 h1) + a2 h2 + a lo, in that order, each
    # product made in a factor's array after its last other use
    h1 = np.take(hi1, k)
    rest = a1 * h1
    rest -= p
    h2 = np.take(hi2, k)
    a1 *= h2
    rest += a1
    h1 *= a2
    rest += h1
    h2 *= a2
    rest += h2
    del a1, a2, h1, h2
    a_lo = np.take(lo, k)
    a_lo *= a
    rest += a_lo
    whole = np.floor(rest)
    rest -= whole
    p = p.astype(np.int64)
    p += whole.astype(np.int64)
    return p, rest


def _decimal_digits(a: np.ndarray):
    """For each value of ``a`` in (1e-270, 1e270): its 17 significant digits as
    one int64 in [10**16, 10**17), its decimal exponent, and whether both are
    exact, which a near-tie or an exponent left undecided makes them not."""
    # The exponent is decided on the digits before rounding: log10's guess
    # moves while they fall outside [10**16, 10**17].  Deciding it after
    # rounding would write the float 1e-248 as 1e-248, not as
    # 9.9999999999999998e-249.
    e = np.floor(np.log10(a)).astype(np.int16)
    d, frac = _scaled(a, e)
    for _ in range(2):
        redo = np.flatnonzero((d < 10**16) | (d > 10**17))
        if not redo.size:
            break
        e[redo] += np.where(d[redo] > 10**17, 1, -1)
        d[redo], frac[redo] = _scaled(a[redo], e[redo])
    exact = (np.abs(frac - 0.5) > 1e-9) & (d >= 10**16) & (d <= 10**17)
    # 10**17 before rounding is 10**16 at e + 1, which rounding cannot raise
    d += (frac > 0.5) & (d < 10**17)
    carry = d == 10**17
    d[carry] = 10**16
    return d, e + carry, exact


def _digit_groups(d: np.ndarray) -> np.ndarray:
    """The digits of ``d`` < 10**17 as ASCII: 5 uint32 per value, the lead
    digit as "000d", then four groups of four."""
    quads = _decimal_tables()[1]
    groups = np.empty((d.size, 5), np.uint32)
    for col in (4, 3, 2, 1):  # the lowest group first: one quotient alive at a time
        d, group = np.divmod(d, 10**4)
        groups[:, col] = np.take(quads, group)
    groups[:, 0] = np.take(quads, d)
    return groups


def _lay_out(neg: np.ndarray, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The %.17g text of the signs, exponents and digits, sorted by sign and
    then exponent, as NUL-padded bytes of _WIDTH: fixed point for
    -4 <= e <= 16, the exponent form beyond."""
    groups = _digit_groups(d)
    digits = groups.view(np.uint8)[:, 3:]  # the 17 digits, after the lead's "000"
    suffixes = _decimal_tables()[2]
    out = np.zeros((d.size, _WIDTH), np.uint8)
    # Each run of one sign and one layout, contiguous in this order, is laid
    # out by slices
    layout = np.clip(e, -5, 17)
    first = np.ones(e.size, bool)
    first[1:] = (layout[1:] != layout[:-1]) | (neg[1:] != neg[:-1])
    starts = np.flatnonzero(first).tolist()
    o = g = None  # a block of only zeros and gaps has no run
    for s, t in zip(starts, [*starts[1:], e.size]):
        k, sign = int(layout[s]), int(neg[s])
        if sign:
            out[s:t, 0] = ord("-")
        o, g = out[s:t, sign:], digits[s:t]
        if not -4 <= k <= 16:  # d.dddddddddddddddde+XX
            o[:, 0] = g[:, 0]
            o[:, 1] = ord(".")
            o[:, 2:18] = g[:, 1:]
            o[:, 18:23] = np.take(suffixes, e[s:t] + _EXP, axis=0)
        elif k < 0:  # 0.000ddddddddddddddddd
            o[:, :1 - k] = np.frombuffer(b"0." + b"0" * (-1 - k), np.uint8)
            o[:, 1 - k:18 - k] = g
        else:  # ddd.dddddddddddddd, and no point at k = 16
            o[:, :k + 1] = g[:, :k + 1]
            if k < 16:
                o[:, k + 1] = ord(".")
                o[:, k + 2:18] = g[:, k + 1:]
    # The trailing zeros of a fraction are cut, and the point if none is
    # left; an exponent suffix is written again after them.  About 1 row in 10.
    z = np.flatnonzero((digits[:, -1] == ord("0")) & (e != 16))
    del groups, digits, o, g, layout, first  # before the rows with zeros are copied
    rows = out.view(f"S{_WIDTH}")[:, 0]
    if z.size:
        ez = np.take(e, z)
        power = (ez < -4) | (ez > 16)
        places = np.where(power, 16, 16 - ez)  # digits after the point
        zeros, left = np.zeros(z.size, np.int64), np.take(d, z)
        # the trailing zeros of the 17 digits, at most 16, by the divmod the
        # digits already use: a new numpy routine costs peak RSS in code pages
        for k in (8, 4, 2, 1, 1):
            quotient, remainder = np.divmod(left, 10**k)
            zeros += k * (remainder == 0)
            left = np.where(remainder == 0, quotient, left)
        cut = np.where(zeros >= places, places + 1, zeros)
        # where the digits end: after the sign, 17 digits, the point and any
        # zeros between the point and the digits
        keep = np.take(neg, z) + 18 + np.where(power | (ez >= 0), 0, -ez) - cut
        block = np.take(out, z, axis=0)
        block[np.arange(_WIDTH) >= keep[:, None]] = 0
        moved = np.flatnonzero(power)
        at = _WIDTH * moved + keep[moved]
        block.reshape(-1)[at[:, None] + np.arange(5)] = np.take(suffixes, ez[moved] + _EXP, axis=0)
        rows[z] = block.view(f"S{_WIDTH}")[:, 0]
    return rows


def _float_block(x: np.ndarray) -> list[bytes]:
    """The _FLOAT_FMT text of each value of the 1-D float array ``x``."""
    a = np.abs(x)
    idx = np.flatnonzero((a > 1e-270) & (a < 1e270))
    a = np.take(a, idx)
    d, e, exact = _decimal_digits(a)
    # non-finite values, magnitudes past the table, and near-ties
    slow = x != 0
    slow[idx[exact]] = False
    del a, exact
    # the layout's rows in order of sign, then exponent.  np.take, not fancy
    # indexing: several times faster on these arrays.
    neg = np.signbit(np.take(x, idx))
    order = np.argsort((e + _EXP + 1024 * neg).astype(np.int16), kind="stable")
    neg, e, d = np.take(neg, order), np.take(e, order), np.take(d, order)
    where = np.take(idx, order)  # each row's place in the text
    del idx, order
    rows = _lay_out(neg, e, d)
    del neg, e, d
    text = np.zeros(x.size, f"S{_WIDTH}")
    text[where] = rows
    zero = np.flatnonzero(x == 0)
    text[zero] = np.where(np.signbit(x[zero]), b"-0", b"0")
    del where, rows  # freed before the text objects are made
    text = text.tolist()
    for i in np.flatnonzero(slow).tolist():
        text[i] = (_FLOAT_FMT % x[i]).encode()
    return text


def _float_text(values) -> list[bytes]:
    """``[(_FLOAT_FMT % v).encode() for v in values.flat]``, a block at a time."""
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    text = []
    for start in range(0, x.size, _TEXT_VALUES):
        text += _float_block(x[start:start + _TEXT_VALUES])
    return text


def _csv_lines(rows: np.ndarray) -> list[bytes]:
    """One comma-separated line of %.17g text per row of the 2-D float array ``rows``."""
    return list(map(b",".join, zip(*[iter(_float_text(rows))] * rows.shape[1])))


def atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)  # the one portable way to read it; artifacts are written from one thread
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600, widened to what open() would give
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def write_csv(path: str, header: list[str], rows) -> None:
    """A header row, then one line per row of ``rows``, a nonempty 2-D float
    array (or equally long rows of numbers): every cell the %.17g text of a
    float, so an integer below 2**53 reads as its str."""
    rows = np.asarray(rows, dtype=float)
    lines = [",".join(header).encode()]
    block = max(1, _TEXT_VALUES // rows.shape[1])
    for start in range(0, len(rows), block):
        lines += _csv_lines(rows[start:start + block])
    atomic_write(path, b"\n".join(lines) + b"\n")


_INDEX_COLUMNS = {1: ["index"], 2: ["ix", "iy"]}


@functools.lru_cache(maxsize=4)
def _field_csv_template(grid: GridSpec) -> bytes:
    """The snapshot bytes of ``grid`` with Re and Im left as %s placeholders.

    The index and coordinate columns are the same in every snapshot on a grid,
    so they are formatted once here, not once per file.
    """
    indices = np.indices(grid.shape).reshape(grid.d, -1)
    coordinates = [c.reshape(-1) for c in np.meshgrid(*grid.coordinates, indexing="ij")]
    # an index as a float has the %.17g text of its str
    lines = _csv_lines(np.column_stack([*indices, *coordinates]))
    header = _INDEX_COLUMNS[grid.d] + ["x", "y"][: grid.d] + ["re", "im"]
    return b"%s\n%s,%%s,%%s\n" % (",".join(header).encode(), b",%s,%s\n".join(lines))


def write_field_csv(path: str, field: ComplexField) -> None:
    """One row per grid point in C order: grid indices, coordinates, Re, Im."""
    # complex memory interleaves re, im: the order the template's rows want
    values = np.ascontiguousarray(field.values, dtype=complex).reshape(-1).view(float)
    atomic_write(path, _field_csv_template(field.grid) % tuple(_float_text(values)))


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
    times = [t.decode() for t in _float_text(cfg["_tg"].points)]
    write_csv(os.path.join(out_dir, "paths.csv"), times, paths)
    return 0


def _sampler(cfg: dict) -> ConvolutionSampler:
    return ConvolutionSampler(cfg["_spec"], cfg["H"], cfg["_tg"])


def _run_convolve(cfg: dict, out_dir: str) -> int:
    tg = cfg["_tg"]
    paths = _sampler(cfg).sample_mode_paths(cfg["seed"], 0)
    rows = np.column_stack([tg.points, np.sqrt((np.abs(paths) ** 2).sum(axis=1))])
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
        h = cfg["control"]["scale"] * replicate_normals(cfg["seed"], range(1), (n_modes, tg.n))[0]
    traj = solve_skeleton(lab.u0, h, lab.nl, lab.cfg, lab.L)
    _trajectory_outputs(traj, cfg["_nl"], out_dir, cfg["snapshot_every"])
    write_csv(os.path.join(out_dir, "control.csv"), ["s"] + [f"mode_{j}" for j in range(n_modes)],
              np.column_stack([tg.midpoints, h.T]))
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
