"""Mild-formulation time stepper for the noisy Schrodinger equation, with
blow-up (cemetery) semantics and the controlled skeleton problem.

The state is kept as its spectrum U_k = F u_k (F = ``grid_fft``), because the
free group and the noise correlation are both diagonal in Fourier modes.
Without a nonlinearity the mild solution is known outright at every grid
time, and every state is computed at once with no transform:

    U_k = M(t_k) U_0 - i sqrt(eps) B Z_k,

where M(t) = exp(i |xi|^2 t) is the free-flow multiplier, Z_k the mode
coefficients of the forcing convolution Z(t_k) (Z_0 = 0), and B the parity
phase times ``mode_count / sqrt(volume)`` that takes mode coefficients to the
spectrum of their field, as in :func:`~fracnls.field.values_from_modes`.
With a nonlinearity one step is a Strang splitting, half free flow,
nonlinear flow, half free flow, plus the forcing increment:

    U_{k+1} = M(dt/2) F N(dt) F^{-1} M(dt/2) U_k - i sqrt(eps) D_k,
    D_k     = B (Z_{k+1} - M(dt) Z_k),

where N is the exact phase-rotation solution of the nonlinear subflow (the
modulus is invariant under it, so the splitting conserves mass exactly).  A
nonlinear step costs two transforms and one complex ``exp``; D_k is built
elementwise from the mode paths, and it accumulates the convolution
consistently with the closed form.  The H^1 norm of a state is a weighted sum
over its spectrum, with no transform; an unforced linear state keeps the norm
of U_0, the free flow being an isometry.

Blow-up is a legal outcome, not an error: a trajectory is absorbed in the
cemetery state (:func:`_absorb`) and carries no field values afterwards.

:func:`mode_path_gradient` is the transpose of both schemes: it takes the
gradient of a functional of the states back to the forcing mode paths, in
closed form for the linear states and by a reverse sweep of the Strang steps
through the states a solve keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fbm import TimeGrid, _row_blocks
from .field import (
    ComplexField,
    GridSpec,
    grid_fft,
    grid_ifft,
    group_multiplier,
    sobolev_norm,
    sobolev_norms,
)
from .noise import DiscreteLOperator

__all__ = [
    "NonlinearitySpec",
    "SolverConfig",
    "Trajectory",
    "TrajectoryBatch",
    "solve_mild",
    "solve_mild_batch",
    "solve_skeleton",
    "mode_path_gradient",
]

NONLINEARITY_KINDS = ("kerr", "saturated")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power nonlinearity lam |u|^{2 sigma} u, optionally saturated.

    kind = "kerr":      f(u) = lam |u|^{2 sigma} u
    kind = "saturated": f(u) = lam |u|^{2 sigma} u / (1 + kappa |u|^{2 sigma})

    lam = +1 focuses (blow-up possible), lam = -1 defocuses.  The saturated
    form is bounded and Lipschitz on bounded sets with f(0) = 0; it converges
    to the plain power law as kappa -> 0.
    """

    kind: str
    lam: float
    sigma: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.lam not in (-1.0, 1.0, -1, 1):
            raise ValueError(f"lam must be +1 or -1, got {self.lam}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not abs(self.kappa) < math.inf or (self.kind == "saturated" and self.kappa <= 0):
            raise ValueError(f"kappa must be finite, and > 0 when saturated, got {self.kappa}")

    def amplitude_rate(self, abs_u_sq: np.ndarray) -> np.ndarray:
        """Real factor rho(|u|) with f(u) = rho(|u|) u."""
        p = abs_u_sq**self.sigma
        if self.kind == "kerr":
            return self.lam * p
        return self.lam * p / (1.0 + self.kappa * p)

    def amplitude_rate_slope(self, abs_u_sq: np.ndarray) -> np.ndarray:
        """The derivative rho'(|u|^2) of :meth:`amplitude_rate` in |u|^2,
        where |u| > 0 (it is infinite at 0 when sigma < 1)."""
        slope = self.lam * self.sigma * abs_u_sq ** (self.sigma - 1.0)
        if self.kind == "kerr":
            return slope
        return slope / (1.0 + self.kappa * abs_u_sq**self.sigma) ** 2


@dataclass(frozen=True)
class SolverConfig:
    """Time grid and blow-up threshold of one run.

    ``tg`` is the run's time grid, of ``n_steps`` cells on [0, ``T``].
    ``blowup_threshold`` caps the energy-space (H^1) norm; ``None`` resolves
    to 1e3 max(initial norm, 1) at solve time (:meth:`blowup_cap`).
    """

    T: float
    n_steps: int
    blowup_threshold: float | None = None
    tg: TimeGrid = dc_field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tg", TimeGrid(self.T, self.n_steps))
        if self.blowup_threshold is not None and not abs(self.blowup_threshold) < math.inf:
            raise ValueError(f"blow-up threshold must be finite, got {self.blowup_threshold}")

    def blowup_cap(self, u0_h1: float) -> float:
        """The H^1 norm above which a run from an initial norm ``u0_h1`` is
        absorbed: the threshold, or 1e3 max(u0_h1, 1) when it is None.  A
        ValueError when the cap does not exceed ``u0_h1``."""
        cap = 1e3 * max(u0_h1, 1.0) if self.blowup_threshold is None else self.blowup_threshold
        if not cap > u0_h1:
            raise ValueError(f"blow-up threshold {cap} must exceed the initial H^1 norm {u0_h1}")
        return cap


@dataclass
class Trajectory:
    """Exploding path: ``spectra[k]`` is the spectrum (``grid_fft``) of the
    field at t_k for k below the cemetery index, or at every grid time when
    the path never blows up; :meth:`field` reads one state back.

    Once absorbed, always absorbed: no field values exist from the cemetery
    index on, and ``h1_norms`` is NaN there.
    """

    times: np.ndarray
    u0: ComplexField
    epsilon: float
    spectra: np.ndarray  # (k*, *grid.shape) complex
    h1_norms: np.ndarray  # (n_steps + 1,)
    cemetery_index: int | None = None

    @property
    def grid(self) -> GridSpec:
        return self.u0.grid

    @property
    def blown_up(self) -> bool:
        return self.cemetery_index is not None

    @property
    def blowup_time(self) -> float:
        return math.inf if self.cemetery_index is None else float(self.times[self.cemetery_index])

    def field(self, k: int) -> ComplexField:
        """The field at t_k, for k below the cemetery index: ``u0`` as given
        at k = 0, one inverse transform of ``spectra[k]`` otherwise."""
        if k == 0:
            return self.u0
        return ComplexField(self.grid, grid_ifft(self.grid, self.spectra[k]))

    def terminal_field(self) -> ComplexField | None:
        return None if self.blown_up else self.field(len(self.spectra) - 1)


@dataclass
class TrajectoryBatch:
    """Replicates solved together: ``spectra[r, k]`` is the spectrum of
    replicate r at t_k only for k < ``cemetery_index[r]``, which is
    n_steps + 1 when r is never absorbed; ``h1_norms`` is NaN from the
    cemetery index on, the step :func:`_absorb` sets from ``cap``."""

    spectra: np.ndarray  # (R, n_steps + 1, *grid.shape) complex
    h1_norms: np.ndarray  # (R, n_steps + 1)
    cemetery_index: np.ndarray  # (R,) int
    cap: float

    @property
    def blown_up(self) -> np.ndarray:
        return self.cemetery_index < self.spectra.shape[1]


def solve_mild(
    u0: ComplexField,
    nl: NonlinearitySpec | None,
    mode_paths: np.ndarray | None,
    eps: float,
    cfg: SolverConfig,
) -> Trajectory:
    """Solve the mild formulation on the configured uniform grid.

    ``mode_paths`` (n+1, n_modes) is the forcing convolution sampled at every
    grid point, zero at t_0, or None; ``eps`` scales the noise amplitude by
    sqrt(eps).  With no nonlinearity every state is the closed form of the
    module docstring, exact up to rounding.  Returns the trajectory, absorbed
    at the cemetery index :func:`_absorb` sets.
    """
    paths = None if mode_paths is None else np.asarray(mode_paths, dtype=complex)[None]
    batch = solve_mild_batch(u0, nl, paths, eps, cfg)
    k_star = int(batch.cemetery_index[0])
    return Trajectory(cfg.tg.points, u0, eps, batch.spectra[0, :k_star], batch.h1_norms[0],
                      k_star if batch.blown_up[0] else None)


def solve_mild_batch(
    u0: ComplexField,
    nl: NonlinearitySpec | None,
    mode_paths: np.ndarray | None,
    eps: float,
    cfg: SolverConfig,
) -> TrajectoryBatch:
    """Solve for one replicate per forcing path in ``mode_paths`` (R, n+1,
    n_modes) at once, or one unforced replicate when it is None: in closed
    form when ``nl`` is None, by the Strang step otherwise.  Every path starts
    at zero, as the convolution does.  Row r equals :func:`solve_mild` driven
    by ``mode_paths[r]`` bit for bit."""
    if eps < 0:
        raise ValueError("noise intensity eps must be nonnegative")
    grid = u0.grid
    n = cfg.n_steps
    u0_h1 = sobolev_norm(u0, 1.0)
    cap = cfg.blowup_cap(u0_h1)
    replicates, coef = 1, None
    if mode_paths is not None:
        replicates = mode_paths.shape[0]
        if mode_paths.shape[1] != n + 1:
            raise ValueError("forcing mode paths must cover every grid point")
        if np.any(mode_paths[:, 0]):
            raise ValueError("forcing mode paths must start at zero")
        if eps != 0.0:
            coef = _forcing_coef(grid, eps)

    spectra = np.empty((replicates, n + 1) + grid.shape, dtype=complex)
    h1 = np.full((replicates, n + 1), math.nan)
    spectra[:, 0] = grid_fft(grid, u0.values)
    h1[:, 0] = u0_h1
    paths = None if coef is None else mode_paths
    # overflow and NaN mark the absorbed replicates instead of raising
    with np.errstate(over="ignore", invalid="ignore"):
        if nl is None:
            _linear_states(grid, cfg.tg, paths, coef, spectra, h1)
        else:
            _strang_states(grid, cfg.tg, nl, paths, coef, cap, spectra, h1)
    return TrajectoryBatch(spectra, h1, _absorb(h1, cap), cap)


def _forcing_coef(grid: GridSpec, eps: float) -> np.ndarray:
    """-i sqrt(eps) B, flattened: takes mode coefficients to the spectrum of their field."""
    basis = grid.mode_parity_phase.reshape(-1) * (grid.mode_count / math.sqrt(grid.volume))
    return -1j * math.sqrt(eps) * basis


def _kept(norms: np.ndarray, cap: float) -> np.ndarray:
    """Whether each H^1 norm is finite and at most ``cap``."""
    return np.isfinite(norms) & (norms <= cap)


def _absorb(h1: np.ndarray, cap: float) -> np.ndarray:
    """Each row's cemetery index, the first step k >= 1 whose norm in ``h1`` (R, n + 1)
    is not :func:`_kept` (n + 1 when none is); NaN-fills ``h1`` from it on."""
    keep = _kept(h1[:, 1:], cap)
    cemetery = np.where(keep.all(axis=1), h1.shape[1], keep.argmin(axis=1) + 1)
    h1[np.arange(h1.shape[1]) >= cemetery[:, None]] = math.nan
    return cemetery


def _linear_states(grid, tg, paths, coef, spectra, h1) -> None:
    """Fill the states from step 1 on in closed form, U_k = M(t_k) U_0 + coef
    Z_k, and their H^1 norms (that of U_0 when unforced), over blocks of
    steps within the block budget.  M(t_k) U_0 is built in place in row 0
    and each product keeps its operands in one order, so a row's bits do not
    depend on the batch."""
    replicates, n = h1.shape[0], tg.n
    flat = spectra.reshape(replicates, n + 1, grid.mode_count)
    if paths is None:
        # the free flow is an isometry of H^1: every state keeps the norm of U_0
        h1[:, 1:] = h1[:, :1]
    for block in _row_blocks(n, replicates * grid.mode_count * spectra.itemsize):
        ks = slice(block.start + 1, block.stop + 1)
        free = spectra[0, ks]
        free.real = 0.0
        np.multiply(grid.xi_squared, tg.points[ks].reshape((-1,) + (1,) * grid.d), out=free.imag)
        np.exp(free, out=free)
        free *= spectra[0, 0]
        if paths is None:
            spectra[1:, ks] = free
        else:
            np.multiply(paths[1:, ks], coef, out=flat[1:, ks])
            spectra[1:, ks] += free
            flat[0, ks] += paths[0, ks] * coef
            h1[:, ks] = sobolev_norms(grid, spectra[:, ks], 1.0)


def _strang_states(grid, tg, nl, paths, coef, cap, spectra, h1) -> None:
    """Step the states and their H^1 norms; a replicate whose norm is not
    :func:`_kept` records that norm, not its state, and steps no further."""
    replicates, n, dt = h1.shape[0], tg.n, tg.dt
    D = None
    if paths is not None:
        # -i sqrt(eps) D_k: the increments in mode coordinates, times coef
        phase = np.exp(1j * grid.xi_squared.reshape(-1) * dt)
        D = (paths[:, 1:] - phase * paths[:, :-1]) * coef
        D = D.reshape((replicates, n) + grid.shape)
    live = np.arange(replicates)
    spec = spectra[:, 0].copy()
    # the free flow over the half step on each side of the nonlinear flow
    half = group_multiplier(grid, 0.5 * dt)
    for k in range(n):
        # every product is in place: above 256 KiB numpy reuses the
        # temporary operand of ``a * b`` with the operands swapped, which
        # rounds the product differently from a small batch's
        spec *= half
        values = grid_ifft(grid, spec)
        values *= np.exp(-1j * dt * nl.amplitude_rate(np.abs(values) ** 2))
        spec = grid_fft(grid, values)
        spec *= half
        if D is not None:
            spec += D[live, k]
        h1[live, k + 1] = norms = sobolev_norms(grid, spec, 1.0)
        keep = _kept(norms, cap)
        if not keep.all():
            live, spec = live[keep], spec[keep]
            if live.size == 0:
                break
        spectra[live, k + 1] = spec


def mode_path_gradient(
    grid: GridSpec, nl: NonlinearitySpec | None, batch: TrajectoryBatch, grad: np.ndarray, eps: float,
    cfg: SolverConfig,
) -> np.ndarray:
    """The gradient (R, n + 1, n_modes) with respect to the forcing mode
    paths of a real functional of the states of ``batch``, which
    :func:`solve_mild_batch` solved from those paths at ``eps`` under ``cfg``,
    given its gradient ``grad`` (R, n + 1, *grid.shape) with respect to the
    spectra.  A gradient is a complex array: the derivatives along the real
    and imaginary parts.  A row of ``grad`` with a nonzero entry must be of
    a replicate never absorbed.  Linear states are affine in the paths, so
    their gradient is ``grad`` times conj(coef); Strang states are swept
    backwards by :func:`_strang_adjoint`."""
    coef = _forcing_coef(grid, eps)
    flat = grad.reshape(grad.shape[:2] + (grid.mode_count,))
    if nl is None:
        out = np.conj(coef) * flat
        out[:, 0] = 0.0  # Z_0 = 0 is not a variable
        return out
    out = np.zeros(flat.shape, dtype=complex)
    rows = np.flatnonzero(flat.any(axis=(1, 2)))
    if rows.size:
        out[rows] = _strang_adjoint(grid, cfg.tg, nl, batch.spectra[rows], grad[rows], coef)
    return out


def _strang_adjoint(grid, tg, nl, spectra, grad, coef) -> np.ndarray:
    """The reverse sweep of :func:`_strang_states` through its states
    ``spectra`` (R, n + 1, *grid.shape), with ``grad`` as in
    :func:`mode_path_gradient`.  lam_k, the gradient with respect to U_k
    through every later state, is grad_k plus the transposed Jacobian of step
    k applied to lam_{k+1}, and the increment D_k receives lam_{k+1}.  The
    half steps are unitary multipliers, whose transposes are their
    conjugates; the transposes of the transform pair are the pair reversed,
    up to scales that cancel; and N(v) = v exp(-i theta), theta = dt
    rho(|v|^2), has the pointwise transpose
    g -> g exp(i theta) + 2 dt rho'(|v|^2) Im(conj(g) N(v)) v."""
    n, dt = tg.n, tg.dt
    half = group_multiplier(grid, 0.5 * dt)
    back = np.conj(half)
    # the input and output of every nonlinear subflow, in one batched transform
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = grid_ifft(grid, spectra[:, :n] * half)
        q = np.abs(v) ** 2
        rotation = np.exp(1j * dt * nl.amplitude_rate(q))  # exp(i theta)
        nv = v * np.conj(rotation)
        # the slope term carries a factor v, which is 0 where rho' may be infinite
        pull = np.where(q > 0.0, 2.0 * dt * nl.amplitude_rate_slope(q), 0.0)
    # increments[:, k] = lam_{k+1}, the gradient with respect to D_k
    increments = np.empty((len(spectra), n, grid.mode_count), dtype=complex)
    increments[:, n - 1] = grad[:, n].reshape(len(spectra), -1)
    for k in range(n - 1, 0, -1):
        g = grid_ifft(grid, increments[:, k].reshape(grad[:, k].shape) * back)
        g = g * rotation[:, k] + pull[:, k] * np.imag(np.conj(g) * nv[:, k]) * v[:, k]
        lam = grid_fft(grid, g)
        lam *= back
        lam += grad[:, k]
        increments[:, k - 1] = lam.reshape(len(spectra), -1)
    # D_k = coef (Z_{k+1} - phase Z_k): path k >= 1 enters D_{k-1}, and D_k below n
    phase = np.exp(1j * grid.xi_squared.reshape(-1) * dt)
    out = np.zeros((len(spectra), n + 1, grid.mode_count), dtype=complex)
    out[:, 1:] = increments
    out[:, 1:n] -= np.conj(phase) * increments[:, 1:]
    return np.conj(coef) * out


def solve_skeleton(
    u0: ComplexField,
    h: np.ndarray,
    nl: NonlinearitySpec | None,
    cfg: SolverConfig,
    L: DiscreteLOperator,
) -> Trajectory:
    """Controlled trajectory S(u0, h) of the control values h (n_modes, n) on
    L's grid: the mild stepper driven by the deterministic response path L h
    at unit intensity (same code path as :func:`solve_mild`)."""
    if L.tg != cfg.tg:
        raise ValueError("response operator and solver config use different grids")
    mode_paths = L.apply(h)
    return solve_mild(u0, nl, mode_paths, 1.0, cfg)
