"""Mild-formulation time stepper for the noisy Schrodinger equation, with
blow-up (cemetery) semantics and the controlled skeleton problem.

One step combines a Strang splitting of the deterministic flow with the
precomputed forcing increment:

    u_{k+1} = N_{dt/2}( U(dt) ( N_{dt/2}(u_k) ) ) - i sqrt(eps) D_k,
    D_k     = Z(t_{k+1}) - U(dt) Z(t_k),

where N is the exact phase-rotation solution of the nonlinear subflow (the
modulus is invariant under it, so the splitting conserves mass exactly) and
U(dt) is the free group.  The increments D_k accumulate the convolution
consistently: the noise part of the state at t_k is exactly -i sqrt(eps) Z(t_k)
when the nonlinearity vanishes.

Blow-up is a legal outcome, not an error: once the energy-space norm passes
the configured threshold (or the field stops being finite), the trajectory is
absorbed in the cemetery state and carries no field values afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    ComplexField,
    GridSpec,
    grid_fft,
    grid_ifft,
    group_multiplier,
    sobolev_norm,
    sobolev_norms,
    values_from_modes,
)
from .noise import Control, DiscreteLOperator

__all__ = [
    "NonlinearitySpec",
    "SolverConfig",
    "Trajectory",
    "TrajectoryBatch",
    "solve_mild",
    "solve_mild_batch",
    "solve_skeleton",
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
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.kind == "saturated" and self.kappa <= 0:
            raise ValueError("saturated nonlinearity needs kappa > 0")

    def amplitude_rate(self, abs_u_sq: np.ndarray) -> np.ndarray:
        """Real factor rho(|u|) with f(u) = rho(|u|) u."""
        p = abs_u_sq**self.sigma
        if self.kind == "kerr":
            return self.lam * p
        return self.lam * p / (1.0 + self.kappa * p)


@dataclass(frozen=True)
class SolverConfig:
    """Time step, blow-up threshold, and grid bookkeeping for one run.

    ``blowup_threshold`` caps the energy-space (H^1) norm; ``None`` resolves
    to 1e3 times the initial norm at solve time.
    """

    T: float
    n_steps: int
    blowup_threshold: float | None = None

    def __post_init__(self):
        if self.T <= 0 or self.n_steps < 1:
            raise ValueError("need T > 0 and at least one step")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass
class Trajectory:
    """Exploding path: ``states[k]`` is the field at t_k for k below the
    cemetery index, or at every grid time when the path never blows up.

    Once absorbed, always absorbed: no field values exist from the cemetery
    index on, and ``h1_norms`` is NaN there; ``blowup_time`` is +inf for
    global trajectories.
    """

    times: np.ndarray
    grid: GridSpec
    epsilon: float
    states: np.ndarray  # (k*, *grid.shape) complex
    h1_norms: np.ndarray  # (n_steps + 1,)
    cemetery_index: int | None = None
    blowup_time: float = math.inf

    @property
    def blown_up(self) -> bool:
        return self.cemetery_index is not None

    def terminal_field(self) -> ComplexField | None:
        return None if self.blown_up else ComplexField(self.grid, self.states[-1])


@dataclass
class TrajectoryBatch:
    """Replicates stepped together: ``states[r, k]`` (replicate r at t_k) is
    a field only for k < ``cemetery_index[r]``, which is n_steps + 1 when r
    is never absorbed; ``h1_norms`` is NaN from the cemetery index on."""

    states: np.ndarray  # (R, n_steps + 1, *grid.shape) complex
    h1_norms: np.ndarray  # (R, n_steps + 1)
    cemetery_index: np.ndarray  # (R,) int

    @property
    def blown_up(self) -> np.ndarray:
        return self.cemetery_index < self.states.shape[1]


def solve_mild(
    u0: ComplexField,
    nl: NonlinearitySpec | None,
    mode_paths: np.ndarray | None,
    eps: float,
    cfg: SolverConfig,
) -> Trajectory:
    """March the mild formulation on the configured uniform grid.

    ``mode_paths`` (n+1, n_modes) is the forcing convolution sampled at every
    grid point, or None; ``eps`` scales the noise amplitude by sqrt(eps).  With
    eps = 0 and no nonlinearity each step is a single exact group
    application.  Returns the trajectory, absorbed at the cemetery from the
    first index whose H^1 norm exceeds the threshold or is not finite.
    """
    paths = None if mode_paths is None else np.asarray(mode_paths, dtype=complex)[None]
    batch = solve_mild_batch(u0, nl, paths, eps, cfg)
    k_star = int(batch.cemetery_index[0])
    traj = Trajectory(cfg.times, u0.grid, eps, batch.states[0, :k_star], batch.h1_norms[0])
    if batch.blown_up[0]:
        traj.cemetery_index, traj.blowup_time = k_star, float(cfg.times[k_star])
    return traj


def solve_mild_batch(
    u0: ComplexField,
    nl: NonlinearitySpec | None,
    mode_paths: np.ndarray | None,
    eps: float,
    cfg: SolverConfig,
) -> TrajectoryBatch:
    """March one replicate per forcing path in ``mode_paths`` (R, n+1, n_modes)
    at once, or one unforced replicate when it is None.  Row r equals
    :func:`solve_mild` driven by ``mode_paths[r]`` bit for bit; a replicate is
    stepped no further once absorbed."""
    if eps < 0:
        raise ValueError("noise intensity eps must be nonnegative")
    grid = u0.grid
    dt = cfg.dt
    u0_h1 = sobolev_norm(u0, 1.0)
    threshold = cfg.blowup_threshold
    if threshold is None:
        threshold = 1e3 * max(u0_h1, 1.0)
    if threshold <= u0_h1:
        raise ValueError(
            f"blow-up threshold {threshold} must exceed the initial H^1 norm {u0_h1}"
        )
    replicates, D = 1, None
    if mode_paths is not None:
        replicates = mode_paths.shape[0]
        if mode_paths.shape[1] != cfg.n_steps + 1:
            raise ValueError("forcing mode paths must cover every grid point")
        if eps != 0.0:
            # increments D_k = Z(t_{k+1}) - U(dt) Z(t_k) as physical fields
            phase = np.exp(1j * grid.xi_squared.reshape(-1) * dt)
            D = values_from_modes(grid, mode_paths[:, 1:] - phase * mode_paths[:, :-1])
    scale = math.sqrt(eps)
    mult = group_multiplier(grid, dt)

    n = cfg.n_steps
    states = np.empty((replicates, n + 1) + grid.shape, dtype=complex)
    h1 = np.full((replicates, n + 1), math.nan)
    cemetery = np.full(replicates, n + 1)
    states[:, 0] = u0.values
    h1[:, 0] = u0_h1
    live = np.arange(replicates)
    values = states[:, 0].copy()
    # overflow and NaN mark the absorbed replicates instead of raising
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            if nl is not None:
                values = values * np.exp(-0.5j * dt * nl.amplitude_rate(np.abs(values) ** 2))
                values = grid_ifft(grid, mult * grid_fft(grid, values))
                values = values * np.exp(-0.5j * dt * nl.amplitude_rate(np.abs(values) ** 2))
            else:
                values = grid_ifft(grid, mult * grid_fft(grid, values))
            if D is not None:
                values = values - 1j * scale * D[live, k]
            norms = sobolev_norms(grid, values, 1.0)
            keep = np.isfinite(norms) & (norms <= threshold)
            if not keep.all():
                cemetery[live[~keep]] = k + 1
                live, values, norms = live[keep], values[keep], norms[keep]
                if live.size == 0:
                    break
            states[live, k + 1] = values
            h1[live, k + 1] = norms
    return TrajectoryBatch(states, h1, cemetery)


def solve_skeleton(
    u0: ComplexField,
    h: Control,
    nl: NonlinearitySpec | None,
    cfg: SolverConfig,
    L: DiscreteLOperator,
) -> Trajectory:
    """Controlled trajectory S(u0, h): the mild stepper driven by the
    deterministic response path L h at unit intensity (same code path as
    :func:`solve_mild`)."""
    if L.tg.n != cfg.n_steps or abs(L.tg.T - cfg.T) > 1e-12 * cfg.T:
        raise ValueError("response operator and solver config use different grids")
    mode_paths = L.apply(h)
    return solve_mild(u0, nl, mode_paths, 1.0, cfg)
