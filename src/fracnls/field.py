"""Periodic spatial grid, complex fields, Fourier-side Sobolev norms, and the
free Schrodinger group.

The spatial domain is the torus [-L, L)^d with d in {1, 2}; all Sobolev norms
are finite Fourier sums.  Sign convention, fixed here and used everywhere:
the free flow solves i du/dt = Lap u, so mode k evolves by exp(i |xi_k|^2 t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "ComplexField",
    "sobolev_norm",
    "sobolev_norms",
    "grid_fft",
    "grid_ifft",
    "l2_norm",
    "group_multiplier",
    "group_deviation_norm",
    "mass",
    "hamiltonian",
    "field_from_modes",
    "values_from_modes",
]


# The most modes a grid holds: one complex field of them is 256 MiB.
_MAX_MODES = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: d dimensions, N modes per dimension, half-width L."""

    d: int
    N: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.d}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"half-width L must be positive and finite, got {self.L}")
        if self.N**self.d > _MAX_MODES:
            raise ValueError(f"N^d = {self.N**self.d} modes exceed the limit {_MAX_MODES}")

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        """Integer mode indices k in FFT layout: 0..N/2-1, -N/2..-1."""
        return np.rint(np.fft.fftfreq(self.N) * self.N).astype(int)

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """xi_k = pi k / L along one axis, FFT layout."""
        return np.pi * self.axis_wavenumbers / self.L

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 over the full mode array (shape N or N x N)."""
        x = self.axis_frequencies**2
        if self.d == 1:
            return x
        return x[:, None] + x[None, :]

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, ...]:
        ax = -self.L + 2.0 * self.L * np.arange(self.N) / self.N
        return (ax,) * self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def axes(self) -> tuple[int, ...]:
        """The trailing axes that hold a field in a stack of fields."""
        return tuple(range(-self.d, 0))

    @property
    def cell_volume(self) -> float:
        return (2.0 * self.L / self.N) ** self.d

    @property
    def volume(self) -> float:
        return (2.0 * self.L) ** self.d

    @property
    def mode_count(self) -> int:
        return self.N**self.d

    @cached_property
    def mode_parity_phase(self) -> np.ndarray:
        """(-1)^k phases aligning mode coefficients with the x = -L origin."""
        p = 1.0 - 2.0 * (np.abs(self.axis_wavenumbers) % 2)
        if self.d == 1:
            return p
        return p[:, None] * p[None, :]


class ComplexField:
    """Complex grid function in physical space."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def zero(cls, grid: GridSpec) -> "ComplexField":
        return cls(grid, np.zeros(grid.shape, dtype=complex))

    def __add__(self, other: "ComplexField") -> "ComplexField":
        self._check_same_grid(other)
        return ComplexField(self.grid, self.values + other.values)

    def __sub__(self, other: "ComplexField") -> "ComplexField":
        self._check_same_grid(other)
        return ComplexField(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "ComplexField":
        return ComplexField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "ComplexField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")


def l2_norm(u: ComplexField) -> float:
    return float(np.sqrt(np.sum(np.abs(u.values) ** 2) * u.grid.cell_volume))


def sobolev_norm(u: ComplexField, s: float) -> float:
    """H^s norm via the weighted spectral sum; s = 0 is the L2 integral norm."""
    return float(sobolev_norms(u.grid, grid_fft(u.grid, u.values), float(s)))


def sobolev_norms(grid: GridSpec, spectra: np.ndarray, s: float) -> np.ndarray:
    """H^s norms of the fields whose spectra (:func:`grid_fft`) are stacked
    along the leading axes of ``spectra``: a weighted sum of their squared
    moduli, with the continuum-transform scale (the cell volume) applied to
    the sum, so no field is transformed.  The squared moduli are the one
    temporary, weighted in place."""
    power = np.abs(spectra)
    power *= power
    power *= (1.0 + grid.xi_squared) ** s
    return np.sqrt(np.sum(power, axis=grid.axes) / grid.volume) * grid.cell_volume


def grid_fft(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Unnormalized DFT of the fields stacked along the leading axes of
    ``values``.  On a 1-D grid this is ``fft`` on the last axis: the same
    arithmetic as ``fftn`` over one axis without its n-D dispatch."""
    if grid.d == 1:
        return np.fft.fft(values, axis=-1)
    return np.fft.fftn(values, axes=grid.axes)


def grid_ifft(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`grid_fft`."""
    if grid.d == 1:
        return np.fft.ifft(values, axis=-1)
    return np.fft.ifftn(values, axes=grid.axes)


def group_multiplier(grid: GridSpec, t: float) -> np.ndarray:
    """Spectral multiplier exp(i |xi|^2 t) of the free flow."""
    return np.exp(1j * grid.xi_squared * t)


def group_deviation_norm(grid: GridSpec, gamma: float, t: float) -> float:
    """Discrete operator norm of U(t) - I from H^{1+2 gamma} to H^1.

    Equals sup over grid modes of |exp(i|xi|^2 t) - 1| (1+|xi|^2)^{-gamma},
    and is bounded by 2^{1-gamma} |t|^gamma.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    xi2 = grid.xi_squared
    vals = np.abs(np.exp(1j * xi2 * t) - 1.0) * (1.0 + xi2) ** (-gamma)
    return float(vals.max())


def mass(u: ComplexField) -> float:
    """Squared L2 norm, the first conserved quantity of the free Kerr flow."""
    return l2_norm(u) ** 2


def hamiltonian(u: ComplexField, lam: float, sigma: float, spectrum: np.ndarray | None = None) -> float:
    """(1/2) ||grad u||_{L2}^2 - lam/(2 sigma + 2) int |u|^{2 sigma + 2} dx.

    The gradient term is computed spectrally, with the continuum-transform
    normalization (cell volume times the FFT), so Parseval holds against the
    integral L2 norm.  ``spectrum`` is ``grid_fft`` of ``u.values`` where the
    caller already holds it.
    """
    g = u.grid
    if spectrum is None:
        spectrum = grid_fft(g, u.values)
    kinetic = 0.5 * np.sum(g.xi_squared * np.abs(spectrum * g.cell_volume) ** 2) / g.volume
    potential = np.sum(np.abs(u.values) ** (2.0 * sigma + 2.0)) * g.cell_volume
    return float(kinetic - lam / (2.0 * sigma + 2.0) * potential)


# ---------------------------------------------------------------------------
# Orthonormal mode basis <-> physical fields
# ---------------------------------------------------------------------------
#
# e_j(x) = (2L)^{-d/2} exp(i xi_j . x) are orthonormal for the real L2
# pairing; coefficient vectors live in FFT layout.

def field_from_modes(grid: GridSpec, coeffs: np.ndarray) -> ComplexField:
    """Assemble sum_j c_j e_j from mode coefficients (FFT layout)."""
    return ComplexField(grid, values_from_modes(grid, np.reshape(coeffs, grid.mode_count)))


def values_from_modes(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Physical values of sum_j c_j e_j for the coefficient vectors (FFT
    layout, flattened) stacked along the leading axes of ``coeffs``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    phased = coeffs.reshape(coeffs.shape[:-1] + grid.shape) * grid.mode_parity_phase
    return grid_ifft(grid, phased) * grid.mode_count / np.sqrt(grid.volume)
