"""Spatial correlation operator, stochastic convolution, and its Gaussian
linear algebra: the discrete response operator L, the covariance Q = L L*,
and the quadratic rate functional of the small-noise asymptotics.

The correlation operator is diagonal in the Fourier basis, so the group and
the correlation diagonalize simultaneously and each mode reduces to a scalar
Volterra problem driven by one real Brownian motion.  Per mode j the
convolution is

    Z_j(t) = phi_j * int_0^t exp(i |xi_j|^2 (t-s)) d beta_j^H(s),

discretized by sampling the integrand at cell midpoints.  The driving
fractional increments carry their exact joint law (analytic increment
covariance), and one map computes every response:

  * L: Z = A (B zeta), with B = dt^H F, F the lower factor of the
    unit-step increment covariance that the exact fBm sampler reads too
    (``fbm._increment_factor``, a Schur recursion with no BLAS call), and A
    the midpoint integrand, applied as phased cumulative sums
    (:meth:`DiscreteLOperator.response`).  The sampler feeds it
    standard normals, a control h feeds it zeta = sqrt(dt) h, and the dense
    per-mode matrices the oracles' rate algebra reads are its responses to
    the unit innovations, built on first read; the terminal covariance reads
    their last row alone, from B and the phases.  Its transpose
    (:meth:`DiscreteLOperator.response_adjoint`) takes a gradient with
    respect to the mode paths back to the innovations.
  * Q (direct): midpoint integrand samples sandwiched around the analytic
    increment covariance -- for H > 1/2 via the closed-form weighted double
    integral with the Beta-function constant.  It shares no arithmetic with
    L, so Q = L L^T checks the map the runs use.

At H = 1/2 the increments are independent, B is sqrt(dt) times the
identity exactly, and L reduces to the plain midpoint-rule quadrature of the
Ito convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .fbm import TimeGrid, _increment_factor, _row_blocks, increment_covariance_beta, replicate_normals
from .field import GridSpec

__all__ = [
    "CorrelationSpec",
    "ConvolutionSampler",
    "replicate_blocks",
    "DiscreteLOperator",
    "half_energy",
    "GaussianRateResult",
    "n1_window",
    "build_correlation",
    "hs_tail_ratio",
    "build_L",
    "build_Q",
    "verify_factorization",
    "gaussian_rate",
    "cheapest_terminal_rate",
    "terminal_covariance_blocks",
]


@dataclass(frozen=True)
class CorrelationSpec:
    """Spatial correlation operator, diagonal in the Fourier basis.

    ``eigenvalues`` holds one nonnegative number per grid mode (FFT layout,
    flattened row-major for d = 2).
    """

    grid: GridSpec
    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        if ev.size != self.grid.mode_count:
            raise ValueError(
                f"need one eigenvalue per mode ({self.grid.mode_count}), got {ev.size}"
            )
        if np.any(ev < 0.0):
            raise ValueError("correlation eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def xi_squared_flat(self) -> np.ndarray:
        return self.grid.xi_squared.reshape(-1)


def n1_window(H: float) -> tuple[float, float]:
    """Admissible open interval for the extra regularity exponent alpha."""
    if H < 0.5:
        return (0.5 - H, 1.0 - H)
    return (0.0, 1.0)


def build_correlation(grid: GridSpec, r: float, H: float, alpha: float) -> CorrelationSpec:
    """Power-law correlation eigenvalues phi_j = (1 + |xi_j|^2)^{-r/2}.

    Validates the admissible alpha window for the given H and requires the
    decay r to beat the Sobolev weight 1 + 2(H + alpha); the stricter margin
    r > 1 + 2(H + alpha) + d/2 guarantees a summable tail and is reported in
    the rejection message when violated.
    """
    if not 0.0 < H < 1.0:
        raise ConfigError(f"H must lie in (0,1), got {H}")
    lo, hi = n1_window(H)
    if not lo < alpha < hi:
        if alpha <= lo:
            detail = f"alpha = {alpha} <= {lo} = (1/2 - H) when H < 1/2, else 0"
        else:
            detail = f"alpha = {alpha} >= {hi} = (1 - H) when H < 1/2, else 1"
        raise ConfigError(
            f"alpha outside the admissible window ({lo}, {hi}) for H={H}: {detail}"
        )
    s = 1.0 + 2.0 * (H + alpha)
    if r <= s:
        raise ConfigError(
            f"decay exponent r={r} too small: need r > 1 + 2(H + alpha) = {s} "
            f"(summable tail needs r > {s + grid.d / 2})"
        )
    phi = (1.0 + grid.xi_squared.reshape(-1)) ** (-r / 2.0)
    return CorrelationSpec(grid=grid, eigenvalues=phi)


def hs_tail_ratio(spec: CorrelationSpec, s: float) -> float:
    """Fraction of the Hilbert-Schmidt sum carried by the outer half of the
    resolved frequency band; small values indicate a numerically convergent
    partial sum at the grid cutoff."""
    xi2 = spec.xi_squared_flat
    terms = spec.eigenvalues**2 * (1.0 + xi2) ** s
    total = terms.sum()
    if total == 0.0:
        return 0.0
    outer = xi2 > 0.25 * xi2.max()  # |xi| above half the cutoff
    return float(terms[outer].sum() / total)


# ---------------------------------------------------------------------------
# Discrete per-mode model
# ---------------------------------------------------------------------------

def replicate_blocks(tg: TimeGrid, n_modes: int, replicates: int):
    """``range(replicates)`` in consecutive blocks whose mode paths
    (R, n + 1, n_modes), and the states stepped from them, fit the block budget."""
    return _row_blocks(replicates, (tg.n + 1) * n_modes * np.dtype(complex).itemsize)


def half_energy(values: np.ndarray, tg: TimeGrid) -> np.ndarray:
    """Half the squared L2(0,T; L2) norm of each control on ``tg``.

    A control h is a real array (n_modes, n): ``values[j, m]`` is its value
    on time cell m for mode j, so ||h||^2 = sum values^2 * dt.  Controls
    stacked on leading axes give one value each (a 0-d array for one).
    """
    return 0.5 * (np.sum(values**2, axis=(-2, -1)) * tg.dt)


# ---------------------------------------------------------------------------
# Response operator L and covariance Q
# ---------------------------------------------------------------------------

_DENSE_LIMIT = 64


class DiscreteLOperator:
    """Per-mode causal response map in whitened coordinates.

    :meth:`response` maps standard-normal innovations zeta to the complex
    response samples at t_1..t_n, Z = A (B zeta); a control h with cell
    values h_j corresponds to zeta_j = sqrt(dt) h_j, which makes

        (L h)_j(t_k) = (mats[j] @ (sqrt(dt) h_j))_k

    the quadrature of int_0^{t_k} (transformed integrand)(s) phi_j h_j(s) ds
    and gives rate(f) = min |zeta|^2 / 2 over L zeta = f.
    """

    def __init__(self, spec: CorrelationSpec, H: float, tg: TimeGrid):
        self.tg = tg
        self.n_modes = spec.grid.mode_count
        self.chol = _increment_factor(H, tg.n)  # B: the increments' lower factor
        self.chol *= tg.dt**H  # unit-step increments rescaled by self-similarity
        xi2 = spec.xi_squared_flat
        self.phase_mid = np.exp(-1j * np.outer(tg.midpoints, xi2))  # (n, modes)
        self.phase_t = np.exp(1j * np.outer(tg.points[1:], xi2))  # (n, modes)
        self.phi = spec.eigenvalues

    def response(self, zeta: np.ndarray) -> np.ndarray:
        """Mode paths (R, n + 1, n_modes) of the C-contiguous innovations
        (R, n, n_modes); row r depends on row r of ``zeta`` alone."""
        dbh = self.chol @ zeta  # fractional increments, exact joint law
        out = np.empty((len(zeta), self.tg.n + 1, self.n_modes), dtype=complex)
        out[:, 0] = 0.0
        paths = out[:, 1:]  # filled in place: phased increments, their sums, the gains
        np.multiply(self.phase_mid, dbh, out=paths)
        np.cumsum(paths, axis=1, out=paths)
        np.multiply(self.phi * self.phase_t, paths, out=paths)
        return out

    def response_adjoint(self, grad: np.ndarray) -> np.ndarray:
        """The transpose of :meth:`response`: the gradient (R, n, n_modes)
        with respect to the innovations of a real functional whose gradient
        with respect to the mode paths is ``grad`` (R, n + 1, n_modes), the
        derivatives along the real and imaginary parts as one complex array.
        Each step of :meth:`response` is undone in reverse: the conjugate
        phases, a reverse cumulative sum and the transposed factor."""
        g = self.phi * np.conj(self.phase_t) * grad[:, 1:]
        g = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
        g *= np.conj(self.phase_mid)
        return self.chol.T @ g.real

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Mode paths (n+1, n_modes) of the response to control values h (n_modes, n)."""
        return self.apply_batch(h[None])[0]

    def apply_batch(self, values: np.ndarray) -> np.ndarray:
        """Mode paths (R, n+1, n_modes) of the responses to control values (R, n_modes, n)."""
        # contiguous, as the sampler's normals are: BLAS rounds a transposed view differently
        return self.response(np.ascontiguousarray(math.sqrt(self.tg.dt) * values.transpose(0, 2, 1)))

    def apply_batch_adjoint(self, grad: np.ndarray) -> np.ndarray:
        """The transpose of :meth:`apply_batch`: the gradient (R, n_modes, n)
        with respect to the control values, as :meth:`response_adjoint` reads ``grad``."""
        return math.sqrt(self.tg.dt) * self.response_adjoint(grad).transpose(0, 2, 1)

    @cached_property
    def mats(self) -> np.ndarray:
        """Dense lower-triangular matrices (n_modes, n, n): ``mats[j, k, m]`` is
        the response of mode j at t_{k+1} to a unit innovation in cell m."""
        unit = np.repeat(np.eye(self.tg.n)[:, :, None], self.n_modes, axis=2)
        return self.response(unit)[:, 1:].transpose(2, 1, 0)


class ConvolutionSampler(DiscreteLOperator):
    """The response map driven by seeded standard normals: exact draws of
    the stochastic convolution."""

    def sample_mode_paths(self, seed: int, replicate: int) -> np.ndarray:
        """Mode paths (n + 1, n_modes): ``[k, j]`` is the coefficient of mode
        j at time t_k, drawn from the stream keyed (seed, replicate)."""
        return self.sample_mode_path_batch(seed, range(replicate, replicate + 1))[0]

    def sample_mode_path_batch(self, seed: int, replicates: range) -> np.ndarray:
        """Mode paths (R, n + 1, n_modes); row r draws from the stream keyed
        (seed, replicates[r]), so it does not depend on the batch."""
        return self.response(replicate_normals(seed, replicates, (self.tg.n, self.n_modes)))

    def sample_mode_path_blocks(self, seed: int, replicates: int):
        """``sample_mode_path_batch(seed, range(replicates))`` in the
        consecutive blocks of :func:`replicate_blocks`."""
        for rows in replicate_blocks(self.tg, self.n_modes, replicates):
            yield self.sample_mode_path_batch(seed, rows)


def _real_stack(mats: np.ndarray) -> np.ndarray:
    """(Re, Im) of each complex matrix in ``mats`` stacked along its rows."""
    return np.concatenate([mats.real, mats.imag], axis=-2)


def build_L(spec: CorrelationSpec, H: float, tg: TimeGrid) -> DiscreteLOperator:
    """The response operator at oracle scale, where its dense matrices fit.

    The midpoint integrand and the lower factor of the exact increment
    covariance are both lower triangular, so causality is preserved and
    Q = L L^T holds without quadrature error.  At H = 1/2 this is exactly
    the midpoint-rule Ito quadrature.
    """
    if tg.n > _DENSE_LIMIT:
        raise ValueError(f"dense response assembly is limited to n <= {_DENSE_LIMIT}")
    return DiscreteLOperator(spec, H, tg)


def _integrand_matrices(spec: CorrelationSpec, tg: TimeGrid) -> np.ndarray:
    """Lower-triangular midpoint samples A_j[k-1, m] = phi_j g_j(t_k, s_m)."""
    xi2 = spec.xi_squared_flat
    t = tg.points[1:]
    s = tg.midpoints
    mask = np.tril(np.ones((tg.n, tg.n)))
    A = np.exp(1j * (t[:, None] - s[None, :])[None, :, :] * xi2[:, None, None])
    return spec.eigenvalues[:, None, None] * (A * mask)


def build_Q(spec: CorrelationSpec, H: float, tg: TimeGrid) -> np.ndarray:
    """Covariance of the stacked real response samples, assembled directly.

    Block-diagonal over modes, returned as the (n_modes, 2n, 2n) stack of its
    blocks; block j is the covariance of (Re Z_j(t_1..t_n), Im Z_j(t_1..t_n)),
    and the modes are independent.  The driving increment covariance
    is the closed-form weighted double integral, so H > 1/2: independent of
    the second differences that L is built on, which Q = L L^T then checks.
    """
    if tg.n > _DENSE_LIMIT:
        raise ValueError(f"dense covariance assembly is limited to n <= {_DENSE_LIMIT}")
    S = increment_covariance_beta(H, tg.points)
    Ar = _real_stack(_integrand_matrices(spec, tg))
    return Ar @ S @ Ar.transpose(0, 2, 1)


def verify_factorization(Q: np.ndarray, L: DiscreteLOperator) -> float:
    """Max elementwise residual between the blocks of Q and F F^T, F the real
    factor of each mode of L."""
    F = _real_stack(L.mats)
    return float(np.abs(Q - F @ F.transpose(0, 2, 1)).max())


# ---------------------------------------------------------------------------
# Rate functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianRateResult:
    rate: float
    control: np.ndarray  # (n_modes, n) values on the operator's grid
    feasible: bool


# Relative least-squares miss above which a target path counts as unreachable.
_REACH_RTOL = 1e-6


def gaussian_rate(L: DiscreteLOperator, f_modes: np.ndarray) -> GaussianRateResult:
    """Half the minimal control energy reproducing the target response path.

    ``f_modes[j, k]`` is the complex target for mode j at t_{k+1}.  Solved
    per mode by minimum-norm least squares; when the best fit misses the
    target by more than ``_REACH_RTOL`` relative, the path is unreachable and the
    rate is +inf (flagged via ``feasible=False``).
    """
    f_modes = np.asarray(f_modes, dtype=complex)
    n = L.tg.n
    zeta = np.zeros((L.n_modes, n))
    resid_sq = 0.0
    norm_sq = 0.0
    for j, F in enumerate(_real_stack(L.mats)):
        target = np.concatenate([f_modes[j].real, f_modes[j].imag])
        sol, _, _, _ = np.linalg.lstsq(F, target, rcond=None)
        zeta[j] = sol
        resid_sq += float(np.sum((F @ sol - target) ** 2))
        norm_sq += float(np.sum(target**2))
    control = zeta / math.sqrt(L.tg.dt)
    if norm_sq == 0.0:
        return GaussianRateResult(0.0, control, True)
    if math.sqrt(resid_sq / norm_sq) > _REACH_RTOL:
        return GaussianRateResult(math.inf, control, False)
    return GaussianRateResult(0.5 * float(np.sum(zeta**2)), control, True)


def terminal_covariance_blocks(L: DiscreteLOperator) -> np.ndarray:
    """Per-mode 2x2 covariance of (Re Z_j(T), Im Z_j(T)), as a (modes, 2, 2) stack:
    the Gram blocks of the terminal row ``mats[:, -1]``, read off B and the phases."""
    row = (L.chol.T @ L.phase_mid).T * (L.phi * L.phase_t[-1])[:, None]  # (modes, n)
    V = _real_stack(row[:, None, :])  # (modes, 2, n)
    return V @ V.transpose(0, 2, 1)


def cheapest_terminal_rate(L: DiscreteLOperator, delta: float) -> float:
    """Minimal energy to push the terminal response onto the sphere of
    radius delta in L2: delta^2 / (2 lambda_max) with lambda_max the top
    eigenvalue of the terminal covariance, realized along its eigenvector.
    A degenerate covariance, or a rate past float range, raises ValueError."""
    lam = float(np.linalg.eigvalsh(terminal_covariance_blocks(L))[:, -1].max())
    if lam <= 0.0:
        raise ValueError("degenerate terminal covariance: no reachable direction")
    rate = 0.5 * (delta * delta / lam)
    if not math.isfinite(rate):
        raise ValueError(f"terminal rate {rate} is past float range: delta or the covariance overflows")
    return rate
