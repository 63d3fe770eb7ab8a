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
covariance), so dense covariances, the response operator, and the sampler
all describe the same Gaussian vector:

  * Q (direct): midpoint integrand samples sandwiched around the analytic
    increment covariance -- for H > 1/2 via the closed-form weighted double
    integral with the Beta-function constant.
  * L: the same samples composed with the Cholesky factor of the increment
    covariance; L maps control samples h (scaled by sqrt(dt)) to response
    paths, and Q = L L^T holds at machine precision.
  * Sampler: Z = A (B zeta) with zeta standard normal, exact in law.

At H = 1/2 the increments are independent and L reduces to the plain
midpoint-rule quadrature of the Ito convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .fbm import (
    HurstKernel,
    TimeGrid,
    increment_covariance,
    increment_covariance_beta,
    replicate_normals,
)
from .field import GridSpec

__all__ = [
    "CorrelationSpec",
    "ConvolutionSampler",
    "DiscreteLOperator",
    "Control",
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

@lru_cache(maxsize=32)
def _increment_chol(H: float, tg: TimeGrid) -> np.ndarray:
    return np.linalg.cholesky(increment_covariance(H, tg.points))


@dataclass(frozen=True)
class Control:
    """Control h in L2(0,T; L2): one real time series per Fourier mode.

    ``values[j, m]`` is the value on time cell m for mode j; the squared
    norm is sum_j int h_j(s)^2 ds = sum values^2 * dt.
    """

    values: np.ndarray  # (n_modes, n) real cell values
    tg: TimeGrid

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.values**2) * self.tg.dt)

    @property
    def half_energy(self) -> float:
        return 0.5 * self.norm_sq

    @classmethod
    def zero(cls, n_modes: int, tg: TimeGrid) -> "Control":
        return cls(values=np.zeros((n_modes, tg.n)), tg=tg)


class ConvolutionSampler:
    """Reusable sampler: precomputes the increment Cholesky factor and the
    oscillatory midpoint phases shared by every replicate."""

    def __init__(self, spec: CorrelationSpec, kern: HurstKernel, tg: TimeGrid):
        self.tg = tg
        self.n_modes = spec.grid.mode_count
        self.chol = _increment_chol(kern.H, tg)
        xi2 = spec.xi_squared_flat
        self.phase_mid = np.exp(-1j * np.outer(tg.midpoints, xi2))  # (n, modes)
        self.phase_t = np.exp(1j * np.outer(tg.points[1:], xi2))  # (n, modes)
        self.phi = spec.eigenvalues

    def sample_mode_paths(self, seed: int, replicate: int) -> np.ndarray:
        """Mode paths (n + 1, n_modes): ``[k, j]`` is the coefficient of mode
        j at time t_k, drawn from the stream keyed (seed, replicate)."""
        return self.sample_mode_path_batch(seed, range(replicate, replicate + 1))[0]

    def sample_mode_path_batch(self, seed: int, replicates: range) -> np.ndarray:
        """Mode paths (R, n + 1, n_modes); row r draws from the stream keyed
        (seed, replicates[r]), so it does not depend on the batch."""
        shape = (self.tg.n, self.n_modes)
        zeta = replicate_normals(seed, replicates, shape)
        dbh = self.chol @ zeta  # fractional increments, exact joint law
        csum = np.cumsum(self.phase_mid * dbh, axis=1)
        out = np.zeros((len(zeta), self.tg.n + 1, self.n_modes), dtype=complex)
        out[:, 1:] = self.phi * self.phase_t * csum
        return out


# ---------------------------------------------------------------------------
# Response operator L and covariance Q
# ---------------------------------------------------------------------------

_DENSE_LIMIT = 64


def _integrand_matrices(spec: CorrelationSpec, tg: TimeGrid) -> np.ndarray:
    """Lower-triangular midpoint samples A_j[k-1, m] = phi_j g_j(t_k, s_m)."""
    xi2 = spec.xi_squared_flat
    t = tg.points[1:]
    s = tg.midpoints
    mask = np.tril(np.ones((tg.n, tg.n)))
    A = np.exp(1j * (t[:, None] - s[None, :])[None, :, :] * xi2[:, None, None])
    return spec.eigenvalues[:, None, None] * (A * mask)


@dataclass(frozen=True)
class DiscreteLOperator:
    """Per-mode lower-triangular response matrices in whitened coordinates.

    ``mats[j]`` maps the standard-normal innovation vector zeta_j to the
    complex response samples at t_1..t_n; a control h with cell values
    h_j corresponds to zeta_j = sqrt(dt) h_j, which makes

        (L h)_j(t_k) = (mats[j] @ (sqrt(dt) h_j))_k

    the quadrature of int_0^{t_k} (transformed integrand)(s) phi_j h_j(s) ds
    and gives rate(f) = min |zeta|^2 / 2 over L zeta = f.
    """

    mats: np.ndarray  # (n_modes, n, n) complex
    tg: TimeGrid

    @property
    def n_modes(self) -> int:
        return self.mats.shape[0]

    def apply(self, h: Control) -> np.ndarray:
        """Mode paths (n+1, n_modes) of the response to control h."""
        return self.apply_batch(h.values[None])[0]

    def apply_batch(self, values: np.ndarray) -> np.ndarray:
        """Mode paths (R, n+1, n_modes) of the responses to control values (R, n_modes, n)."""
        zeta = math.sqrt(self.tg.dt) * values
        out = np.zeros((values.shape[0], self.tg.n + 1, self.n_modes), dtype=complex)
        out[:, 1:] = np.einsum("jkm,rjm->rkj", self.mats, zeta)
        return out

    def real_factor(self, j: int) -> np.ndarray:
        """Real 2n x n factor stacking (Re, Im) response rows of mode j."""
        return np.vstack([self.mats[j].real, self.mats[j].imag])

    def control_from_innovations(self, zeta: np.ndarray) -> Control:
        return Control(values=zeta / math.sqrt(self.tg.dt), tg=self.tg)


def build_L(spec: CorrelationSpec, kern: HurstKernel, tg: TimeGrid) -> DiscreteLOperator:
    """Assemble the dense per-mode response operator (oracle scale).

    Composes the midpoint integrand samples with the Cholesky factor of the
    exact increment covariance, so causality is preserved (both factors are
    lower triangular) and Q = L L^T holds without quadrature error.  At
    H = 1/2 this is exactly the midpoint-rule Ito quadrature.
    """
    if tg.n > _DENSE_LIMIT:
        raise ValueError(f"dense response assembly is limited to n <= {_DENSE_LIMIT}")
    A = _integrand_matrices(spec, tg)
    B = _increment_chol(kern.H, tg)
    return DiscreteLOperator(mats=A @ B, tg=tg)


def _real_sandwich(A_j: np.ndarray, S: np.ndarray) -> np.ndarray:
    Ar = np.vstack([A_j.real, A_j.imag])
    return Ar @ S @ Ar.T


def build_Q(
    spec: CorrelationSpec, kern: HurstKernel, tg: TimeGrid, method: str = "auto"
) -> np.ndarray:
    """Covariance of the stacked real response samples, assembled directly.

    Block-diagonal over modes; block j is the covariance of
    (Re Z_j(t_1..t_n), Im Z_j(t_1..t_n)).  ``method`` selects how the driving
    increment covariance is computed: "beta" uses the closed-form weighted
    double integral (H > 1/2 only), "difference" uses second differences of
    the path covariance, "auto" prefers "beta" when available.
    """
    if tg.n > _DENSE_LIMIT:
        raise ValueError(f"dense covariance assembly is limited to n <= {_DENSE_LIMIT}")
    if method == "auto":
        method = "beta" if kern.H > 0.5 else "difference"
    if method == "beta":
        S = increment_covariance_beta(kern, tg.points)
    elif method == "difference":
        S = increment_covariance(kern.H, tg.points)
    else:
        raise ValueError(f"unknown covariance assembly method {method!r}")
    A = _integrand_matrices(spec, tg)
    n2 = 2 * tg.n
    n_modes = spec.grid.mode_count
    Q = np.zeros((n_modes * n2, n_modes * n2))
    for j in range(n_modes):
        Q[j * n2 : (j + 1) * n2, j * n2 : (j + 1) * n2] = _real_sandwich(A[j], S)
    return Q


def verify_factorization(Q: np.ndarray, L: DiscreteLOperator) -> float:
    """Max elementwise residual between Q and L L^T (stacked real blocks)."""
    n2 = 2 * L.tg.n
    resid = 0.0
    for j in range(L.n_modes):
        F = L.real_factor(j)
        block = Q[j * n2 : (j + 1) * n2, j * n2 : (j + 1) * n2]
        resid = max(resid, float(np.abs(block - F @ F.T).max()))
    off = Q.copy()
    for j in range(L.n_modes):
        off[j * n2 : (j + 1) * n2, j * n2 : (j + 1) * n2] = 0.0
    return max(resid, float(np.abs(off).max()))


# ---------------------------------------------------------------------------
# Rate functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianRateResult:
    rate: float
    control: Control
    feasible: bool
    rel_residual: float


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
    for j in range(L.n_modes):
        F = L.real_factor(j)
        target = np.concatenate([f_modes[j].real, f_modes[j].imag])
        sol, _, _, _ = np.linalg.lstsq(F, target, rcond=None)
        zeta[j] = sol
        resid_sq += float(np.sum((F @ sol - target) ** 2))
        norm_sq += float(np.sum(target**2))
    control = L.control_from_innovations(zeta)
    if norm_sq == 0.0:
        return GaussianRateResult(0.0, control, True, 0.0)
    rel = math.sqrt(resid_sq / norm_sq)
    if rel > _REACH_RTOL:
        return GaussianRateResult(math.inf, control, False, rel)
    return GaussianRateResult(0.5 * float(np.sum(zeta**2)), control, True, rel)


def terminal_covariance_blocks(L: DiscreteLOperator) -> np.ndarray:
    """Per-mode 2x2 covariance of (Re Z_j(T), Im Z_j(T))."""
    rows = L.mats[:, -1, :]  # (modes, n)
    out = np.empty((L.n_modes, 2, 2))
    for j in range(L.n_modes):
        V = np.vstack([rows[j].real, rows[j].imag])
        out[j] = V @ V.T
    return out


def cheapest_terminal_rate(L: DiscreteLOperator, delta: float) -> tuple[float, Control]:
    """Minimal energy to push the terminal response onto the sphere of
    radius delta in L2: delta^2 / (2 lambda_max) with lambda_max the top
    eigenvalue of the terminal covariance, realized along its eigenvector."""
    blocks = terminal_covariance_blocks(L)
    best = (-1.0, 0, np.zeros(2))
    for j in range(L.n_modes):
        w, V = np.linalg.eigh(blocks[j])
        if w[-1] > best[0]:
            best = (float(w[-1]), j, V[:, -1])
    lam, j_star, direction = best
    if lam <= 0.0:
        raise ValueError("degenerate terminal covariance: no reachable direction")
    row = L.mats[j_star, -1, :]
    F = np.vstack([row.real, row.imag])
    zeta_j, _, _, _ = np.linalg.lstsq(F, delta * direction, rcond=None)
    zeta = np.zeros((L.n_modes, L.tg.n))
    zeta[j_star] = zeta_j
    return 0.5 * float(np.sum(zeta**2)), L.control_from_innovations(zeta)
