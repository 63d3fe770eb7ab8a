"""Fractional Brownian motion: Volterra kernel, transforms, and path samplers.

A fractional Brownian motion (fBm) with Hurst parameter H in (0,1) can be
represented as an integral of a triangular kernel K(t, s) against a standard
Brownian motion.  This module evaluates that kernel and its time derivative,
builds fBm covariance matrices two independent ways, samples paths (dense
Cholesky oracle, plus an FFT circulant-embedding fast path), and implements
the kernel-adjoint transform that maps fBm integrands to Brownian integrands,
together with its duality pairing and, for H > 1/2, the weighted double
integral giving the energy-space inner product of step functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from .errors import InvariantViolation

__all__ = [
    "HurstKernel",
    "TimeGrid",
    "ScalarPathSet",
    "normalization_constant",
    "kernel_eval",
    "kernel_eval_grid",
    "kernel_time_derivative",
    "fbm_covariance",
    "build_covariance_matrix",
    "covariance_from_kernel",
    "increment_covariance",
    "increment_covariance_beta",
    "sample_fbm_exact",
    "sample_fbm_fast",
    "apply_kt_star",
    "apply_kt_star_grid",
    "duality_pairing",
    "rkhs_inner_product",
    "replicate_stream",
    "replicate_normals",
]


def replicate_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for replicate ``index`` under a master ``seed``.

    Keyed directly by (seed, index), so a replicate's draws do not depend on
    how work is sharded across processes or on execution order.
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, index)))


def replicate_normals(seed: int, replicates, shape) -> np.ndarray:
    """Standard normals of shape (len(replicates), *shape): row r equals
    ``replicate_stream(seed, replicates[r]).standard_normal(shape)`` bit for
    bit.  One generator is reset to the fresh state under each replicate's
    key instead of being constructed once per replicate."""
    bitgen = np.random.Philox(key=_stream_key(seed, 0))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    out = np.empty((len(replicates), *np.atleast_1d(shape)))
    for row, index in zip(out, replicates):
        fresh["state"]["key"] = _stream_key(seed, index)
        bitgen.state = fresh
        gen.standard_normal(out=row)
    return out


def _stream_key(seed: int, index: int) -> np.ndarray:
    return np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)


# Byte budget for one draw of the path samplers' normals: the generator cost
# is amortized, and the normals of a large path set never sit in memory at once.
_NORMALS_BYTES = 1 << 17


def _normal_rows(seed: int, replicates: int, size: int):
    """The rows of ``replicate_normals(seed, range(replicates), size)``,
    drawn a block of replicates at a time."""
    block = max(1, _NORMALS_BYTES // (8 * size))
    for start in range(0, replicates, block):
        yield from replicate_normals(seed, range(start, min(start + block, replicates)), size)


def _check_hurst(H: float) -> None:
    if not (0.0 < float(H) < 1.0):
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {H!r}")


def normalization_constant(H: float) -> float:
    """Kernel normalization sqrt(2H G(3/2-H) / (G(H+1/2) G(2-2H))).

    Equals 1 exactly at H = 1/2, where every gamma argument is 1.
    """
    _check_hurst(H)
    num = 2.0 * H * gamma_fn(1.5 - H)
    den = gamma_fn(H + 0.5) * gamma_fn(2.0 - 2.0 * H)
    return float(math.sqrt(num / den))


@dataclass(frozen=True)
class HurstKernel:
    """Hurst parameter bundled with the kernel normalization constant."""

    H: float
    cH: float = dc_field(init=False)

    def __post_init__(self):
        _check_hurst(self.H)
        object.__setattr__(self, "cH", normalization_constant(self.H))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t_0 < t_1 < ... < t_n = T."""

    T: float
    n: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if self.n < 1:
            raise ValueError(f"need at least one step, got n={self.n}")

    @property
    def dt(self) -> float:
        return self.T / self.n

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)

    @cached_property
    def midpoints(self) -> np.ndarray:
        p = self.points
        return 0.5 * (p[:-1] + p[1:])


@dataclass(frozen=True)
class ScalarPathSet:
    """Replicated scalar paths sampled on a time grid; paths start at zero."""

    grid: TimeGrid
    values: np.ndarray  # (replicates, n + 1)


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------

# The fixed quadrature of the kernel-based checks: Gauss-Legendre nodes per
# interior cell and in the square-root mapped first cell of the covariance
# reconstruction, kernel rows evaluated per block, and the order of the
# duality pairing's cell rule.
_CELL_NODES = 8
_FIRST_CELL_NODES = 32
_KERNEL_CHUNK = 32
_DUALITY_ORDER = 24


def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` mapped onto (0, 1)."""
    x, w = leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _bracket(H: float, v2_over_s):
    # 1 - (s/(s+v^2))^{1/2-H}, stable when v^2/s underflows the naive form
    return -np.expm1(-(0.5 - H) * np.log1p(v2_over_s))


def _kernel_integral_quad(H: float, t: float, s: float) -> float:
    # integral_s^t (u-s)^{H-3/2} (1-(s/u)^{1/2-H}) du after u = s + v^2,
    # which removes the endpoint singularity analytically
    V = math.sqrt(t - s)

    def f(v):
        if v <= 0.0:
            return 0.0
        return 2.0 * v ** (2.0 * H - 2.0) * float(_bracket(H, v * v / s))

    val, _ = quad(f, 0.0, V, epsabs=1e-14, epsrel=1e-11, limit=200)
    return val


def kernel_eval(kern: HurstKernel, t: float, s: float) -> float:
    """Triangular kernel K(t, s); zero whenever s > t.

    The correction integral is evaluated by adaptive quadrature in the
    square-root substituted variable.  At H = 1/2 the kernel is identically
    1 on {0 < s < t}.
    """
    H, cH = kern.H, kern.cH
    if s <= 0.0:
        raise ValueError(f"kernel requires s > 0, got s={s}")
    if s > t:
        return 0.0
    if s == t:
        if H > 0.5:
            return 0.0
        return 1.0 if H == 0.5 else math.inf
    if H == 0.5:
        return 1.0
    core = cH * (t - s) ** (H - 0.5)
    return core + cH * (0.5 - H) * _kernel_integral_quad(H, t, s)


def kernel_eval_grid(kern: HurstKernel, t, s, order: int = 48) -> np.ndarray:
    """Vectorized K(t, s) over broadcast arrays, fixed Gauss-Legendre order.

    Entries with s >= t evaluate to 0; entries require s > 0.  Used for bulk
    kernel evaluation (covariance quadrature, transform telescoping); the
    scalar :func:`kernel_eval` is the adaptive high-accuracy reference.
    """
    H, cH = kern.H, kern.cH
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("kernel requires s > 0")
    t, s = np.broadcast_arrays(t, s)
    out = np.zeros(t.shape, dtype=float)
    mask = s < t
    if not np.any(mask):
        return out
    if H == 0.5:
        out[mask] = 1.0
        return out
    tm = t[mask]
    sm = s[mask]
    V = np.sqrt(tm - sm)
    xg, wg = _unit_rule(order)
    v = V[..., None] * xg
    integrand = 2.0 * v ** (2.0 * H - 2.0) * _bracket(H, v * v / sm[..., None])
    integral = V * (integrand @ wg)
    out[mask] = cH * (tm - sm) ** (H - 0.5) + cH * (0.5 - H) * integral
    return out


def kernel_time_derivative(kern: HurstKernel, t: float, s: float) -> float:
    """dK/dt (t, s) = cH (H - 1/2) (t-s)^{H-3/2} (s/t)^{1/2-H} for 0 < s < t.

    Sign equals sign(H - 1/2): the kernel decreases in t for H < 1/2 and
    increases for H > 1/2 (finite differences of :func:`kernel_eval` confirm).
    Not defined at s = t, where the singularity is non-integrable pointwise.
    """
    if not (0.0 < s < t):
        raise ValueError(f"time derivative needs 0 < s < t, got s={s}, t={t}")
    H, cH = kern.H, kern.cH
    return cH * (H - 0.5) * (t - s) ** (H - 1.5) * (s / t) ** (0.5 - H)


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------

def fbm_covariance(H: float, t, s):
    """R(t, s) = (s^{2H} + t^{2H} - |s-t|^{2H}) / 2 for t, s >= 0."""
    _check_hurst(H)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(s < 0.0):
        raise ValueError("covariance defined for nonnegative times")
    val = 0.5 * (s ** (2 * H) + t ** (2 * H) - np.abs(s - t) ** (2 * H))
    return float(val) if val.ndim == 0 else val


def build_covariance_matrix(H: float, grid: TimeGrid) -> np.ndarray:
    """Covariance matrix on the grid points t_1..t_n (t_0 = 0 excluded).

    Definiteness is not checked here: :func:`sample_fbm_exact` factors the
    matrix, and a failed Cholesky factorization raises there.
    """
    t = grid.points[1:]
    return fbm_covariance(H, t[:, None], t[None, :])


def covariance_from_kernel(kern: HurstKernel, grid: TimeGrid) -> np.ndarray:
    """Covariance reconstructed as the quadrature of int_0^{t ^ s} K(t,r) K(s,r) dr.

    Independent of :func:`build_covariance_matrix`; uses shared composite
    Gauss-Legendre nodes, with the first cell mapped through r = t_1 y^2 to
    absorb the r -> 0 kernel singularity.
    """
    pts = grid.points
    y, wy = _unit_rule(_FIRST_CELL_NODES)
    r_first = pts[1] * y * y
    w_first = pts[1] * 2.0 * y * wy
    if grid.n > 1:
        xm, wm = _unit_rule(_CELL_NODES)
        a = pts[1:-1]
        width = np.diff(pts)[1:]
        r_rest = (a[:, None] + width[:, None] * xm).ravel()
        w_rest = (width[:, None] * wm).ravel()
        r = np.concatenate([r_first, r_rest])
        wq = np.concatenate([w_first, w_rest])
    else:
        r, wq = r_first, w_first
    t = pts[1:]
    Kmat = np.empty((t.size, r.size))
    for lo in range(0, t.size, _KERNEL_CHUNK):
        hi = min(lo + _KERNEL_CHUNK, t.size)
        Kmat[lo:hi] = kernel_eval_grid(kern, t[lo:hi, None], r[None, :])
    return (Kmat * wq) @ Kmat.T


def increment_covariance(H: float, points: np.ndarray) -> np.ndarray:
    """Covariance of fBm increments over consecutive cells of ``points``.

    Entry (m, m') is Cov(B(b_m) - B(a_m), B(b_m') - B(a_m')), evaluated from
    second differences of the analytic covariance.
    """
    _check_hurst(H)
    points = np.asarray(points, dtype=float)
    a = points[:-1]
    b = points[1:]

    def p2h(x):
        return np.abs(x) ** (2.0 * H)

    return 0.5 * (
        p2h(b[:, None] - a[None, :])
        + p2h(a[:, None] - b[None, :])
        - p2h(a[:, None] - a[None, :])
        - p2h(b[:, None] - b[None, :])
    )


def increment_covariance_beta(kern: HurstKernel, points: np.ndarray) -> np.ndarray:
    """Same matrix as :func:`increment_covariance`, via the weighted double
    integral c^2 (H-1/2)^2 B(2-2H, H-1/2) int int |u-v|^{2H-2} du dv over cell
    pairs, with the cell integrals in closed form.  Requires H > 1/2.
    """
    H = kern.H
    if H <= 0.5:
        raise ValueError("beta-weighted covariance requires H > 1/2")
    alpha = kern.cH**2 * (H - 0.5) ** 2 * beta_fn(2.0 - 2.0 * H, H - 0.5)
    points = np.asarray(points, dtype=float)
    a = points[:-1]
    b = points[1:]
    denom = 2.0 * H * (2.0 * H - 1.0)

    def G(x):
        return np.abs(x) ** (2.0 * H) / denom

    W = (
        G(b[:, None] - a[None, :])
        + G(a[:, None] - b[None, :])
        - G(a[:, None] - a[None, :])
        - G(b[:, None] - b[None, :])
    )
    return alpha * W


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_fbm_exact(H: float, grid: TimeGrid, replicates: int, seed: int) -> ScalarPathSet:
    """Exact sampler: Cholesky factor of the analytic covariance matrix.

    This is the distributional oracle the fast sampler is tested against.
    Replicate i draws from the counter-based stream keyed (seed, i).
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    R = build_covariance_matrix(H, grid)
    try:
        C = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolation(
            f"covariance Cholesky failed for H={H}, n={grid.n}: {exc}"
        ) from exc
    values = np.zeros((replicates, grid.n + 1))
    for i, z in enumerate(_normal_rows(seed, replicates, grid.n)):
        values[i, 1:] = C @ z
    return ScalarPathSet(grid=grid, values=values)


def _circulant_eigenvalues(H: float, n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1.0) ** (2 * H) - 2.0 * k ** (2 * H) + np.abs(k - 1.0) ** (2 * H))
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2n
    return np.fft.fft(first_row).real


def sample_fbm_fast(H: float, grid: TimeGrid, replicates: int, seed: int) -> ScalarPathSet:
    """Circulant-embedding sampler for the stationary increment sequence.

    Distributionally equal to :func:`sample_fbm_exact`; O(n log n) per path,
    intended for large n.  Falls back to the exact sampler when the embedding
    is not nonnegative definite.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    _check_hurst(H)
    n = grid.n
    eigs = _circulant_eigenvalues(H, n)
    if eigs.min() < -1e-8 * eigs.max():
        return sample_fbm_exact(H, grid, replicates, seed)
    eigs = np.clip(eigs, 0.0, None)
    scale = grid.dt**H  # unit-spacing increments rescaled by self-similarity
    coeff = np.sqrt(eigs)
    values = np.zeros((replicates, n + 1))
    for i, z in enumerate(_normal_rows(seed, replicates, 2 * n)):
        xi = np.empty(2 * n, dtype=complex)
        xi[0] = z[0]
        xi[n] = z[1]
        re = z[2 : n + 1]
        im = z[n + 1 : 2 * n]
        xi[1:n] = (re + 1j * im) / math.sqrt(2.0)
        xi[n + 1 :] = np.conj(xi[1:n][::-1])
        fgn = math.sqrt(2.0 * n) * np.fft.ifft(coeff * xi).real[:n]
        values[i, 1:] = scale * np.cumsum(fgn)
    return ScalarPathSet(grid=grid, values=values)


# ---------------------------------------------------------------------------
# Kernel-adjoint transform on piecewise-constant paths
# ---------------------------------------------------------------------------

def _cell_index(points: np.ndarray, s: float) -> int:
    idx = int(np.searchsorted(points, s, side="right")) - 1
    return min(max(idx, 0), len(points) - 2)


def apply_kt_star(kern: HurstKernel, values: np.ndarray, points: np.ndarray, s: float) -> float:
    """Transform of a piecewise-constant path, evaluated at 0 < s < horizon.

    ``values[m]`` is the path value on [points[m], points[m+1]); the horizon
    is points[-1].  The jump decomposition makes the formula exact for this
    path class: phi(s) K(T, s) plus telescoped kernel differences over the
    cells to the right of s.
    """
    points = np.asarray(points, dtype=float)
    T = points[-1]
    if not 0.0 < s < T:
        raise ValueError(f"need 0 < s < horizon={T}, got s={s}")
    m_s = _cell_index(points, s)
    phi_s = values[m_s]
    out = phi_s * kernel_eval(kern, T, s)
    for m in range(m_s + 1, len(values)):
        dphi = values[m] - phi_s
        if dphi != 0.0:
            out += dphi * (kernel_eval(kern, points[m + 1], s) - kernel_eval(kern, points[m], s))
    return out


def apply_kt_star_grid(
    kern: HurstKernel, values: np.ndarray, points: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`apply_kt_star` over an array of evaluation points."""
    points = np.asarray(points, dtype=float)
    s = np.asarray(s, dtype=float)
    T = points[-1]
    if np.any(s <= 0.0) or np.any(s >= T):
        raise ValueError("evaluation points must lie strictly inside (0, horizon)")
    M = len(values)
    # K(points[m], s_q) for all boundaries; entries with points[m] <= s are 0
    Kb = np.zeros((M + 1, s.size))
    for m in range(1, M + 1):
        Kb[m] = kernel_eval_grid(kern, points[m], s)
    cell = np.searchsorted(points, s, side="right") - 1
    cell = np.clip(cell, 0, M - 1)
    phi_s = np.asarray(values, dtype=float)[cell]
    out = phi_s * Kb[M]
    for m in range(1, M):
        active = cell < m  # cells strictly right of the one containing s
        if np.any(active):
            dphi = values[m] - phi_s[active]
            out[active] += dphi * (Kb[m + 1][active] - Kb[m][active])
    return out


def _cell_quadrature_nodes(a: float, b: float, order: int):
    """Quadrature nodes/weights on (a, b) graded into both endpoints.

    The cell is split at its midpoint and each half mapped through a
    square-root change of variable clustering nodes at the outer endpoint,
    which absorbs the algebraic kernel behavior at cell boundaries.
    """
    y, wy = _unit_rule(order)
    half = 0.5 * (b - a)
    left_nodes = a + half * y * y
    right_nodes = b - half * y * y
    gw = half * 2.0 * y * wy
    return np.concatenate([left_nodes, right_nodes]), np.concatenate([gw, gw])


def duality_pairing(
    kern: HurstKernel, phi_values: np.ndarray, h_values: np.ndarray, tg: TimeGrid
) -> tuple[float, float]:
    """Both sides of the transform duality for piecewise-constant phi and h.

    Left side: int_0^T (K_T* phi)(t) h(t) dt by graded cell quadrature.
    Right side: int_0^T phi(t) (Kh)(dt) with (Kh)(t) = int_0^t K(t,s) h(s) ds,
    the measure integral evaluated exactly on the jumps of phi.  The two sides
    use deliberately different node sets so their agreement measures genuine
    quadrature convergence rather than shared arithmetic.
    """
    pts = tg.points
    n = tg.n
    phi_values = np.asarray(phi_values, dtype=float)
    h_values = np.asarray(h_values, dtype=float)

    # LHS
    lhs = 0.0
    for m in range(n):
        nodes, weights = _cell_quadrature_nodes(pts[m], pts[m + 1], _DUALITY_ORDER)
        vals = apply_kt_star_grid(kern, phi_values, pts, nodes)
        lhs += h_values[m] * float(vals @ weights)

    # RHS: Kh at every grid point, on an unrelated (coarser odd) node set
    order_rhs = _DUALITY_ORDER + 7
    Kh = np.zeros(n + 1)
    for m in range(1, n + 1):
        t_m = pts[m]
        total = 0.0
        for mp in range(m):
            nodes, weights = _cell_quadrature_nodes(pts[mp], pts[mp + 1], order_rhs)
            kv = kernel_eval_grid(kern, t_m, nodes)
            total += h_values[mp] * float(kv @ weights)
        Kh[m] = total
    rhs = float(np.sum(phi_values * np.diff(Kh)))
    return lhs, rhs


def rkhs_inner_product(
    kern: HurstKernel,
    phi_values: np.ndarray,
    psi_values: np.ndarray,
    tg: TimeGrid,
) -> float:
    """Energy-space inner product of piecewise-constant paths for H > 1/2.

    The weight |u-v|^{2H-2} is integrated in closed form over every cell
    pair, so the result is exact for this path class.
    """
    if kern.H <= 0.5:
        raise ValueError("inner product in this form requires H > 1/2")
    S = increment_covariance_beta(kern, tg.points)
    phi = np.asarray(phi_values, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    return float(phi @ S @ psi)
