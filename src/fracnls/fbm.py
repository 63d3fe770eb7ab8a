"""Fractional Brownian motion: Volterra kernel, transforms, and path samplers.

A fractional Brownian motion (fBm) with Hurst parameter H in (0,1) can be
represented as an integral of a triangular kernel K(t, s) against a standard
Brownian motion.  This module evaluates that kernel and its time derivative,
builds fBm covariance matrices two independent ways, samples paths (an exact
oracle, plus an FFT circulant-embedding fast path), and implements the
kernel-adjoint transform that maps fBm integrands to Brownian integrands,
together with its duality pairing and, for H > 1/2, the weighted double
integral giving the energy-space inner product of step functions.

The increments' law on a uniform grid lives in one place: the fGn lags
(:func:`_fgn_autocovariance`), which the circulant embedding reads, and their
Toeplitz factor (:func:`_increment_factor`), which the exact sampler and the
response map of ``noise`` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvariantViolation

__all__ = [
    "TimeGrid",
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
    key instead of being constructed once per replicate: Philox is
    counter-based, so the key alone fixes a stream.  The state is held as
    plain ints, which the state setter reads faster than uint64 arrays, and
    only the key's index word changes from row to row."""
    bitgen = np.random.Philox(key=_stream_key(seed, 0))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    out = np.empty((len(replicates), *np.atleast_1d(shape)))
    for row, index in zip(out, replicates):
        key[1] = index
        bitgen.state = fresh
        gen.standard_normal(out=row)
    return out


def _stream_key(seed: int, index: int) -> np.ndarray:
    return np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)


# Byte budget for one block of rows of every batched path: the normals of the
# samplers, the replicate mode paths and the states stepped from them.  The
# per-call cost is amortized, and a large run never sits in memory at once.
_BLOCK_BYTES = 1 << 19


def _block_rows(row_bytes: int) -> int:
    """Rows in one block: as many as ``_BLOCK_BYTES`` holds, one at the least."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _row_blocks(rows: int, row_bytes: int):
    """``range(rows)`` in consecutive blocks of ``_block_rows(row_bytes)`` rows,
    the last one shorter: the block rule of every batched path."""
    block = _block_rows(row_bytes)
    for start in range(0, rows, block):
        yield range(start, min(start + block, rows))


def _check_hurst(H: float) -> None:
    if not (0.0 < float(H) < 1.0):
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {H!r}")


def normalization_constant(H: float) -> float:
    """Kernel normalization sqrt(2H G(3/2-H) / (G(H+1/2) G(2-2H))).

    Equals 1 exactly at H = 1/2, where every gamma argument is 1.
    """
    _check_hurst(H)
    num = 2.0 * H * math.gamma(1.5 - H)
    den = math.gamma(H + 0.5) * math.gamma(2.0 - 2.0 * H)
    return math.sqrt(num / den)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t_0 < t_1 < ... < t_n = T."""

    T: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
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


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------

# The fixed quadrature of the kernel-based checks: Gauss-Legendre nodes per
# interior cell and in the square-root mapped first cell of the covariance
# reconstruction, and the order of the duality pairing's cell rule.
_CELL_NODES = 8
_FIRST_CELL_NODES = 32
_DUALITY_ORDER = 24


@lru_cache(maxsize=32)  # the library uses 7 orders
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` mapped onto (0, 1).

    Computed once per order (each ``leggauss`` call solves an eigenproblem)
    and shared by every caller, so both arrays are read-only.
    """
    x, w = leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _bracket(H: float, v2_over_s):
    # 1 - (s/(s+v^2))^{1/2-H}, stable when v^2/s underflows the naive form
    return -np.expm1(-(0.5 - H) * np.log1p(v2_over_s))


# The most terms the kernel's hypergeometric series sums: enough for
# s/t >= 0.01 at every H, which takes at most 3651.
_KERNEL_SERIES_TERMS = 4096


def _kernel_series(H: float, t: float, s: float) -> float:
    # 2F1(H-1/2, 2H; H+1/2; x) at x = (t-s)/t as a power series.  From its
    # second term on every term has the sign of H - 1/2 and is less than x
    # times the one before, so the tail past a term is below |term| x/(1-x)
    a, b, c = H - 0.5, 2.0 * H, H + 0.5
    x = (t - s) / t
    tail = (t - s) / s  # x / (1 - x)
    term = total = 1.0
    for n in range(_KERNEL_SERIES_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        if abs(term) * tail <= 2.0**-53 * abs(total):  # below half an ulp of the sum
            return total
    raise ValueError(f"kernel series needs more than {_KERNEL_SERIES_TERMS} terms at s/t = {s / t:.3g} "
                     "(enough for s/t >= 0.01 at every H)")


def kernel_eval(H: float, t: float, s: float) -> float:
    """Triangular kernel K(t, s); zero whenever s > t.

    Evaluated in closed form (Decreusefond & Ustunel, Potential Anal. 10,
    1999), K(t, s) = c_H (t-s)^{H-1/2} 2F1(H-1/2, 1/2-H; H+1/2; 1-t/s),
    after Pfaff's transformation to c_H (t-s)^{H-1/2} (t/s)^{1/2-H}
    2F1(H-1/2, 2H; H+1/2; (t-s)/t), whose power series is summed until the
    tail is below half an ulp.  It is independent of the fixed quadrature
    rules of :func:`kernel_eval_grid`.  The series slows as s/t -> 0: past
    ``_KERNEL_SERIES_TERMS`` terms (s/t below about 0.01) it raises
    ValueError rather than return a truncated sum.  At H = 1/2 the kernel is
    identically 1 on {0 < s < t}.
    """
    cH = normalization_constant(H)
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
    return cH * (t - s) ** (H - 0.5) * (t / s) ** (0.5 - H) * _kernel_series(H, t, s)


def kernel_eval_grid(H: float, t, s, order: int = 48) -> np.ndarray:
    """Vectorized K(t, s) over broadcast arrays, fixed Gauss-Legendre order.

    Entries with s >= t evaluate to 0; entries require s > 0.  Used for bulk
    kernel evaluation (covariance quadrature, transform telescoping); the
    scalar :func:`kernel_eval`, in closed form, is the reference it is
    checked against.

    The entries with s < t, in C order, are evaluated in consecutive blocks
    of ``_block_rows(8 * order)`` entries (1365 at order 48), the block rule
    of every batched path: a block's ``order`` nodes per entry, integrand and
    weighted sum are formed and written before the next block starts.  The
    weighted sum is one BLAS product per block, so an entry's last bit can
    depend on its place in its block and on the BLAS thread count.
    """
    cH = normalization_constant(H)
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
    xg, wg = _unit_rule(order)
    for rows in _row_blocks(tm.size, 8 * order):
        tb, sb = tm[rows.start : rows.stop], sm[rows.start : rows.stop]
        V = np.sqrt(tb - sb)
        v = V[..., None] * xg
        integrand = 2.0 * v ** (2.0 * H - 2.0) * _bracket(H, v * v / sb[..., None])
        integral = V * (integrand @ wg)
        # a block's kernel values replace its t's, which no later block reads
        tm[rows.start : rows.stop] = cH * (tb - sb) ** (H - 0.5) + cH * (0.5 - H) * integral
    out[mask] = tm
    return out


def kernel_time_derivative(H: float, t: float, s: float) -> float:
    """dK/dt (t, s) = cH (H - 1/2) (t-s)^{H-3/2} (s/t)^{1/2-H} for 0 < s < t.

    Sign equals sign(H - 1/2): the kernel decreases in t for H < 1/2 and
    increases for H > 1/2 (finite differences of :func:`kernel_eval` confirm).
    Not defined at s = t, where the singularity is non-integrable pointwise.
    """
    if not (0.0 < s < t):
        raise ValueError(f"time derivative needs 0 < s < t, got s={s}, t={t}")
    cH = normalization_constant(H)
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

    The oracles' and tests' reference for the exact sampler, which does not
    read it: its Cholesky factor is the row-wise cumulative sum of
    :func:`_increment_factor`, times dt^H.  Definiteness is not checked here.
    """
    t = grid.points[1:]
    return fbm_covariance(H, t[:, None], t[None, :])


def covariance_from_kernel(H: float, grid: TimeGrid) -> np.ndarray:
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
    Kmat = kernel_eval_grid(H, pts[1:, None], r[None, :])
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


def increment_covariance_beta(H: float, points: np.ndarray) -> np.ndarray:
    """Same matrix as :func:`increment_covariance`, via the weighted double
    integral c^2 (H-1/2)^2 B(2-2H, H-1/2) int int |u-v|^{2H-2} du dv over cell
    pairs, with the cell integrals in closed form.  Requires H > 1/2.
    """
    cH = normalization_constant(H)
    if H <= 0.5:
        raise ValueError("beta-weighted covariance requires H > 1/2")
    g = math.gamma
    beta = g(2.0 - 2.0 * H) * g(H - 0.5) / g(1.5 - H)  # B(2-2H, H-1/2)
    alpha = cH**2 * (H - 0.5) ** 2 * beta
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

def sample_fbm_exact(H: float, grid: TimeGrid, replicates: int, seed: int) -> np.ndarray:
    """Exact sampler: paths (replicates, n + 1) on ``grid``, each starting at
    zero, from the lower Cholesky factor of the analytic path covariance
    (:func:`_path_factor`), applied by :func:`_exact_paths`.

    This is the distributional oracle the fast sampler is tested against.
    Replicate i draws from the counter-based stream keyed (seed, i).  The
    factor multiplies blocks of replicates, the last one zero-padded to the
    same row count, so replicate i always sits at row i mod block of products
    of fixed shapes: its bits depend on (H, n, seed, i), not on
    ``replicates``.  They may depend on the BLAS thread count, which can
    change how a product is split: at n 1024 the bits agree at one thread
    and two, at n 1000 they do not.  No artifact reads this sampler.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    n = grid.n
    C = _path_factor(H, grid)
    block = _block_rows(8 * n)
    values = np.zeros((replicates, n + 1))
    for rows in _row_blocks(replicates, 8 * n):
        Z = np.zeros((block, n))  # a short last block stays zero-padded to the full shape
        Z[: len(rows)] = replicate_normals(seed, rows, n)
        values[rows.start : rows.stop, 1:] = _exact_paths(C, Z)[: len(rows)]
    return values


def _path_factor(H: float, grid: TimeGrid) -> np.ndarray:
    """Lower Cholesky factor of the path covariance on t_1..t_n: the row-wise
    cumulative sum of :func:`_increment_factor`, times dt^H."""
    C = _increment_factor(H, grid.n)
    np.cumsum(C, axis=0, out=C)  # a path value is the running sum of its increments
    C *= grid.dt**H  # unit-spacing increments rescaled by self-similarity
    return C


# Column panels of the exact sampler's product.  Its factor is lower
# triangular, so the columns of a panel ending at column b read only the first
# b normals of a row, and P equal panels do (P + 1) / 2P of the dense
# product's flops, at the cost of P products.  The products of 1000
# replicates at n 1024 (16 blocks of 64 rows), one BLAS thread (OpenBLAS
# 0.3.31, Haswell kernels, 2-CPU host), median of 9 in two runs: dense
# 55-57 ms, 2 panels 45-55, 3 42-47, 4 39-40, 6 and 8 41-43, 16 44-45, 32 55-57.
_EXACT_PANELS = 4


def _exact_paths(C: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``Z @ C.T`` for a lower triangular C (n, n) and normals Z (rows, n),
    one product per column panel, each reading only the part of C on or below
    its diagonal.  The zeros it skips add nothing, so the result equals the
    dense product to rounding."""
    n = C.shape[0]
    out = np.empty((len(Z), n))
    edges = [n * p // _EXACT_PANELS for p in range(_EXACT_PANELS + 1)]
    for lo, hi in zip(edges, edges[1:]):
        if lo < hi:  # n below the panel count leaves some panels empty
            # the transposed slice is a view: BLAS reads it transposed, with no copy
            np.matmul(Z[:, :hi], C[lo:hi, :hi].T, out=out[:, lo:hi])
    return out


def _fgn_autocovariance(H: float, n: int) -> np.ndarray:
    """Lags 0..n-1 of unit-step fractional Gaussian noise, the first column of
    its Toeplitz covariance: gamma(k) = ((k+1)^{2H} - 2 k^{2H} + (k-1)^{2H}) / 2,
    which expm1 and log1p keep from cancelling.  At H = 1/2 the increments are
    independent and the lags are (1, 0, ..., 0) exactly, where the expression
    would leave rounding of about 1e-16.
    """
    _check_hurst(H)
    lags = np.zeros(n)
    lags[0] = 1.0
    if H != 0.5:
        k = np.arange(1, n, dtype=float)
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1, where expm1 gives -1
            lags[1:] = 0.5 * k ** (2 * H) * (np.expm1(2 * H * np.log1p(1 / k)) + np.expm1(2 * H * np.log1p(-1 / k)))
    return lags


def _increment_factor(H: float, n: int) -> np.ndarray:
    """Lower Cholesky factor F (n, n) of the Toeplitz covariance of n unit-step
    fGn increments, F F^T = (gamma(|i - j|)), by the Schur algorithm.

    The generators start as a = the lags and b = the lags with b[0] = 0.  Each
    step takes a as the next column of F, shifts it one row down, and applies
    the hyperbolic rotation that zeroes b[0], in the mixed form that is stable
    for positive-definite Toeplitz matrices (Bojanczyk, Brent, de Hoog & Sweet,
    SIAM J. Matrix Anal. Appl. 16, 1995).  The updates are elementwise, with no
    BLAS call, so the bits do not depend on the BLAS thread count.  A pivot
    |rho| >= 1 (the covariance is not positive definite in floating point)
    raises :class:`InvariantViolation`.
    """
    a = _fgn_autocovariance(H, n)
    b = a.copy()
    b[0] = 0.0
    upper = np.zeros((n, n))  # F^T, written one contiguous row at a time
    upper[0] = a
    for k in range(1, n):
        a, b = a[:-1], b[1:]
        rho = b[0] / a[0]
        if not abs(rho) < 1.0:
            raise InvariantViolation(f"fGn covariance of H={H}, n={n} is not positive definite: "
                                     f"Schur pivot {rho:.17g} at step {k}")
        s = math.sqrt((1.0 - rho) * (1.0 + rho))
        a = (a - rho * b) / s
        b = s * b - rho * a
        upper[k, k:] = a
    return upper.T


def _circulant_eigenvalues(H: float, n: int) -> np.ndarray:
    """Minimal circulant embedding of unit-step fGn, from its lags 0..n."""
    lags = _fgn_autocovariance(H, n + 1)
    return np.fft.fft(np.concatenate([lags, lags[-2:0:-1]])).real  # lags 0..n..1, length 2n


def sample_fbm_fast(H: float, grid: TimeGrid, replicates: int, seed: int) -> np.ndarray:
    """Circulant-embedding sampler for the stationary increment sequence.

    Paths (replicates, n + 1) on ``grid``, equal in law to :func:`sample_fbm_exact`'s;
    O(n log n) per path, for large n.  Replicate i reads 2n normals from the
    stream keyed (seed, i), which :func:`_fast_paths` maps to its path.  The
    map makes no BLAS call, so the bits do not depend on the BLAS thread count.
    It never falls back: an eigenvalue below -1e-8 x the largest raises :class:`InvariantViolation`.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    _check_hurst(H)
    n = grid.n
    weights = _spectral_weights(H, grid)
    values = np.zeros((replicates, n + 1))
    # one transform per block of rows; each row is computed exactly as alone
    for rows in _row_blocks(replicates, 16 * n):
        values[rows.start : rows.stop, 1:] = _fast_paths(weights, replicate_normals(seed, rows, 2 * n))
    return values


def _spectral_weights(H: float, grid: TimeGrid) -> np.ndarray:
    """Weights of the n + 1 non-negative frequency bins of the circulant
    embedding on ``grid``: the square roots of its eigenvalues 0..n, times
    dt^H / sqrt(2n), and times a further 1/sqrt 2 at the complex bins 1..n-1.
    An eigenvalue below -1e-8 x the largest raises :class:`InvariantViolation`;
    one above it is rounding, and counts as zero."""
    n = grid.n
    eigs = _circulant_eigenvalues(H, n)
    if eigs.min() < -1e-8 * eigs.max():
        raise InvariantViolation(f"circulant embedding of H={H}, n={n} has eigenvalue {eigs.min():.3e}")
    weights = np.sqrt(np.clip(eigs[: n + 1], 0.0, None))
    weights *= grid.dt**H / math.sqrt(2.0 * n)  # unit-spacing increments rescaled by self-similarity
    weights[1:n] /= math.sqrt(2.0)
    return weights


def _fast_paths(weights: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Paths t_1..t_n (rows, n) of the circulant embedding from normals Z (rows, 2n).

    A row's spectrum is Hermitian: Z[0] and Z[1] weigh the real bins 0 and n,
    and Z[2 + k] + i Z[n + 1 + k] the complex bin 1 + k, whose conjugate
    mirror at 2n - 1 - k the real inverse transform of length 2n implies.  So
    only the n + 1 non-negative frequency bins are built and transformed.  The
    first n values of that transform are the increments, and a path is their
    running sum.  The transform is unnormalized, as ``weights`` carry the
    scale."""
    n = Z.shape[1] // 2
    spectrum = np.zeros((len(Z), n + 1), dtype=complex)
    spectrum.real[:, 0] = Z[:, 0]
    spectrum.real[:, 1:n] = Z[:, 2 : n + 1]
    spectrum.imag[:, 1:n] = Z[:, n + 1 :]
    spectrum.real[:, n] = Z[:, 1]
    spectrum *= weights
    increments = np.fft.irfft(spectrum, 2 * n, axis=-1, norm="forward")[:, :n]
    return np.cumsum(increments, axis=1)


# ---------------------------------------------------------------------------
# Kernel-adjoint transform on piecewise-constant paths
# ---------------------------------------------------------------------------

def apply_kt_star(H: float, values: np.ndarray, points: np.ndarray, s) -> np.ndarray:
    """Transform of a piecewise-constant path at the points 0 < s < horizon.

    ``values[m]`` is the path value on [points[m], points[m+1]); the horizon
    is points[-1].  The jump decomposition makes the formula exact for this
    path class: phi(s) K(T, s) plus telescoped kernel differences over the
    cells to the right of s.  ``s`` is an array of any shape, a scalar giving
    a 0-d result; every kernel value comes from one :func:`kernel_eval_grid`
    call over the cell boundaries t_1..t_M and the points.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    s = np.asarray(s, dtype=float)
    T = points[-1]
    if np.any(s <= 0.0) or np.any(s >= T):
        raise ValueError(f"evaluation points must lie strictly inside (0, horizon={T})")
    M = len(values)
    cell = np.clip(np.searchsorted(points, s, side="right") - 1, 0, M - 1)
    phi_s = values[cell]
    # K(t_m, s) for m = 1..M; entries with t_m <= s are 0, so the differences
    # vanish left of the cell holding s, and dphi vanishes on that cell
    Kb = kernel_eval_grid(H, points[1:].reshape(-1, *(1,) * s.ndim), s)
    dK = np.diff(Kb, axis=0, prepend=0.0)
    dphi = values.reshape(-1, *(1,) * s.ndim) - phi_s
    return phi_s * Kb[-1] + np.sum(dphi * dK, axis=0)


def _cell_quadrature_nodes(a, b, order: int):
    """Quadrature nodes/weights on the cells (a, b), graded into both endpoints.

    Each cell is split at its midpoint and each half mapped through a
    square-root change of variable clustering nodes at the outer endpoint,
    which absorbs the algebraic kernel behavior at cell boundaries.  ``a`` and
    ``b`` are arrays of cell ends (or scalars); the nodes and weights of a
    cell run along the last axis, 2 ``order`` of each.
    """
    y, wy = _unit_rule(order)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    left_nodes = a + half * y * y
    right_nodes = b - half * y * y
    gw = half * 2.0 * y * wy
    return np.concatenate([left_nodes, right_nodes], axis=-1), np.concatenate([gw, gw], axis=-1)


def duality_pairing(H: float, phi_values: np.ndarray, h_values: np.ndarray, tg: TimeGrid) -> tuple[float, float]:
    """Both sides of the transform duality for piecewise-constant phi and h.

    Left side: int_0^T (K_T* phi)(t) h(t) dt by graded cell quadrature.
    Right side: int_0^T phi(t) (Kh)(dt) with (Kh)(t) = int_0^t K(t,s) h(s) ds,
    the measure integral evaluated exactly on the jumps of phi.  The two sides
    use deliberately different node sets so their agreement measures genuine
    quadrature convergence rather than shared arithmetic.
    """
    pts = tg.points
    phi_values = np.asarray(phi_values, dtype=float)
    h_values = np.asarray(h_values, dtype=float)

    # LHS: the transform at every cell's nodes, (n, 2 order)
    nodes, weights = _cell_quadrature_nodes(pts[:-1], pts[1:], _DUALITY_ORDER)
    vals = apply_kt_star(H, phi_values, pts, nodes)
    lhs = float(np.sum(vals * weights, axis=1) @ h_values)

    # RHS: Kh at t_1..t_n on an unrelated (coarser odd) node set; K(t_m, s)
    # is 0 for nodes s >= t_m, so each row sums over the cells left of t_m
    nodes, weights = _cell_quadrature_nodes(pts[:-1], pts[1:], _DUALITY_ORDER + 7)
    kv = kernel_eval_grid(H, pts[1:, None, None], nodes)
    Kh = np.zeros(tg.n + 1)
    Kh[1:] = np.sum(kv * weights, axis=2) @ h_values
    rhs = float(np.sum(phi_values * np.diff(Kh)))
    return lhs, rhs


def rkhs_inner_product(H: float, phi_values: np.ndarray, psi_values: np.ndarray, tg: TimeGrid) -> float:
    """Energy-space inner product of piecewise-constant paths for H > 1/2.

    The weight |u-v|^{2H-2} is integrated in closed form over every cell
    pair, so the result is exact for this path class; H <= 1/2 is refused
    by :func:`increment_covariance_beta`.
    """
    S = increment_covariance_beta(H, tg.points)
    phi = np.asarray(phi_values, dtype=float)
    psi = np.asarray(psi_values, dtype=float)
    return float(phi @ S @ psi)
