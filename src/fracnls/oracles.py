"""Derived-value oracles: each identity the lab rests on, checked one way.

Every function takes the parameters of one check and returns its measured
quantity (a gap, residual, margin or p-value), with no tolerance attached.
:func:`records` runs the `oracle-suite` set at its fixed parameters; the
acceptance criteria and the unit tests call the same functions at their own
parameters and tolerances, so one piece of code computes each check.

Library functions are reached through their modules (``fbm.kernel_eval``),
so that whatever rebinds a module's names also sees these calls.
"""

from __future__ import annotations

import math

import numpy as np

from . import fbm, field, ldp, noise, solver
from .errors import InvariantViolation

__all__ = [
    "normalization_constant_error",
    "kernel_rule_gap",
    "kernel_derivative_fd_error",
    "covariance_quadrature_error",
    "exact_sampler_variance_deviation",
    "ks_2samp_pvalue",
    "ks_pvalue",
    "duality_gap",
    "restriction_gap",
    "rkhs_covariance_error",
    "group_deviation_margin",
    "plane_wave_error",
    "q_ll_residual",
    "rate_projection_gap",
    "holder_line_error",
    "records",
]


def normalization_constant_error(H: float) -> float:
    """|c(H) - sqrt(2H sqrt(pi) 2^{2H-1} / (G(H+1/2) G(1-H)))|: the reference
    rewrites G(2-2H) by Legendre's duplication formula and cancels G(3/2-H),
    so it does not repeat the formula c(H) computes."""
    g = math.gamma
    oracle = math.sqrt(2 * H * math.sqrt(math.pi) * 2 ** (2 * H - 1) / (g(H + 0.5) * g(1 - H)))
    return abs(fbm.normalization_constant(H) - oracle)


def kernel_rule_gap(H: float, t: float, s: float, order: int) -> float:
    """Larger of |K_order - K_2order| (fixed Gauss-Legendre rules) and
    |K_2order - K_closed| (the closed-form kernel) at one point (t, s)."""
    a = fbm.kernel_eval_grid(H, t, s, order=order)
    b = fbm.kernel_eval_grid(H, t, s, order=2 * order)
    c = fbm.kernel_eval(H, t, s)
    return max(abs(float(a) - float(b)), abs(float(b) - c))


def kernel_derivative_fd_error(H: float, t: float, s: float, h: float) -> float:
    """Relative gap between dK/dt (t, s) and the central difference of step h."""
    d = fbm.kernel_time_derivative(H, t, s)
    fd = (fbm.kernel_eval(H, t + h, s) - fbm.kernel_eval(H, t - h, s)) / (2 * h)
    return abs(d - fd) / abs(fd)


def covariance_quadrature_error(H: float, tg: fbm.TimeGrid) -> float:
    """Max entrywise gap between the kernel-quadrature and analytic covariances."""
    quad = fbm.covariance_from_kernel(H, tg)
    return float(np.abs(quad - fbm.build_covariance_matrix(H, tg)).max())


def exact_sampler_variance_deviation(
    H: float, tg: fbm.TimeGrid, replicates: int, seed: int, index: int
) -> tuple[float, float]:
    """|sample variance - t^{2H}| of the exact sampler at grid point ``index``,
    and the standard error t^{2H} sqrt(2 / (replicates - 1)) of that variance."""
    paths = fbm.sample_fbm_exact(H, tg, replicates, seed)
    sample_var = float(paths[:, index].var(ddof=1))
    target = tg.points[index] ** (2 * H)
    return abs(sample_var - target), target * math.sqrt(2.0 / (replicates - 1))


def ks_2samp_pvalue(a, b) -> float:
    """Exact two-sided two-sample Kolmogorov-Smirnov p-value, samples of equal size n.

    The statistic D is the largest gap between the two empirical distribution
    functions, so D = h/n with h = round(D n).  The p-value is the exact tail
    of Hodges (1958) for equal sizes,

        P(D_{n,n} >= h/n) = 2 sum_{k >= 1} (-1)^{k-1} C(2n, n - kh) / C(2n, n),

    summed in Horner form from the last term inward to avoid cancellation.
    It depends only on the integers (n, h), and for h >= 2 the arithmetic is
    that of scipy's two-sample KS test in its exact method (which it uses for
    n <= 10000), so the two agree float for float.  h = 0 (identical samples)
    and h = 1 give 1.0 outright: D >= 1/n holds for any two samples of
    distinct values, so the exact tail is 1, which the sum misses by a few
    ulps on either side (6 ulps over at n = 321, 609 and 1000, 10 at 2486).
    For h >= 2 a tail above 1 by at most :func:`_ks_tail_slack` (n, h), the
    sum's a-priori rounding bound, is 1.0 (5 ulps over at (n, h) = (741, 3)
    and (1531, 2), where scipy switches to the asymptotic form and returns
    1.0 too), and one further outside [0, 1] raises InvariantViolation.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n = a.size
    if a.ndim != 1 or b.shape != a.shape or n == 0:
        raise ValueError(f"need two nonempty 1-D samples of equal size, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    pooled = np.concatenate([a, b])
    gap = np.searchsorted(a, pooled, side="right") / n - np.searchsorted(b, pooled, side="right") / n
    h = int(np.round(np.abs(gap).max() * n))
    if h <= 1:
        return 1.0
    tail = 0.0
    for k in range(n // h, -1, -1):
        # C(2n, n - (k+1)h) / C(2n, n - kh) as h factors, times 1 - (the terms beyond)
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        tail = term * (1.0 - tail)
    tail *= 2
    if 1.0 < tail <= 1.0 + _ks_tail_slack(n, h):
        return 1.0  # a tail below 1 that the sum rounds over
    if not 0.0 <= tail <= 1.0:
        raise InvariantViolation(f"KS tail P(D >= {h}/{n}) = {tail!r} lies outside [0, 1]")
    return tail


def _ks_tail_slack(n: int, h: int) -> float:
    """Bound on |computed - exact| of the doubled Horner tail of
    :func:`ks_2samp_pvalue` at D = h/n, h >= 1.

    Step k of the sum (k = n // h down to 0) rounds 2h + 2 times: h
    products and h quotients give the ratio t_k = C(2n, n - (k+1)h) /
    C(2n, n - kh), then 1 - tail and the product by t_k.  The integers are
    exact in float64.  With u = 2^-53 and gamma_m = m u / (1 - m u), step k
    returns t_k (1 - tail_{k+1}) (1 + theta_k), |theta_k| <= gamma_{2h+2}
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Lemma 3.1).  Each exact partial sum T_{k+1} is an alternating sum of
    decreasing products of ratios 0 < t <= 1, so it lies in [0, 1], and
    the error e_k = |tail_k - T_k| obeys
    e_k <= t_k e_{k+1} + t_k (1 + e_{k+1}) gamma_{2h+2}, that is
    1 + e_k <= (1 + gamma_{2h+2}) (1 + e_{k+1}), from e = 0 at the empty
    sum.  Over the n // h + 1 steps, 1 + e_0 <= 1 + gamma_N with
    N = (2h + 2)(n // h + 1) roundings (Lemma 3.3), and the doubling is
    exact: the tail is off by at most 2 gamma_N.  Underflow's absolute
    errors, at most 2^-1075 a rounding, lie far below that and are left out.
    """
    roundings = (2 * h + 2) * (n // h + 1)
    u = np.finfo(float).eps / 2
    return 2 * roundings * u / (1 - roundings * u)


def ks_pvalue(H: float, tg: fbm.TimeGrid, replicates: int, seed_exact: int, seed_fast: int) -> float:
    """Two-sample KS p-value of the terminal values of the exact and fast samplers."""
    # terminal columns only: the exact paths are freed before the fast draw
    pe = fbm.sample_fbm_exact(H, tg, replicates, seed_exact)[:, -1].copy()
    pf = fbm.sample_fbm_fast(H, tg, replicates, seed_fast)[:, -1].copy()
    return ks_2samp_pvalue(pe, pf)


def duality_gap(H: float, phi: np.ndarray, h: np.ndarray, tg: fbm.TimeGrid) -> float:
    """|lhs - rhs| of the transform duality for step functions phi and h."""
    lhs, rhs = fbm.duality_pairing(H, phi, h, tg)
    return abs(lhs - rhs)


def restriction_gap(H: float, values: np.ndarray, tg: fbm.TimeGrid, cut: int) -> float:
    """Max over the first ``cut`` cell midpoints of the gap between K_T* of
    the path zeroed from cell ``cut`` on and K_{t_cut}* of its first cells."""
    restricted = values.copy()
    restricted[cut:] = 0.0
    s = tg.midpoints[:cut]
    full = fbm.apply_kt_star(H, restricted, tg.points, s)
    trunc = fbm.apply_kt_star(H, values[:cut], tg.points[: cut + 1], s)
    return float(np.abs(full - trunc).max())


def rkhs_covariance_error(H: float, tg: fbm.TimeGrid, t: float, s: float) -> float:
    """|<1_[0,t], 1_[0,s]> - R(t, s)|: the energy-space inner product of two
    indicators (t and s on the grid) against the fBm covariance."""
    ind_t = (tg.points[1:] <= t).astype(float)
    ind_s = (tg.points[1:] <= s).astype(float)
    ip = fbm.rkhs_inner_product(H, ind_t, ind_s, tg)
    return abs(ip - fbm.fbm_covariance(H, t, s))


def group_deviation_margin(grid: field.GridSpec, gammas, times) -> float:
    """Worst margin ||U(t) - I|| - 2^{1-gamma} t^gamma over the (gamma, t) scan."""
    worst = -math.inf
    for gam in gammas:
        for t in times:
            margin = field.group_deviation_norm(grid, float(gam), float(t)) - 2 ** (1 - gam) * t**gam
            worst = max(worst, margin)
    return worst


def plane_wave_error(
    grid: field.GridSpec, amplitude: float, k: int, lam: float, sigma: float, T: float, n_steps: int
) -> float:
    """L2 error at T of the Kerr solver on the plane wave a exp(ikx), whose
    exact flow is the phase exp(i (k^2 - lam a^{2 sigma}) t)."""
    x = grid.coordinates[0]
    wave = amplitude * np.exp(1j * k * x)
    nl = solver.NonlinearitySpec("kerr", lam, sigma)
    traj = solver.solve_mild(field.ComplexField(grid, wave), nl, None, 0.0,
                             solver.SolverConfig(T=T, n_steps=n_steps))
    omega = k**2 - lam * amplitude ** (2 * sigma)
    exact = field.ComplexField(grid, wave * np.exp(1j * omega * T))
    return field.l2_norm(traj.terminal_field() - exact)


def q_ll_residual(spec: noise.CorrelationSpec, H: float, tg: fbm.TimeGrid) -> float:
    """Max residual of Q = L L* with Q from the Beta-weighted double integral."""
    L = noise.build_L(spec, H, tg)
    return noise.verify_factorization(noise.build_Q(spec, H, tg), L)


def rate_projection_gap(L: noise.DiscreteLOperator, values: np.ndarray) -> float:
    """Rate of the response to the control ``values`` less the control's half
    energy; at most 0 (infinite when the response is found unreachable)."""
    res = noise.gaussian_rate(L, L.apply(values)[1:].T)
    return res.rate - float(noise.half_energy(values, L.tg))


def holder_line_error(n: int) -> float:
    """|exponent - 1| of the Holder estimate on the straight line over n points."""
    return abs(ldp.holder_exponent(np.linspace(0.0, 1.0, n)).exponent - 1.0)


def records(seed: int) -> list[dict]:
    """The `oracle-suite` report rows, in report order: name, measured value,
    tolerance and verdict.  ``seed`` keys every random draw."""
    out = []

    def add(name, measured, tolerance, passed=None):
        # every check but the KS p-value passes at or below its tolerance
        passed = measured <= tolerance if passed is None else passed
        out.append({"oracle": name, "measured": float(measured), "tolerance": float(tolerance),
                    "passed": bool(passed)})

    for H in (0.25, 0.5, 0.75):
        add(f"normalization-constant-H{H}", normalization_constant_error(H), 1e-12)
    add("kernel-two-rule-agreement", kernel_rule_gap(0.7, 1.0, 0.5, 64), 1e-8)
    for H in (0.25, 0.75):
        add(f"kernel-derivative-fd-H{H}", kernel_derivative_fd_error(H, 1.0, 0.5, 1e-6), 1e-4)

    tg64 = fbm.TimeGrid(1.0, 64)
    add("covariance-kernel-quadrature", covariance_quadrature_error(0.7, tg64), 1e-3)
    dev, se = exact_sampler_variance_deviation(0.7, tg64, 3000, seed, 32)
    add("exact-sampler-variance", dev, 4 * se)
    pval = ks_pvalue(0.7, fbm.TimeGrid(1.0, 1024), 1000, seed + 1, seed + 2)
    add("fast-vs-exact-ks-pvalue", pval, 0.01, pval > 0.01)

    tg16 = fbm.TimeGrid(1.0, 16)
    phi = np.zeros(16)
    phi[:8] = 1.0
    add("duality-indicator", duality_gap(0.7, phi, np.ones(16), tg16), 1e-6)
    mid = tg16.midpoints
    add("duality-polynomial", duality_gap(0.7, 1 + 0.5 * mid - 2 * mid**2, 0.3 - mid, tg16), 1e-5)
    rng = np.random.default_rng(seed)
    add("restriction-identity", restriction_gap(0.7, rng.normal(size=16), tg16, 10), 1e-8)
    add("rkhs-vs-covariance", rkhs_covariance_error(0.7, fbm.TimeGrid(1.0, 32), 0.5, 0.25), 1e-4)

    grid = field.GridSpec(1, 64, math.pi)
    scan = (np.linspace(0.0, 0.95, 20), np.logspace(-2, 0, 20))
    add("group-deviation-bound-margin", group_deviation_margin(grid, *scan), 1e-12)
    add("plane-wave-solver", plane_wave_error(grid, 0.8, 2, 1.0, 1.0, 1.0, 1000), 1e-6)

    ev = np.zeros(8)
    ev[[0, 1, 2, 7]] = [1.0, 0.7, 0.4, 0.7]
    spec = noise.CorrelationSpec(grid=field.GridSpec(1, 8, math.pi), eigenvalues=ev)
    tg8 = fbm.TimeGrid(1.0, 8)
    add("q-ll-factorization", q_ll_residual(spec, 0.7, tg8), 1e-10)
    # drawn after the restriction-identity path, from the same generator
    gap = rate_projection_gap(noise.build_L(spec, 0.7, tg8), rng.normal(size=(8, 8)))
    add("rate-projection-bound", gap, 1e-9)
    add("holder-line-path", holder_line_error(2048), 0.02)
    return out
