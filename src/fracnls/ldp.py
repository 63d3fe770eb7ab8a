"""Rare-event Monte Carlo for the small-noise asymptotics, variational rate
bounds through the controlled skeleton, support-proximity experiments, and
Holder-regularity estimation.

The three legs of the verification triangle for an avoidance event:

  * direct Monte Carlo estimates p(eps) on a ladder of noise intensities,
    and the stabilized value of -eps log p(eps) estimates the decay rate;
  * the minimum-norm least-squares (pseudo-inverse) rate through the
    response operator gives the exact quadratic rate of the sampled
    Gaussian model (linear dynamics);
  * a penalty optimizer over spline-parametrized controls drives the
    skeleton into the event and returns half the control energy, an upper
    bound on the infimum.

Agreement is bracketing, not equality: the optimizer only bounds from
above, the Monte Carlo slope carries prefactor drift across the ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from .field import ComplexField, sobolev_norm, sobolev_norms
from .noise import (
    Control,
    ConvolutionSampler,
    CorrelationSpec,
    DiscreteLOperator,
    build_L,
    cheapest_terminal_rate,
    terminal_covariance_blocks,
)
from .fbm import HurstKernel, TimeGrid, replicate_stream
from .solver import NonlinearitySpec, SolverConfig, Trajectory, TrajectoryBatch
from .solver import solve_mild, solve_mild_batch

__all__ = [
    "EventSpec",
    "RateReport",
    "HolderReport",
    "SlopeFit",
    "MinimizeResult",
    "LdpLab",
    "wilson_interval",
    "ldp_slope",
    "holder_exponent",
    "trajectory_distance",
    "support_distance",
    "gaussian_terminal_tail",
]

EVENT_KINDS = ("terminal-ball-exit", "sup-norm-exceed", "blow-up-before-T")

# Byte budget for the stepped states of one Monte Carlo chunk: a whole rung in
# one batch raises peak memory for no further speed.
_BATCH_BYTES = 1 << 19

# L-BFGS-B's default forward-difference step, and the fallback scipy's 2-point
# rule takes where it vanishes against the coordinate.
_FD_STEP = 1e-8
_FD_FALLBACK = np.finfo(float).eps ** 0.5

# Normal quantile of the two-sided 95% Wilson interval.
_WILSON_Z = 1.959963984540054

# Clamped cubic B-splines parametrize the optimizer's controls in time.
_SPLINE_DEGREE = 3

# The optimizer aims for the event threshold enlarged by this relative margin.
_MARGIN = 1e-3

# The ray shrink halves the scaling interval 25 times (resolution 2^-25),
# walking five levels of the bisection tree per batched solve.
_RAY_HALVINGS = 25
_RAY_LEVELS = 5


@dataclass(frozen=True)
class EventSpec:
    """Rare event on trajectories: which functional, the threshold, the norm."""

    kind: str
    threshold: float = 0.0
    sobolev_index: float = 0.0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; choose from {EVENT_KINDS}")
        if self.threshold < 0:
            raise ValueError("event threshold must be nonnegative")


@dataclass
class RateReport:
    """Ladder of probabilities with confidence intervals and rate estimates."""

    eps_ladder: list
    p_hats: list
    ci_lo: list
    ci_hi: list
    replicates: int
    slope_value: float | None = None
    slope_drift: float | None = None
    pinv_rate: float | None = None
    variational_bound: float | None = None


@dataclass
class HolderReport:
    """Dyadic-lag regularity regression."""

    exponent: float
    r_squared: float
    lags: list
    log_increments: list
    degenerate: bool = False


@dataclass(frozen=True)
class SlopeFit:
    value: float
    drift: float
    n_used: int
    ok: bool


@dataclass
class MinimizeResult:
    control: Control
    rate: float
    feasible: bool
    nfev: int
    penalty: float


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson score interval at level 0.05 (z for 97.5%)."""
    if n <= 0:
        raise ValueError("need at least one replicate")
    z = _WILSON_Z
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def ldp_slope(eps_ladder, p_hats) -> SlopeFit:
    """Stabilized value of -eps log p(eps) across the ladder.

    The estimate regresses the transformed values on a constant (their
    mean); the reported drift is the linear trend in eps, a diagnostic for
    prefactor contamination.  Needs at least 4 rungs with positive p.
    """
    eps = np.asarray(eps_ladder, dtype=float)
    p = np.asarray(p_hats, dtype=float)
    keep = p > 0
    if keep.sum() < 4:
        return SlopeFit(value=math.nan, drift=math.nan, n_used=int(keep.sum()), ok=False)
    y = -eps[keep] * np.log(p[keep])
    drift = float(np.polyfit(eps[keep], y, 1)[0]) if len(set(eps[keep])) > 1 else 0.0
    return SlopeFit(value=float(y.mean()), drift=drift, n_used=int(keep.sum()), ok=True)


def holder_exponent(values: np.ndarray, weights: np.ndarray | None = None) -> HolderReport:
    """Regularity exponent from root-mean-square dyadic-lag increments.

    ``values`` is a path sampled at uniform times, shape (n_t,) or
    (n_t, dim); increment sizes use the Euclidean norm, optionally weighted
    per component (for Sobolev norms of coefficient paths).  The RMS
    aggregation is unbiased for Gaussian scaling laws, unlike the running
    maximum, whose extreme-value factor would bias the slope downward.
    """
    values = np.asarray(values)
    n_t = values.shape[0]
    if n_t < 16:
        raise ValueError("need at least 16 time points")
    lags = []
    lag = 4
    while lag <= n_t // 8:
        lags.append(lag)
        lag *= 2
    if len(lags) < 2:
        raise ValueError("need at least two lags for the regression")
    flat = values.reshape(n_t, -1)
    w = np.ones(flat.shape[1]) if weights is None else np.asarray(weights, dtype=float).reshape(-1)
    rms = []
    for lag in lags:
        diff = flat[lag:] - flat[:-lag]
        sq = np.sum(w * np.abs(diff) ** 2, axis=1)
        rms.append(math.sqrt(float(sq.mean())))
    rms = np.asarray(rms)
    if np.any(rms == 0.0):
        return HolderReport(math.nan, 0.0, lags, [math.nan] * len(lags), degenerate=True)
    x = np.log(np.asarray(lags, dtype=float))
    y = np.log(rms)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return HolderReport(float(slope), r2, lags, list(map(float, y)))


def trajectory_distance(a: Trajectory, b: Trajectory, sobolev_index: float = 1.0) -> float:
    """Sup-in-time Sobolev distance; infinite on mismatched cemetery states."""
    if a.cemetery_index != b.cemetery_index:
        return math.inf
    return float(sobolev_norms(a.grid, a.states - b.states, sobolev_index).max())


def support_distance(samples, family):
    """Median over samples of the H^1 distance to the nearest family member."""
    mins = []
    for s in samples:
        mins.append(min(trajectory_distance(s, t) for t in family))
    return float(np.median(mins)), np.asarray(mins)


def gaussian_terminal_tail(
    L: DiscreteLOperator, delta: float, eps: float, nsamples: int = 400_000, seed: int = 0
) -> tuple[float, float]:
    """P(||sqrt(eps) Z(T)||_{L2} > delta) from the terminal covariance spectrum.

    Independent oracle for the linear terminal event: diagonalizes the
    per-mode 2x2 blocks and Monte Carlos the resulting weighted chi-square
    tail (no PDE stepping involved).  Returns (p, standard error).
    """
    blocks = terminal_covariance_blocks(L)
    lams = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
    lams = lams[lams > 1e-300]
    thr = delta * delta / eps
    rng = replicate_stream(seed, 0)
    hits = 0
    chunk = 100_000
    done = 0
    while done < nsamples:
        m = min(chunk, nsamples - done)
        g = rng.standard_normal((m, lams.size))
        hits += int(np.count_nonzero((g * g) @ lams > thr))
        done += m
    p = hits / nsamples
    se = math.sqrt(max(p * (1 - p), 1e-300) / nsamples)
    return p, se


def _forward_difference(f, x: np.ndarray) -> tuple[float, np.ndarray]:
    """f(x) and its forward-difference gradient from one call of the batched
    objective ``f`` on x and the dim shifted points.  The steps, the points
    and the quotients are scipy's 2-point rule at L-BFGS-B's default absolute
    step, float for float: 1e-8, or sqrt(machine eps) * sign(x) * max(1, |x|)
    where 1e-8 vanishes against x, with sign(0) = +1."""
    sign = (x >= 0).astype(float) * 2 - 1
    h = np.where((x + _FD_STEP) - x == 0, _FD_FALLBACK * sign * np.maximum(1.0, np.abs(x)), _FD_STEP)
    points = np.tile(x, (x.size + 1, 1))
    points[np.arange(1, x.size + 1), np.arange(x.size)] = x + h
    values = f(points)
    return float(values[0]), (values[1:] - values[0]) / ((x + h) - x)


def _spline_design(n_cells: int, T: float, n_splines: int) -> np.ndarray:
    """Clamped B-spline design matrix on cell midpoints, (n_cells, n_splines)."""
    degree = _SPLINE_DEGREE
    if n_splines < degree + 1:
        raise ValueError(f"need at least {degree + 1} splines for degree {degree}")
    n_internal = n_splines - degree - 1
    internal = np.linspace(0.0, T, n_internal + 2)[1:-1]
    knots = np.concatenate([[0.0] * (degree + 1), internal, [T] * (degree + 1)])
    mids = (np.arange(n_cells) + 0.5) * (T / n_cells)
    return BSpline.design_matrix(mids, knots, degree).toarray()


class LdpLab:
    """Rare-event study bound to one model: initial datum, nonlinearity,
    correlation operator, Hurst parameter, and solver grid."""

    def __init__(
        self,
        u0: ComplexField,
        nl: NonlinearitySpec | None,
        spec: CorrelationSpec,
        kern: HurstKernel,
        cfg: SolverConfig,
    ):
        self.u0 = u0
        self.nl = nl
        self.spec = spec
        self.kern = kern
        self.cfg = cfg
        self.tg = TimeGrid(cfg.T, cfg.n_steps)
        self.sampler = ConvolutionSampler(spec, kern, self.tg)
        self.deterministic = solve_mild(u0, nl, None, 0.0, cfg)
        self._L: DiscreteLOperator | None = None

    @property
    def L(self) -> DiscreteLOperator:
        if self._L is None:
            self._L = build_L(self.spec, self.kern, self.tg)
        return self._L

    # -- events ------------------------------------------------------------

    def event_occurred(self, traj: Trajectory, ev: EventSpec) -> bool:
        if ev.kind == "blow-up-before-T":
            return traj.blown_up
        if traj.blown_up:
            return True  # cemetery escapes every bounded set
        s = ev.sobolev_index
        if ev.kind == "terminal-ball-exit":
            ref = self.deterministic.terminal_field()
            return sobolev_norm(traj.terminal_field() - ref, s) > ev.threshold
        # sup-norm-exceed
        if s == 1.0:
            return bool(np.nanmax(traj.h1_norms) > ev.threshold)
        return any(sobolev_norm(ComplexField(traj.grid, v), s) > ev.threshold for v in traj.states)

    def _reach(self, batch: TrajectoryBatch, live: np.ndarray, ev: EventSpec) -> np.ndarray:
        """Event functional of each live replicate: the terminal distance to
        the deterministic flow, or the sup over time of the H^s norm (H^1
        for the blow-up event)."""
        s = ev.sobolev_index
        if ev.kind == "terminal-ball-exit":
            ref = self.deterministic.terminal_field().values
            return sobolev_norms(self.spec.grid, batch.states[live, -1] - ref, s)
        if s == 1.0 or ev.kind == "blow-up-before-T":
            return batch.h1_norms[live].max(axis=1)
        return sobolev_norms(self.spec.grid, batch.states[live], s).max(axis=1)

    def _hits(self, batch: TrajectoryBatch, ev: EventSpec) -> np.ndarray:
        """Whether each replicate of ``batch`` realizes the event, as
        :meth:`event_occurred` decides it for one trajectory: the cemetery
        realizes every event, and the blow-up event nothing else."""
        hits = batch.blown_up
        if ev.kind != "blow-up-before-T":
            live = ~hits
            hits[live] = self._reach(batch, live, ev) > ev.threshold
        return hits

    def sample_trajectory(self, eps: float, seed: int, replicate: int) -> Trajectory:
        paths = self.sampler.sample_mode_paths(seed, replicate)
        return solve_mild(self.u0, self.nl, paths, eps, self.cfg)

    def estimate_event_probability(
        self, ev: EventSpec, eps: float, replicates: int, seed: int
    ) -> tuple[float, tuple[float, float]]:
        """Fraction of trajectories realizing the event, with Wilson CI.

        Replicate i is keyed (seed, i) whatever the chunk it is stepped in;
        a zero estimate signals that eps is too small for direct Monte Carlo
        at this replicate budget.
        """
        if replicates < 100:
            raise ValueError("need at least 100 replicates")
        if eps == 0.0:
            occurred = self.event_occurred(self.deterministic, ev)
            p = 1.0 if occurred else 0.0
            return p, (p, p)
        state_bytes = (self.cfg.n_steps + 1) * self.spec.grid.mode_count * np.dtype(complex).itemsize
        chunk = max(1, _BATCH_BYTES // state_bytes)
        hits = 0
        for start in range(0, replicates, chunk):
            paths = self.sampler.sample_mode_path_batch(seed, range(start, min(start + chunk, replicates)))
            batch = solve_mild_batch(self.u0, self.nl, paths, eps, self.cfg)
            hits += int(np.count_nonzero(self._hits(batch, ev)))
        return hits / replicates, wilson_interval(hits, replicates)

    def rate_ladder(self, ev: EventSpec, eps_ladder, replicates: int, seed: int) -> RateReport:
        p_hats, lo, hi = [], [], []
        for idx, eps in enumerate(eps_ladder):
            p, (a, b) = self.estimate_event_probability(ev, eps, replicates, seed + idx)
            p_hats.append(p)
            lo.append(a)
            hi.append(b)
        fit = ldp_slope(eps_ladder, p_hats)
        return RateReport(
            eps_ladder=list(eps_ladder),
            p_hats=p_hats,
            ci_lo=lo,
            ci_hi=hi,
            replicates=replicates,
            slope_value=fit.value if fit.ok else None,
            slope_drift=fit.drift if fit.ok else None,
        )

    # -- variational bound ---------------------------------------------------

    def pinv_terminal_rate(self, delta: float) -> tuple[float, Control]:
        """Pseudo-inverse rate of the cheapest terminal target on the sphere."""
        return cheapest_terminal_rate(self.L, delta)

    def _skeletons(self, cs: np.ndarray, design: np.ndarray) -> tuple[np.ndarray, TrajectoryBatch]:
        """Control values (R, n_modes, n) of the spline coefficients in the
        rows of ``cs``, and their skeletons from one batched solve."""
        values = cs.reshape(len(cs), self.spec.grid.mode_count, -1) @ design.T
        return values, solve_mild_batch(self.u0, self.nl, self.L.apply_batch(values), 1.0, self.cfg)

    def _realizes(self, cs: np.ndarray, design: np.ndarray, ev: EventSpec) -> np.ndarray:
        """Whether the skeleton of each row of ``cs`` realizes the event."""
        return self._hits(self._skeletons(cs, design)[1], ev)

    def _shrink_along_ray(self, c: np.ndarray, design: np.ndarray, ev: EventSpec) -> float:
        """Cheapest feasible scaling of the feasible coefficients ``c`` by
        bisection of [0, 1].  Each batched solve holds the heap-ordered
        midpoints of the next levels of the bisection tree, and the hit flags
        pick the path down it: the midpoints and the result are the floats of
        the sequential bisection."""
        lo, hi = 0.0, 1.0
        for _ in range(_RAY_HALVINGS // _RAY_LEVELS):
            mids = np.empty(2**_RAY_LEVELS - 1)
            spans = [(lo, hi)]
            for node in range(mids.size):
                a, b = spans[node]
                mids[node] = mid = 0.5 * (a + b)
                spans += [(a, mid), (mid, b)]
            hits = self._realizes(mids[:, None] * c, design, ev)
            node = 0
            for _ in range(_RAY_LEVELS):
                if hits[node]:
                    hi, node = float(mids[node]), 2 * node + 1
                else:
                    lo, node = float(mids[node]), 2 * node + 2
        return hi

    def _penalized_energies(
        self, cs: np.ndarray, design: np.ndarray, ev: EventSpec, pen: float
    ) -> np.ndarray:
        """Objective of :meth:`minimize_rate` for the spline coefficients in
        the rows of ``cs``, from one batched skeleton solve: half the control
        energy plus ``pen`` times the squared distance-to-event, which is
        zero once the event is realized."""
        values, batch = self._skeletons(cs, design)
        energy = 0.5 * (np.sum(values**2, axis=(1, 2)) * self.tg.dt)
        live = ~batch.blown_up
        reach = self._reach(batch, live, ev)
        short = np.zeros(len(cs))
        if ev.kind == "blow-up-before-T":
            # the sup of H^1 against the threshold as proxy
            short[live] = np.maximum(0.0, 1.0 - reach / (1.0 + reach))
        else:
            short[live] = np.maximum(0.0, ev.threshold * (1.0 + _MARGIN) - reach)
        return energy + pen * short * short

    def minimize_rate(self, ev: EventSpec, n_splines: int = 8, budget: int = 4000) -> MinimizeResult:
        """Penalty search for a feasible control of small energy.

        Controls are parametrized on a tensor basis (modes x time B-splines);
        the penalty is multiplied by 10 until the skeleton realizes the
        event, then the control is shrunk along its ray to the cheapest
        scaling that stays feasible.  Returns an upper bound on the infimum.
        """
        n_modes = self.spec.grid.mode_count
        design = _spline_design(self.tg.n, self.tg.T, n_splines)  # (n, n_b)
        dim = n_modes * n_splines
        if dim > 64 * 8:
            raise ValueError("control basis too large for the optimizer budget")
        nfev = 0

        def control_of(c: np.ndarray) -> Control:
            coeff = c.reshape(n_modes, n_splines)
            return Control(values=coeff @ design.T, tg=self.tg)

        def value_and_grad(x: np.ndarray, pen: float) -> tuple[float, np.ndarray]:
            nonlocal nfev
            nfev += dim + 1  # objective rows: x and its dim shifted points
            return _forward_difference(lambda cs: self._penalized_energies(cs, design, ev, pen), x)

        pen = 10.0 / max(ev.threshold, 1.0) ** 2
        c = np.zeros(dim)
        feasible = False
        for _ in range(8):
            # ``budget`` counts objective rows and scipy counts calls of dim + 1
            # rows; it stops once its count exceeds maxfun, and k calls exceed
            # budget // (dim + 1) exactly when k (dim + 1) rows exceed budget
            res = minimize(
                value_and_grad,
                c,
                args=(pen,),
                jac=True,
                method="L-BFGS-B",
                options={"maxfun": budget // (dim + 1), "ftol": 1e-12, "gtol": 1e-10},
            )
            c = res.x
            if self._realizes(c[None], design, ev)[0]:
                feasible = True
                break
            pen *= 10.0
        if not feasible:
            return MinimizeResult(control_of(c), math.inf, False, nfev, pen)
        best = control_of(self._shrink_along_ray(c, design, ev) * c)
        return MinimizeResult(best, best.half_energy, True, nfev, pen)
