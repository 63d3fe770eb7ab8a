"""Rare-event Monte Carlo for the small-noise asymptotics, variational rate
bounds through the controlled skeleton, support-proximity experiments, and
Holder-regularity estimation.

The three legs of the verification triangle for an avoidance event:

  * direct Monte Carlo estimates p(eps) on a ladder of noise intensities,
    and the stabilized value of -eps log p(eps) estimates the decay rate;
  * the pseudo-inverse rate delta^2 / (2 lambda_max), lambda_max the top
    eigenvalue of the terminal covariance, gives the exact quadratic rate
    of the sampled Gaussian model (linear dynamics);
  * a penalty optimizer over spline-parametrized controls drives the
    skeleton into the event and returns half the control energy, an upper
    bound on the infimum: L-BFGS on the exact gradient of the discrete
    objective, one skeleton solve and one reverse sweep a call.

Agreement is bracketing, not equality: the optimizer only bounds from
above, the Monte Carlo slope carries prefactor drift across the ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import ComplexField, GridSpec, sobolev_norms
from .noise import ConvolutionSampler, CorrelationSpec, cheapest_terminal_rate, half_energy
from .fbm import TimeGrid
from .solver import NonlinearitySpec, SolverConfig, Trajectory, TrajectoryBatch
from .solver import mode_path_gradient, solve_mild, solve_mild_batch

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
    "support_distance",
]

EVENT_KINDS = ("terminal-ball-exit", "sup-norm-exceed", "blow-up-before-T")

# Normal quantile of the two-sided 95% Wilson interval.
_WILSON_Z = 1.959963984540054

# Clamped cubic B-splines parametrize the optimizer's controls in time, and
# the tensor basis (modes x splines) holds at most this many coefficients.
_SPLINE_DEGREE = 3
_MAX_CONTROL_DIM = 64 * 8

# The optimizer aims past the event's target (:meth:`LdpLab._target`) by this relative margin.
_MARGIN = 1e-3

# Every event's search starts from this value in each spline coefficient,
# off the zero control: there the terminal distance is a norm at its kink,
# whose gradient is 0, so a search from zero would stop at once.
_START = 1e-3

# L-BFGS (:func:`_lbfgs`): the pairs kept, the stopping rules (relative
# decrease of the objective and largest gradient entry, L-BFGS-B's ftol and
# gtol), and the strong-Wolfe line search's constants and trial limit.
_MEMORY = 10
_FTOL = 1e-12
_GTOL = 1e-10
_WOLFE_C1, _WOLFE_C2 = 1e-4, 0.9
_MAX_TRIALS = 20

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
        if not 0 <= self.threshold < math.inf:
            raise ValueError(f"event threshold must be nonnegative and finite, got {self.threshold}")
        if not abs(self.sobolev_index) < math.inf:
            raise ValueError(f"event Sobolev index must be finite, got {self.sobolev_index}")


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
    control: np.ndarray  # (n_modes, n) values on the lab's grid
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


def support_distance(
    grid: GridSpec, samples: TrajectoryBatch, family: TrajectoryBatch, sobolev_index: float = 1.0
) -> np.ndarray:
    """Sup-in-time H^s distances (samples, family) between the rows of two
    batches: the max over the steps below the shared cemetery index, infinite
    where the cemetery indices differ.  No state from a cemetery index on is
    read, and none is transformed: the distances are norms of differences of
    spectra.  Each sample row is differenced with every family row at once,
    so the family passed in bounds the memory."""
    D = np.full((len(samples.cemetery_index), len(family.cemetery_index)), math.inf)
    for i, k in enumerate(samples.cemetery_index):
        match = np.flatnonzero(family.cemetery_index == k)
        diff = samples.spectra[i, :k] - family.spectra[match, :k]
        D[i, match] = sobolev_norms(grid, diff, sobolev_index).max(axis=1)
    return D


def _spline_design(n_cells: int, T: float, n_splines: int) -> np.ndarray:
    """Clamped cubic B-spline design matrix on cell midpoints, (n_cells,
    n_splines), by the Cox-de Boor recursion: B_{i,p} = w_{i,p} B_{i,p-1} +
    (1 - w_{i+1,p}) B_{i+1,p-1}, w_{i,p}(x) = (x - t_i) / (t_{i+p} - t_i),
    and w = 0 where a repeated knot makes that span empty."""
    degree = _SPLINE_DEGREE
    if n_splines < degree + 1:
        raise ValueError(f"need at least {degree + 1} splines for degree {degree}")
    n_internal = n_splines - degree - 1
    internal = np.linspace(0.0, T, n_internal + 2)[1:-1]
    knots = np.concatenate([[0.0] * (degree + 1), internal, [T] * (degree + 1)])
    mids = ((np.arange(n_cells) + 0.5) * (T / n_cells))[:, None]
    basis = ((knots[:-1] <= mids) & (mids < knots[1:])).astype(float)
    for p in range(1, degree + 1):
        span = knots[p:] - knots[:-p]
        w = np.divide(mids - knots[:-p], span, out=np.zeros((n_cells, span.size)), where=span > 0)
        basis = w[:, :-1] * basis[:, :-1] + (1.0 - w[:, 1:]) * basis[:, 1:]
    return basis


def _cubic_minimizer(a: float, fa: float, da: float, b: float, fb: float, db: float) -> float:
    """Minimizer of the cubic through the values and slopes at a and b
    (Nocedal & Wright, eq. 3.59), or NaN where that cubic has none."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    return b - (b - a) * (db + d2 - d1) / denom if denom != 0.0 else math.nan


def _lbfgs(fun, x: np.ndarray, max_calls: int) -> np.ndarray:
    """Minimize ``fun`` from ``x`` by L-BFGS: the two-loop recursion over the
    last ``_MEMORY`` step pairs, scaled by s.y / y.y, and a strong-Wolfe line
    search by bracketing and cubic zoom (Nocedal & Wright, *Numerical
    Optimization*, 2nd ed., Algorithms 7.4, 3.5 and 3.6).  ``fun(x)``
    returns the value and the gradient.  The first trial step is 1 / |g|
    on a steepest-descent direction and 1 after.  Stops, as L-BFGS-B does,
    when an accepted step lowers the value by at most ``_FTOL`` relative,
    when the largest gradient entry is at most ``_GTOL``, when a line search
    fails, or before a call past ``max_calls``.  Returns the last accepted
    iterate."""
    calls = 0

    def evaluate(y: np.ndarray):
        nonlocal calls
        calls += 1
        return fun(y)

    f, g = evaluate(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    while calls < max_calls and np.abs(g).max() > _GTOL:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d = d / (rho * (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * (y @ d)) * s
        slope = float(g @ d)
        if not slope < 0.0:  # not a descent direction: drop the memory
            pairs, d = [], -g
            slope = float(g @ d)
        step = 1.0 / math.sqrt(-slope) if not pairs else 1.0
        found = _wolfe_search(evaluate, lambda: max_calls - calls, x, f, slope, d, step)
        if found is None:
            break
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > np.finfo(float).eps * float(y @ y):
            pairs = (pairs + [(s, y, 1.0 / sy)])[-_MEMORY:]
        done = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
    return x


def _wolfe_search(evaluate, calls_left, x, f0, d0, d, step):
    """A step along ``d`` from ``x`` (value ``f0``, slope ``d0`` < 0) that
    meets the strong Wolfe conditions, as (point, value, gradient); None when
    ``_MAX_TRIALS`` trials or the calls left (``calls_left()``) run out first."""
    trials = 0

    def phi(a: float):
        nonlocal trials
        if trials == _MAX_TRIALS or calls_left() <= 0:
            return None
        trials += 1
        point = x + a * d
        fa, ga = evaluate(point)
        return point, fa, ga, float(ga @ d)

    def armijo(a: float, fa: float) -> bool:
        return fa <= f0 + _WOLFE_C1 * a * d0

    def curvature(da: float) -> bool:
        return abs(da) <= -_WOLFE_C2 * d0

    def zoom(lo, hi):
        # lo: (step, value, slope) of the lowest value that meets the
        # sufficient decrease, the minimizer bracketed between lo and hi
        while True:
            width = hi[0] - lo[0]
            a = _cubic_minimizer(*lo, *hi)
            if not abs(a - lo[0] - 0.5 * width) <= 0.4 * abs(width):  # NaN, or near an end
                a = lo[0] + 0.5 * width
            if a in (lo[0], hi[0]):
                return None  # the bracket is below resolution
            got = phi(a)
            if got is None:
                return None
            point, fa, ga, da = got
            if not armijo(a, fa) or fa >= lo[1]:
                hi = (a, fa, da)
                continue
            if curvature(da):
                return point, fa, ga
            if da * width >= 0.0:
                hi = lo
            lo = (a, fa, da)

    prev = (0.0, f0, d0)
    a = step
    while True:
        got = phi(a)
        if got is None:
            return None
        point, fa, ga, da = got
        if not armijo(a, fa) or fa >= prev[1]:
            return zoom(prev, (a, fa, da))
        if curvature(da):
            return point, fa, ga
        if da >= 0.0:
            return zoom((a, fa, da), prev)
        # extrapolate: the cubic's step, kept within [1.1, 4] times the last increase
        low, high = a + 1.1 * (a - prev[0]), a + 4.0 * (a - prev[0])
        guess = _cubic_minimizer(*prev, a, fa, da)
        prev, a = (a, fa, da), (min(max(guess, low), high) if guess == guess else high)


@dataclass(eq=False)
class LdpLab:
    """The noisy mild solution and the skeleton of one model, forced through
    one response operator ``L``: seeded normals drive the noisy solutions
    and control values drive the skeletons.  ``L`` and the deterministic
    flow are built on first use, and no run assembles ``L``'s dense
    matrices, so a lab builds only what its run reads."""

    u0: ComplexField
    nl: NonlinearitySpec | None
    spec: CorrelationSpec
    H: float
    cfg: SolverConfig

    @property
    def tg(self) -> TimeGrid:
        return self.cfg.tg

    @cached_property
    def L(self) -> ConvolutionSampler:
        return ConvolutionSampler(self.spec, self.H, self.tg)

    @cached_property
    def deterministic(self) -> Trajectory:
        return solve_mild(self.u0, self.nl, None, 0.0, self.cfg)

    def control_basis(self, n_splines: int) -> np.ndarray:
        """The time design (n, n_splines) of :meth:`minimize_rate`'s controls;
        a ValueError where the tensor basis exceeds the optimizer's limit."""
        dim = self.spec.grid.mode_count * n_splines
        if dim > _MAX_CONTROL_DIM:
            raise ValueError(f"control basis of {self.spec.grid.mode_count} modes x {n_splines} splines "
                             f"= {dim} coefficients exceeds the optimizer's limit {_MAX_CONTROL_DIM}")
        return _spline_design(self.tg.n, self.tg.T, n_splines)

    # -- the two maps ---------------------------------------------------------

    def trajectory_blocks(self, eps: float, replicates: int, seed: int):
        """Replicates 0..replicates-1 of ``seed`` at intensity ``eps``, a batched solve per block."""
        for paths in self.L.sample_mode_path_blocks(seed, replicates):
            yield solve_mild_batch(self.u0, self.nl, paths, eps, self.cfg)

    def skeletons(self, values: np.ndarray) -> TrajectoryBatch:
        """The skeletons of the control values (R, n_modes, n), from one batched solve."""
        return solve_mild_batch(self.u0, self.nl, self.L.apply_batch(values), 1.0, self.cfg)

    # -- events ------------------------------------------------------------

    def terminal_centre(self) -> np.ndarray:
        """The spectrum of the deterministic flow at T, the centre of the
        terminal-ball-exit event; a ValueError naming the step where that
        flow is absorbed."""
        k = self.deterministic.cemetery_index
        if k is not None:
            raise ValueError(f"the deterministic flow is absorbed at step {k}, "
                             "so terminal-ball-exit has no centre")
        return self.deterministic.spectra[-1]

    def event_occurred(self, traj: Trajectory, ev: EventSpec) -> bool:
        if ev.kind == "blow-up-before-T":
            return traj.blown_up
        if traj.blown_up:
            return True  # cemetery escapes every bounded set
        s = ev.sobolev_index
        if ev.kind == "terminal-ball-exit":
            return bool(sobolev_norms(traj.grid, traj.spectra[-1] - self.terminal_centre(), s) > ev.threshold)
        # sup-norm-exceed
        if s == 1.0:
            return bool(np.nanmax(traj.h1_norms) > ev.threshold)
        return bool(np.any(sobolev_norms(traj.grid, traj.spectra, s) > ev.threshold))

    def _reach(self, batch: TrajectoryBatch, rows: np.ndarray, ev: EventSpec, start: int):
        """The one reading of the event on the never-absorbed replicates
        ``rows`` of ``batch``: (norms, states, steps, s), where each state is
        the spectrum the event reads, ``steps`` the step it is at and
        ``norms`` its H^s norm.  The state is the terminal difference from the
        deterministic flow, or the state at the first arg max step k >=
        ``start`` of the H^s norm (of H^1 for the blow-up event).  The H^1
        norms are the solver's, which equal those of the states bit for bit
        except in an unforced linear batch, where each is that of U_0."""
        grid, s = self.spec.grid, ev.sobolev_index
        if ev.kind == "terminal-ball-exit":
            states = batch.spectra[rows, -1] - self.terminal_centre()
            return sobolev_norms(grid, states, s), states, np.full(rows.size, batch.spectra.shape[1] - 1), s
        s = 1.0 if ev.kind == "blow-up-before-T" else s
        path = batch.h1_norms[rows, start:] if s == 1.0 else sobolev_norms(grid, batch.spectra[rows, start:], s)
        steps = start + path.argmax(axis=1)
        return path[np.arange(rows.size), steps - start], batch.spectra[rows, steps], steps, s

    def _target(self, batch: TrajectoryBatch, ev: EventSpec) -> float:
        """The threshold, or the blow-up cap of ``batch``, which no live replicate passes."""
        return batch.cap if ev.kind == "blow-up-before-T" else ev.threshold

    def _hits(self, batch: TrajectoryBatch, ev: EventSpec) -> np.ndarray:
        """Whether each replicate of ``batch`` realizes the event, as
        :meth:`event_occurred` decides it for one trajectory: an absorbed
        replicate does, and a live one where the norm :meth:`_reach` reads
        passes :meth:`_target`."""
        hits = batch.blown_up
        rows = np.flatnonzero(~hits)
        if rows.size:
            hits[rows] = self._reach(batch, rows, ev, 0)[0] > self._target(batch, ev)
        return hits

    def estimate_event_probability(
        self, ev: EventSpec, eps: float, replicates: int, seed: int
    ) -> tuple[float, tuple[float, float]]:
        """Fraction of trajectories realizing the event, with Wilson CI.

        Replicate i is keyed (seed, i) whatever the block it is stepped in;
        a zero estimate signals that eps is too small for direct Monte Carlo
        at this replicate budget.
        """
        if replicates < 100:
            raise ValueError("need at least 100 replicates")
        hits = sum(int(np.count_nonzero(self._hits(batch, ev)))
                   for batch in self.trajectory_blocks(eps, replicates, seed))
        return hits / replicates, wilson_interval(hits, replicates)

    def rate_ladder(self, ev: EventSpec, eps_ladder, replicates: int, seed: int) -> RateReport:
        rungs = [self.estimate_event_probability(ev, eps, replicates, seed + idx)
                 for idx, eps in enumerate(eps_ladder)]
        p_hats = [p for p, _ in rungs]
        fit = ldp_slope(eps_ladder, p_hats)
        return RateReport(
            eps_ladder=list(eps_ladder),
            p_hats=p_hats,
            ci_lo=[lo for _, (lo, _) in rungs],
            ci_hi=[hi for _, (_, hi) in rungs],
            replicates=replicates,
            slope_value=fit.value if fit.ok else None,
            slope_drift=fit.drift if fit.ok else None,
        )

    # -- variational bound ---------------------------------------------------

    def pinv_terminal_rate(self, delta: float) -> float:
        """Pseudo-inverse rate of the cheapest terminal target on the sphere."""
        return cheapest_terminal_rate(self.L, delta)

    def _skeletons(self, cs: np.ndarray, design: np.ndarray) -> tuple[np.ndarray, TrajectoryBatch]:
        """The control values (R, n_modes, n) of the spline coefficients in
        the rows of ``cs``, and their skeletons from one batched solve."""
        values = cs.reshape(len(cs), self.spec.grid.mode_count, -1) @ design.T
        return values, self.skeletons(values)

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """Objective of :meth:`minimize_rate` for the spline coefficients in
        the rows of ``cs``, and its gradients (R, dim) with respect to them,
        from one batched skeleton solve and one reverse sweep.  The objective
        is half the control energy plus ``pen`` times the squared
        distance-to-event, which is zero once the event is realized, and on
        an absorbed row.  The energy's gradient is closed-form.  The
        distance's is seeded at the state U and step that :meth:`_reach`
        returns, as -2 ``pen`` times the distance times the gradient cv^2 (1
        + |xi|^2)^s U / (volume |U|_s) of the norm (cv the cell volume; a
        subgradient for a sup, and 0 where |U|_s is 0), and runs back through
        the skeleton (:func:`~fracnls.solver.mode_path_gradient`) and the
        response map."""
        grid = self.spec.grid
        values, batch = self._skeletons(cs, design)
        energy = half_energy(values, self.tg)
        rows = np.flatnonzero(~batch.blown_up)
        short = np.zeros(len(cs))
        # steps k >= 1: the state at t = 0 does not depend on the control, so a
        # sup reached there would leave the penalty flat at the zero control
        norms, states, steps, s = self._reach(batch, rows, ev, 1)
        short[rows] = np.maximum(0.0, self._target(batch, ev) * (1.0 + _MARGIN) - norms)
        weights = -2.0 * pen * short[rows] * (grid.cell_volume**2 / grid.volume)
        scale = np.divide(weights, norms, out=np.zeros_like(norms), where=norms > 0.0)
        spectra_grad = np.zeros(batch.spectra.shape, dtype=complex)
        spectra_grad[rows, steps] = (1.0 + grid.xi_squared) ** s * states * scale.reshape((-1,) + (1,) * grid.d)
        paths_grad = mode_path_gradient(grid, self.nl, batch, spectra_grad, 1.0, self.cfg)
        values_grad = self.L.apply_batch_adjoint(paths_grad) + self.tg.dt * values
        return energy + pen * short * short, (values_grad @ design).reshape(len(cs), -1)

    def minimize_rate(self, ev: EventSpec, n_splines: int, budget: int) -> MinimizeResult:
        """Penalty search for a feasible control of small energy.

        Controls are parametrized on a tensor basis (modes x time B-splines);
        the penalty is multiplied by 10 until the skeleton realizes the
        event, then the control is shrunk along its ray to the cheapest
        scaling that stays feasible; a zero control that realizes the event
        has rate 0, and no search.  Otherwise each round runs :func:`_lbfgs`
        on the exact gradient, the first from every coefficient at ``_START``
        and each later one from where the last stopped.  A call solves one
        skeleton and sweeps it back, which ``budget`` and ``nfev`` count as 2
        objective rows, so a round makes at most budget // 2 calls.  Returns
        an upper bound on the infimum.
        """
        n_modes = self.spec.grid.mode_count
        design = self.control_basis(n_splines)  # (n, n_b)
        dim = n_modes * n_splines
        nfev = 0

        def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
            # at the penalty of the round in progress
            nonlocal nfev
            nfev += 2
            value, grad = self._penalized_energies(x[None], design, ev, pen)
            return float(value[0]), grad[0]

        pen = 10.0 / max(ev.threshold, 1.0) ** 2
        if self._realizes(np.zeros((1, dim)), design, ev)[0]:  # u0 or the deterministic flow realizes it
            return MinimizeResult(np.zeros((n_modes, self.tg.n)), 0.0, True, nfev, pen)
        c = np.full(dim, _START)
        feasible = False
        for _ in range(8):
            c = _lbfgs(value_and_grad, c, budget // 2)
            if self._realizes(c[None], design, ev)[0]:
                feasible = True
                break
            pen *= 10.0
        if feasible:
            c = self._shrink_along_ray(c, design, ev) * c
        control = c.reshape(n_modes, n_splines) @ design.T
        rate = float(half_energy(control, self.tg)) if feasible else math.inf
        return MinimizeResult(control, rate, feasible, nfev, pen)
