"""Rare-event machinery tests: intervals, slopes, optimizer, support, Holder."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from fracnls import fbm, ldp, oracles
from fracnls.fbm import TimeGrid, _row_blocks, replicate_stream, sample_fbm_fast
from fracnls.field import ComplexField, GridSpec, sobolev_norm, sobolev_norms
from fracnls.ldp import (
    EventSpec,
    LdpLab,
    holder_exponent,
    ldp_slope,
    support_distance,
    wilson_interval,
)
from fracnls.noise import (
    CorrelationSpec,
    DiscreteLOperator,
    build_correlation,
    half_energy,
    terminal_covariance_blocks,
)
from fracnls.solver import NonlinearitySpec, SolverConfig, solve_mild, solve_mild_batch, solve_skeleton


@pytest.fixture
def linear_lab():
    g = GridSpec(1, 8, math.pi)
    phis = np.array([0.2, 1.0, 0.05, 0.01, 0.005, 0.01, 0.05, 1.0])
    spec = CorrelationSpec(grid=g, eigenvalues=phis)
    cfg = SolverConfig(T=1.0, n_steps=16)
    return LdpLab(ComplexField.zero(g), None, spec, 0.7, cfg)


@pytest.fixture
def focusing_lab():
    # quintic focusing Kerr with a low threshold: at eps = 2 about a sixth of
    # the replicates are absorbed, at steps spread over the last 60% of [0, T]
    g = GridSpec(1, 16, math.pi)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    x = g.coordinates[0]
    u0 = ComplexField(g, (np.exp(-(x**2)) * (1 + 0.3 * np.cos(x))).astype(complex))
    cfg = SolverConfig(T=1.0, n_steps=32, blowup_threshold=3.0)
    return LdpLab(u0, NonlinearitySpec("kerr", 1.0, 2.0), spec, 0.7, cfg)


@pytest.fixture
def saturated_lab():
    g = GridSpec(1, 8, math.pi)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    x = g.coordinates[0]
    u0 = ComplexField(g, (0.5 * np.exp(1j * x)).astype(complex))
    nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
    return LdpLab(u0, nl, spec, 0.7, SolverConfig(T=1.0, n_steps=16))


@pytest.fixture
def absorbed_lab():
    # the focusing model with a large initial datum: its deterministic flow is
    # absorbed at the cemetery before T
    g = GridSpec(1, 16, math.pi)
    x = g.coordinates[0]
    u0 = ComplexField(g, (2.0 * np.exp(-(x**2))).astype(complex))
    cfg = SolverConfig(T=1.0, n_steps=32, blowup_threshold=6.0)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    lab = LdpLab(u0, NonlinearitySpec("kerr", 1.0, 2.0), spec, 0.7, cfg)
    assert lab.deterministic.blown_up
    return lab


def sample_trajectory(lab, eps, seed, replicate):
    """Reference: replicate ``replicate`` of ``seed`` drawn and solved alone."""
    return solve_mild(lab.u0, lab.nl, lab.L.sample_mode_paths(seed, replicate), eps, lab.cfg)


def loop_hits(lab, ev, eps, replicates, seed):
    """Reference Monte Carlo: one trajectory and one event test per replicate."""
    return sum(lab.event_occurred(sample_trajectory(lab, eps, seed, i), ev) for i in range(replicates))


def loop_shortfall(lab, traj, ev, margin):
    """Reference distance-to-event of one trajectory."""
    if traj.blown_up:
        return 0.0
    if ev.kind == "terminal-ball-exit":
        reach = float(sobolev_norms(traj.grid, traj.spectra[-1] - lab.deterministic.spectra[-1], ev.sobolev_index))
        return max(0.0, ev.threshold * (1.0 + margin) - reach)
    if ev.kind == "sup-norm-exceed":
        # the sup over steps k >= 1, where the control acts
        reach = max(float(sobolev_norms(traj.grid, v, ev.sobolev_index)) for v in traj.spectra[1:])
        return max(0.0, ev.threshold * (1.0 + margin) - reach)
    # blow-up: the cap against the sup after t = 0, where the control acts
    cap = lab.cfg.blowup_cap(traj.h1_norms[0])
    return max(0.0, cap * (1.0 + margin) - max(traj.h1_norms[1:]))


def gaussian_terminal_tail(
    L: DiscreteLOperator, delta: float, eps: float, nsamples: int = 400_000, seed: int = 0
) -> tuple[float, float]:
    """P(||sqrt(eps) Z(T)||_{L2} > delta) from the terminal covariance spectrum.

    Independent oracle for the linear terminal event: diagonalizes the
    per-mode 2x2 blocks and Monte Carlos the resulting weighted chi-square
    tail (no PDE stepping involved).  Returns (p, standard error).
    """
    lams = np.linalg.eigvalsh(terminal_covariance_blocks(L)).reshape(-1)
    lams = lams[lams > 1e-300]
    thr = delta * delta / eps
    rng = replicate_stream(seed, 0)
    hits = 0
    for rows in _row_blocks(nsamples, 8 * lams.size):
        g = rng.standard_normal((len(rows), lams.size))
        hits += int(np.count_nonzero((g * g) @ lams > thr))
    p = hits / nsamples
    se = math.sqrt(max(p * (1 - p), 1e-300) / nsamples)
    return p, se


class TestWilson:
    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == pytest.approx(1.0, abs=1e-12) and lo > 0.95

    def test_contains_estimate(self):
        lo, hi = wilson_interval(37, 200)
        assert lo < 37 / 200 < hi


class TestSlope:
    def test_synthetic_exponential_decay(self):
        c = 0.8
        eps = [0.25, 0.16, 0.09, 0.04]
        p = [math.exp(-c / e) for e in eps]
        fit = ldp_slope(eps, p)
        assert fit.ok
        assert fit.value == pytest.approx(c, abs=1e-12)
        assert abs(fit.drift) < 1e-9

    def test_insufficient_data_flag(self):
        fit = ldp_slope([0.2, 0.1, 0.05, 0.02], [0.5, 0.1, 0.0, 0.0])
        assert not fit.ok and fit.n_used == 2


class TestEvents:
    def test_deterministic_avoidance(self, linear_lab):
        ev = EventSpec("terminal-ball-exit", threshold=0.5, sobolev_index=0.0)
        p, ci = linear_lab.estimate_event_probability(ev, 0.0, 100, seed=0)
        assert p == 0.0

    @pytest.mark.parametrize(
        "lab_name, ev",
        [
            ("linear_lab", EventSpec("terminal-ball-exit", threshold=0.5, sobolev_index=0.0)),
            ("saturated_lab", EventSpec("sup-norm-exceed", threshold=0.6, sobolev_index=1.0)),
            ("saturated_lab", EventSpec("sup-norm-exceed", threshold=0.4, sobolev_index=0.5)),
            ("focusing_lab", EventSpec("blow-up-before-T")),
            ("absorbed_lab", EventSpec("blow-up-before-T")),
            ("absorbed_lab", EventSpec("terminal-ball-exit", threshold=0.5)),
        ],
    )
    def test_zero_noise_decides_the_deterministic_flow(self, request, lab_name, ev):
        lab = request.getfixturevalue(lab_name)
        hits = lab._hits(deterministic_batch(lab), ev)
        assert hits.tolist() == [lab.event_occurred(lab.deterministic, ev)]

    def test_terminal_ball_without_a_centre_names_the_absorbed_step(self, absorbed_lab):
        # a live trajectory of the absorbed model's grid: the zero field
        lab, ev = absorbed_lab, EventSpec("terminal-ball-exit", threshold=0.5)
        live = solve_mild(ComplexField.zero(lab.spec.grid), lab.nl, None, 0.0, lab.cfg)
        assert not live.blown_up
        message = f"absorbed at step {lab.deterministic.cemetery_index},"
        with pytest.raises(ValueError, match=message):
            lab.event_occurred(live, ev)
        batch = solve_mild_batch(ComplexField.zero(lab.spec.grid), lab.nl, None, 0.0, lab.cfg)
        with pytest.raises(ValueError, match=message):
            lab._hits(batch, ev)

    def test_zero_threshold_sup_event_is_sure(self, linear_lab):
        ev = EventSpec("sup-norm-exceed", threshold=0.0, sobolev_index=0.0)
        p, _ = linear_lab.estimate_event_probability(ev, 0.5, 100, seed=1)
        assert p == 1.0

    def test_replicate_floor(self, linear_lab):
        ev = EventSpec("sup-norm-exceed", threshold=0.0)
        with pytest.raises(ValueError):
            linear_lab.estimate_event_probability(ev, 0.5, 50, seed=0)

    def test_monotone_in_eps_within_ci(self, linear_lab):
        ev = EventSpec("terminal-ball-exit", threshold=0.6, sobolev_index=0.0)
        report = linear_lab.rate_ladder(ev, [0.25, 0.09], replicates=800, seed=5)
        # smaller eps gives smaller probability, allowing CI overlap
        assert report.p_hats[1] <= report.ci_hi[0]

    def test_linear_tail_matches_spectral_oracle(self, linear_lab):
        delta, eps = 0.64, 0.16
        ev = EventSpec("terminal-ball-exit", threshold=delta, sobolev_index=0.0)
        p_mc, (lo, hi) = linear_lab.estimate_event_probability(ev, eps, 3000, seed=8)
        p_exact, se = gaussian_terminal_tail(linear_lab.L, delta, eps, nsamples=400_000, seed=1)
        assert lo - 4 * se <= p_exact <= hi + 4 * se

    def test_avoidance_rate_strictly_positive(self, linear_lab):
        # every rung's transformed value stays positive at the CI edge
        ev = EventSpec("terminal-ball-exit", threshold=0.64, sobolev_index=0.0)
        report = linear_lab.rate_ladder(ev, [0.25, 0.16, 0.09, 0.04], replicates=800, seed=23)
        assert report.slope_value is not None and report.slope_value > 0
        for eps, hi in zip(report.eps_ladder, report.ci_hi):
            assert -eps * math.log(hi) > 0  # upper CI still below probability one

    def test_blowup_event_kind(self, linear_lab):
        ev = EventSpec("blow-up-before-T", threshold=0.0)
        # the linear flow never blows up
        assert not linear_lab.event_occurred(linear_lab.deterministic, ev)
        # a trajectory absorbed at the cemetery realizes it
        traj = sample_trajectory(linear_lab, 1.0, seed=0, replicate=0)
        traj.cemetery_index = 5
        assert linear_lab.event_occurred(traj, ev)


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize(
        "lab_name, ev, eps",
        [
            ("linear_lab", EventSpec("terminal-ball-exit", threshold=0.64, sobolev_index=0.0), 0.25),
            ("linear_lab", EventSpec("sup-norm-exceed", threshold=0.9, sobolev_index=1.0), 0.25),
            ("linear_lab", EventSpec("sup-norm-exceed", threshold=0.75, sobolev_index=0.5), 0.25),
            ("focusing_lab", EventSpec("blow-up-before-T"), 2.0),
        ],
    )
    def test_hits_equal_loop_reference(self, request, lab_name, ev, eps):
        lab = request.getfixturevalue(lab_name)
        state_bytes = (lab.cfg.n_steps + 1) * lab.spec.grid.mode_count * 16
        chunk = fbm._BLOCK_BYTES // state_bytes
        reps = 2 * chunk + 7  # two full chunks and a short one
        p, _ = lab.estimate_event_probability(ev, eps, reps, seed=3)
        hits = loop_hits(lab, ev, eps, reps, seed=3)
        assert 0 < hits < reps
        assert p == hits / reps


READ_EVENTS = [
    EventSpec("terminal-ball-exit", sobolev_index=0.0),
    EventSpec("terminal-ball-exit", sobolev_index=0.5),
    EventSpec("terminal-ball-exit", sobolev_index=1.0),
    EventSpec("sup-norm-exceed", sobolev_index=0.0),
    EventSpec("sup-norm-exceed", sobolev_index=0.5),
    EventSpec("sup-norm-exceed", sobolev_index=1.0),
    EventSpec("blow-up-before-T", sobolev_index=0.5),
]


class TestReach:
    """The one reading of an event: which state of each live replicate it
    reads, against a per-state loop, and the hits it decides against
    :meth:`LdpLab.event_occurred`."""

    @pytest.mark.parametrize("lab_name", ["linear_lab", "saturated_lab", "focusing_lab"])
    @pytest.mark.parametrize("ev", READ_EVENTS, ids=lambda ev: f"{ev.kind}-s{ev.sobolev_index}")
    def test_reach_reads_the_first_arg_max_state(self, request, lab_name, ev):
        # a cap of 3 at eps 2 absorbs 6 to 15 of the 40 rows in each lab
        lab = request.getfixturevalue(lab_name)
        lab = replace(lab, cfg=replace(lab.cfg, blowup_threshold=3.0))
        batch = sample_batch(lab, seed=5, rows=40, eps=2.0)
        rows = np.flatnonzero(~batch.blown_up)
        assert 0 < rows.size < 40
        grid, n = lab.spec.grid, lab.tg.n
        want_s = 1.0 if ev.kind == "blow-up-before-T" else ev.sobolev_index
        for start in (0, 1):
            norms, states, steps, s = lab._reach(batch, rows, ev, start)
            assert s == want_s
            assert norms.tolist() == [float(sobolev_norms(grid, u, s)) for u in states]
            if ev.kind == "terminal-ball-exit":
                assert steps.tolist() == [n] * rows.size
                assert np.array_equal(states, batch.spectra[rows, n] - lab.deterministic.spectra[n])
                continue
            for r, k, norm in zip(rows, steps, norms):
                path = [float(sobolev_norms(grid, u, s)) for u in batch.spectra[r, start:]]
                assert k == start + path.index(max(path)) and norm == max(path)
            assert np.array_equal(states, batch.spectra[rows, steps])
        # a threshold between the live norms, so both outcomes occur
        norms = lab._reach(batch, rows, ev, 0)[0]
        ev = replace(ev, threshold=float(np.median(norms)))
        trajs = [sample_trajectory(lab, 2.0, 5, r) for r in range(40)]
        assert lab._hits(batch, ev).tolist() == [lab.event_occurred(traj, ev) for traj in trajs]


class TestMinimizeRate:
    @pytest.mark.parametrize(
        "lab_name, ev, scale",
        [
            ("linear_lab", EventSpec("terminal-ball-exit", threshold=0.64, sobolev_index=0.0), 1.0),
            ("saturated_lab", EventSpec("sup-norm-exceed", threshold=1.6, sobolev_index=0.5), 1.0),
            ("focusing_lab", EventSpec("blow-up-before-T"), 3.0),
        ],
    )
    def test_batched_objective_equals_single_controls(self, request, lab_name, ev, scale):
        lab = request.getfixturevalue(lab_name)
        n_modes, n_splines, pen, margin = lab.spec.grid.mode_count, 4, 7.0, ldp._MARGIN
        design = ldp._spline_design(lab.tg.n, lab.tg.T, n_splines)
        cs = scale * np.random.default_rng(4).normal(size=(n_modes * n_splines + 1, n_modes * n_splines))
        got = lab._penalized_energies(cs, design, ev, pen)[0]
        shorts = []
        for r, c in enumerate(cs):
            h = c.reshape(n_modes, n_splines) @ design.T
            traj = solve_skeleton(lab.u0, h, lab.nl, lab.cfg, lab.L)
            short = loop_shortfall(lab, traj, ev, margin)
            shorts.append(short)
            assert got[r] == half_energy(h, lab.tg) + pen * short * short
        assert 0.0 in shorts and max(shorts) > 0.0

    def test_event_containing_flow_costs_nothing(self):
        # nonzero initial datum: its free flow already exceeds half its own
        # sup norm, so the zero control realizes the event at zero cost
        g = GridSpec(1, 8, math.pi)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        cfg = SolverConfig(T=1.0, n_steps=16)
        x = g.coordinates[0]
        u0 = ComplexField(g, (0.5 * np.exp(1j * x)).astype(complex))
        lab = LdpLab(u0, None, spec, 0.7, cfg)
        det_sup = max(np.nanmax(lab.deterministic.h1_norms), 0.0)
        ev = EventSpec("sup-norm-exceed", threshold=0.5 * det_sup, sobolev_index=1.0)
        res = lab.minimize_rate(ev, n_splines=4, budget=200)
        assert res.feasible
        assert res.rate == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "lab_name, kind, s",
        [("focusing_lab", "sup-norm-exceed", 1.0), ("focusing_lab", "sup-norm-exceed", 0.5),
         ("absorbed_lab", "blow-up-before-T", 0.0)],
    )
    def test_event_realized_without_control_costs_nothing(self, request, lab_name, kind, s):
        # u0 realizes the sup-norm event at t = 0; the absorbed model's
        # deterministic flow blows up
        lab = request.getfixturevalue(lab_name)
        ev = EventSpec(kind, threshold=0.5 * sobolev_norm(lab.u0, s), sobolev_index=s)
        res = lab.minimize_rate(ev, n_splines=4, budget=200)
        assert res.feasible and res.rate == 0.0 and res.nfev == 0
        assert res.control.shape == (lab.spec.grid.mode_count, lab.tg.n) and not res.control.any()

    def test_linear_within_five_percent_of_pinv(self, linear_lab):
        blocks = terminal_covariance_blocks(linear_lab.L)
        lmax = max(np.linalg.eigvalsh(b)[-1] for b in blocks)
        delta = math.sqrt(2 * 0.22 * lmax)
        pinv_rate, _ = linear_lab.pinv_terminal_rate(delta)
        ev = EventSpec("terminal-ball-exit", threshold=delta, sobolev_index=0.0)
        res = linear_lab.minimize_rate(ev, n_splines=8, budget=4000)
        assert res.feasible
        assert res.rate <= 1.05 * pinv_rate
        assert res.rate >= 0.95 * pinv_rate  # cannot beat the true infimum by much

    def test_monotone_in_radius(self, linear_lab):
        ev1 = EventSpec("terminal-ball-exit", threshold=0.4, sobolev_index=0.0)
        ev2 = EventSpec("terminal-ball-exit", threshold=0.8, sobolev_index=0.0)
        r1 = linear_lab.minimize_rate(ev1, n_splines=6, budget=2000)
        r2 = linear_lab.minimize_rate(ev2, n_splines=6, budget=2000)
        assert r1.feasible and r2.feasible
        assert r2.rate > r1.rate


def skeleton_realizes(lab, ev, c, design):
    """Reference event test: one single-control skeleton solve."""
    h = c.reshape(lab.spec.grid.mode_count, -1) @ design.T
    return lab.event_occurred(solve_skeleton(lab.u0, h, lab.nl, lab.cfg, lab.L), ev)


def sequential_shrink(lab, ev, c, design):
    """Reference ray shrink: 25 sequential bisection steps, one solve each."""
    lo, hi = 0.0, 1.0
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if skeleton_realizes(lab, ev, mid * c, design):
            hi = mid
        else:
            lo = mid
    return hi


# Event kinds whose targets no tested point reaches, so the penalty is smooth there.
GRADIENT_EVENTS = [
    EventSpec("terminal-ball-exit", threshold=5.0, sobolev_index=0.0),
    EventSpec("terminal-ball-exit", threshold=5.0, sobolev_index=1.0),
    EventSpec("sup-norm-exceed", threshold=5.0, sobolev_index=1.0),
    EventSpec("sup-norm-exceed", threshold=5.0, sobolev_index=0.5),
    EventSpec("blow-up-before-T"),
]

# L-BFGS-B's stopping rules as minimize_rate's L-BFGS takes them.
LBFGSB_OPTIONS = {"maxfun": 4000, "ftol": ldp._FTOL, "gtol": ldp._GTOL}


class TestBatchedOptimizer:
    """The optimizer's exact gradient, spline basis and L-BFGS against
    independent references, its budget in rows, and its batched ray shrink
    against the sequential bisection bit for bit."""

    @pytest.mark.parametrize("lab_name", ["linear_lab", "saturated_lab", "focusing_lab"])
    @pytest.mark.parametrize("ev", GRADIENT_EVENTS, ids=lambda ev: f"{ev.kind}-s{ev.sobolev_index}")
    def test_adjoint_gradient_equals_central_difference(self, request, lab_name, ev):
        lab = request.getfixturevalue(lab_name)
        design = ldp._spline_design(lab.tg.n, lab.tg.T, 4)
        dim = lab.spec.grid.mode_count * 4
        x = 0.3 * np.random.default_rng(2).normal(size=dim)
        # the penalty scaled to the target, as minimize_rate's first round has it:
        # the blow-up cap of 1000 would leave the differences to rounding
        pen = 7.0 / max(lab._target(deterministic_batch(lab), ev), 1.0) ** 2
        value, grad = lab._penalized_energies(x[None], design, ev, pen)
        h = 1e-4
        cs = np.concatenate([x[None], x + h * np.eye(dim), x - h * np.eye(dim)])
        values = lab._penalized_energies(cs, design, ev, pen)[0]
        # away from the kinks: every point is live and short of the event
        assert np.all(values > half_energy(cs.reshape(len(cs), -1, 4) @ design.T, lab.tg))
        assert value.tolist() == values[:1].tolist()
        central = (values[1:dim + 1] - values[dim + 1:]) / (2 * h)
        assert np.abs(grad[0] - central).max() <= 1e-6 * np.abs(central).max()

    @pytest.mark.parametrize("n, n_splines", [(1, 4), (3, 9), (16, 4), (16, 8), (17, 6), (64, 8), (64, 64)])
    def test_spline_design_equals_scipy(self, n, n_splines):
        T = 1.3
        internal = np.linspace(0.0, T, n_splines - 2)[1:-1]
        knots = np.concatenate([[0.0] * 4, internal, [T] * 4])
        want = BSpline.design_matrix((np.arange(n) + 0.5) * (T / n), knots, 3).toarray()
        assert np.abs(ldp._spline_design(n, T, n_splines) - want).max() <= 1e-15

    def test_lbfgs_equals_scipy_on_a_convex_quadratic(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(20, 20))
        A = A @ A.T + 0.5 * np.eye(20)
        b = rng.normal(size=20)

        def fun(x):
            return 0.5 * x @ A @ x - b @ x, A @ x - b

        got = ldp._lbfgs(fun, np.zeros(20), 1000)
        want = minimize(fun, np.zeros(20), jac=True, method="L-BFGS-B", options=LBFGSB_OPTIONS).x
        # both stop on the relative decrease, about 2e-6 from the minimizer
        exact = np.linalg.solve(A, b)
        assert np.abs(want - exact).max() <= 1e-5
        assert np.abs(got - want).max() <= 1e-8

    @pytest.mark.parametrize("pen", [10.0, 1000.0])
    def test_lbfgs_equals_scipy_on_the_readme_objective(self, linear_lab, pen):
        # the README config, whose penalty rounds reach 1000: the valley of the
        # optimum is flat, so the points agree less closely than the values
        design = ldp._spline_design(16, 1.0, 8)
        ev = EventSpec("terminal-ball-exit", threshold=0.64)

        def fun(x):
            value, grad = linear_lab._penalized_energies(x[None], design, ev, pen)
            return value[0], grad[0]

        x0 = np.full(64, ldp._START)
        got = ldp._lbfgs(fun, x0, 4000)
        want = minimize(fun, x0, jac=True, method="L-BFGS-B", options=LBFGSB_OPTIONS)
        assert fun(got)[0] == pytest.approx(want.fun, rel=1e-8)
        assert np.abs(got - want.x).max() <= 1e-3 * np.abs(want.x).max()

    def test_lbfgs_stops_at_its_call_limit(self):
        # Rosenbrock's valley takes far more than 7 calls
        calls = []

        def fun(x):
            calls.append(x)
            return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2, np.array(
                [-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2), 200 * (x[1] - x[0] ** 2)])

        ldp._lbfgs(fun, np.array([-1.2, 1.0]), 7)
        assert len(calls) == 7

    @pytest.mark.parametrize("budget", [100, 101])
    def test_budget_counts_two_rows_a_call(self, linear_lab, monkeypatch, budget):
        # a call is one skeleton row and its reverse sweep: 100 or 101 rows buy
        # 50 calls a round, and the README event needs more in some round
        ev = EventSpec("terminal-ball-exit", threshold=0.64)
        pens = []
        objective = linear_lab._penalized_energies

        def recording(cs, design, ev, pen):
            pens.append(pen)
            return objective(cs, design, ev, pen)

        monkeypatch.setattr(linear_lab, "_penalized_energies", recording)
        res = linear_lab.minimize_rate(ev, n_splines=8, budget=budget)
        calls = [pens.count(pen) for pen in dict.fromkeys(pens)]
        assert res.feasible and res.penalty == pens[-1]
        assert res.nfev == 2 * len(pens)
        assert max(calls) == 50

    @pytest.mark.parametrize(
        "lab_name, ev, scale",
        [
            ("linear_lab", EventSpec("terminal-ball-exit", threshold=0.64, sobolev_index=0.0), 1.0),
            ("saturated_lab", EventSpec("sup-norm-exceed", threshold=1.6, sobolev_index=0.5), 3.0),
            ("focusing_lab", EventSpec("blow-up-before-T"), 8.0),
        ],
    )
    def test_ray_shrink_equals_sequential_bisection(self, request, lab_name, ev, scale):
        lab = request.getfixturevalue(lab_name)
        design = ldp._spline_design(lab.tg.n, lab.tg.T, 4)
        rng = np.random.default_rng(6)
        c = scale * rng.normal(size=lab.spec.grid.mode_count * 4)
        assert skeleton_realizes(lab, ev, c, design)
        got = lab._shrink_along_ray(c, design, ev)
        assert got == sequential_shrink(lab, ev, c, design)
        assert 0.0 < got < 1.0


def sample_batch(lab, seed, rows, eps=1.0):
    """Replicates 0..rows-1 of ``seed`` at intensity ``eps``, in one batch."""
    paths = lab.L.sample_mode_path_batch(seed, range(rows))
    return solve_mild_batch(lab.u0, lab.nl, paths, eps, lab.cfg)


def deterministic_batch(lab):
    return solve_mild_batch(lab.u0, lab.nl, None, 0.0, lab.cfg)


class TestSupport:
    @pytest.fixture
    def nonlinear_lab(self):
        g = GridSpec(1, 8, math.pi)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        cfg = SolverConfig(T=1.0, n_steps=16)
        x = g.coordinates[0]
        u0 = ComplexField(g, (0.5 * np.exp(1j * x)).astype(complex))
        nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
        return LdpLab(u0, nl, spec, 0.7, cfg)

    def test_distance_to_self_is_zero(self, nonlinear_lab):
        lab = nonlinear_lab
        batch = solve_mild_batch(lab.u0, lab.nl, lab.L.apply_batch(np.ones((1, 8, 16))), 1.0, lab.cfg)
        assert support_distance(lab.spec.grid, batch, batch).tolist() == [[0.0]]

    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_distance_equals_per_step_loop(self, nonlinear_lab, s):
        lab = nonlinear_lab
        a = sample_trajectory(lab, 1.0, seed=4, replicate=0)
        b = lab.deterministic
        g = lab.spec.grid
        loop = max(float(sobolev_norms(g, va - vb, s)) for va, vb in zip(a.spectra, b.spectra))
        D = support_distance(g, sample_batch(lab, 4, 1), deterministic_batch(lab), s)
        assert D.tolist() == [[loop]]

    def test_single_member_family_is_plain_distance(self, nonlinear_lab):
        lab = nonlinear_lab
        g = lab.spec.grid
        a = sample_trajectory(lab, 1.0, seed=4, replicate=0)
        b = lab.deterministic
        plain = max(float(sobolev_norms(g, va - vb, 1.0)) for va, vb in zip(a.spectra, b.spectra))
        D = support_distance(g, sample_batch(lab, 4, 1), deterministic_batch(lab))
        assert np.median(D.min(axis=1)) == pytest.approx(plain)

    def test_median_decreases_with_family_size(self, nonlinear_lab):
        lab = nonlinear_lab
        z = np.stack([replicate_stream(1234, i).standard_normal((8, 16)) for i in range(32)])
        family = solve_mild_batch(lab.u0, lab.nl, lab.L.apply_batch(z), 1.0, lab.cfg)
        D = support_distance(lab.spec.grid, sample_batch(lab, 900, 30), family)
        mins_small, mins_large = D[:, :8].min(axis=1), D.min(axis=1)
        assert np.all(mins_large <= mins_small + 1e-15)
        assert np.median(mins_large) < np.median(mins_small)

    def test_pairs_across_cemetery_indices_match_pair_loop(self, focusing_lab):
        # two sets of focusing samples absorbed at assorted steps, some shared;
        # the states from each cemetery index on are poisoned with NaN, which
        # no distance may read
        lab = focusing_lab
        g = lab.spec.grid
        samples, family = sample_batch(lab, 3, 40, eps=2.0), sample_batch(lab, 8, 60, eps=2.0)
        for batch in (samples, family):
            for r, k_star in enumerate(batch.cemetery_index):
                batch.spectra[r, k_star:] = np.nan
        shared = set(samples.cemetery_index.tolist()) & set(family.cemetery_index[family.blown_up].tolist())
        assert len(shared) > 1
        D = support_distance(g, samples, family)
        for i, (a, k_a) in enumerate(zip(samples.spectra, samples.cemetery_index)):
            for j, (b, k_b) in enumerate(zip(family.spectra, family.cemetery_index)):
                loop = math.inf
                if k_a == k_b:
                    loop = max(float(sobolev_norms(g, a[k] - b[k], 1.0)) for k in range(k_a))
                assert D[i, j] == loop


class TestHolder:
    def test_line_path(self):
        assert oracles.holder_line_error(2048) <= 0.02
        assert not holder_exponent(np.linspace(0.0, 1.0, 2048)).degenerate

    def test_constant_path_degenerate(self):
        rep = holder_exponent(np.ones(2048))
        assert rep.degenerate

    def test_fbm_recovery(self):
        grid = TimeGrid(1.0, 2**14)
        for H in (0.3, 0.5, 0.7):
            paths = sample_fbm_fast(H, grid, 3, seed=101)
            for i in range(3):
                rep = holder_exponent(paths[i])
                assert abs(rep.exponent - H) <= 0.08

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            holder_exponent(np.arange(8, dtype=float))

    def test_needs_two_dyadic_lags(self):
        # 32 points admit only the lag 4 (lags run up to n / 8)
        with pytest.raises(ValueError, match="need at least two lags"):
            holder_exponent(np.arange(32, dtype=float))

    def test_weighted_vector_path(self):
        # weighting must change the norm actually used
        rng = np.random.default_rng(0)
        n = 2048
        base = np.cumsum(rng.normal(size=n))
        path = np.stack([base, np.zeros(n)], axis=1)
        r1 = holder_exponent(path, weights=np.array([1.0, 1e6]))
        r2 = holder_exponent(base)
        assert r1.exponent == pytest.approx(r2.exponent, abs=1e-12)
