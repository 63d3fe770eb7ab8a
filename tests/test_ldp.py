"""Rare-event machinery tests: intervals, slopes, optimizer, support, Holder."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.optimize._numdiff import approx_derivative

from fracnls import ldp, oracles
from fracnls.fbm import HurstKernel, TimeGrid, replicate_stream, sample_fbm_fast
from fracnls.field import ComplexField, GridSpec, sobolev_norm
from fracnls.ldp import (
    EventSpec,
    LdpLab,
    gaussian_terminal_tail,
    holder_exponent,
    ldp_slope,
    support_distance,
    trajectory_distance,
    wilson_interval,
)
from fracnls.noise import Control, CorrelationSpec, build_correlation, terminal_covariance_blocks
from fracnls.solver import NonlinearitySpec, SolverConfig, solve_skeleton


@pytest.fixture
def linear_lab():
    g = GridSpec(1, 8, math.pi)
    kern = HurstKernel(0.7)
    phis = np.array([0.2, 1.0, 0.05, 0.01, 0.005, 0.01, 0.05, 1.0])
    spec = CorrelationSpec(grid=g, eigenvalues=phis)
    cfg = SolverConfig(T=1.0, n_steps=16)
    return LdpLab(ComplexField.zero(g), None, spec, kern, cfg)


@pytest.fixture
def focusing_lab():
    # quintic focusing Kerr with a low threshold: at eps = 2 about a sixth of
    # the replicates are absorbed, at steps spread over the last 60% of [0, T]
    g = GridSpec(1, 16, math.pi)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    x = g.coordinates[0]
    u0 = ComplexField(g, (np.exp(-(x**2)) * (1 + 0.3 * np.cos(x))).astype(complex))
    cfg = SolverConfig(T=1.0, n_steps=32, blowup_threshold=3.0)
    return LdpLab(u0, NonlinearitySpec("kerr", 1.0, 2.0), spec, HurstKernel(0.7), cfg)


@pytest.fixture
def saturated_lab():
    g = GridSpec(1, 8, math.pi)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    x = g.coordinates[0]
    u0 = ComplexField(g, (0.5 * np.exp(1j * x)).astype(complex))
    nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
    return LdpLab(u0, nl, spec, HurstKernel(0.7), SolverConfig(T=1.0, n_steps=16))


def loop_hits(lab, ev, eps, replicates, seed):
    """Reference Monte Carlo: one trajectory and one event test per replicate."""
    return sum(lab.event_occurred(lab.sample_trajectory(eps, seed, i), ev) for i in range(replicates))


def loop_shortfall(lab, traj, ev, margin):
    """Reference distance-to-event of one trajectory."""
    if traj.blown_up:
        return 0.0
    if ev.kind == "terminal-ball-exit":
        reach = sobolev_norm(traj.terminal_field() - lab.deterministic.terminal_field(), ev.sobolev_index)
        return max(0.0, ev.threshold * (1.0 + margin) - reach)
    if ev.kind == "sup-norm-exceed":
        reach = max(sobolev_norm(ComplexField(traj.grid, v), ev.sobolev_index) for v in traj.states)
        return max(0.0, ev.threshold * (1.0 + margin) - reach)
    return max(0.0, 1.0 - np.nanmax(traj.h1_norms) / (1.0 + np.nanmax(traj.h1_norms)))


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
        traj = linear_lab.sample_trajectory(1.0, seed=0, replicate=0)
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
        chunk = ldp._BATCH_BYTES // state_bytes
        reps = 2 * chunk + 7  # two full chunks and a short one
        p, _ = lab.estimate_event_probability(ev, eps, reps, seed=3)
        hits = loop_hits(lab, ev, eps, reps, seed=3)
        assert 0 < hits < reps
        assert p == hits / reps


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
        got = lab._penalized_energies(cs, design, ev, pen)
        shorts = []
        for r, c in enumerate(cs):
            h = Control(values=c.reshape(n_modes, n_splines) @ design.T, tg=lab.tg)
            traj = solve_skeleton(lab.u0, h, lab.nl, lab.cfg, lab.L)
            short = loop_shortfall(lab, traj, ev, margin)
            shorts.append(short)
            assert got[r] == h.half_energy + pen * short * short
        assert 0.0 in shorts and max(shorts) > 0.0

    def test_event_containing_flow_costs_nothing(self):
        # nonzero initial datum: its free flow already exceeds half its own
        # sup norm, so the zero control realizes the event at zero cost
        g = GridSpec(1, 8, math.pi)
        kern = HurstKernel(0.7)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        cfg = SolverConfig(T=1.0, n_steps=16)
        x = g.coordinates[0]
        u0 = ComplexField(g, (0.5 * np.exp(1j * x)).astype(complex))
        lab = LdpLab(u0, None, spec, kern, cfg)
        det_sup = max(np.nanmax(lab.deterministic.h1_norms), 0.0)
        ev = EventSpec("sup-norm-exceed", threshold=0.5 * det_sup, sobolev_index=1.0)
        res = lab.minimize_rate(ev, n_splines=4, budget=200)
        assert res.feasible
        assert res.rate == pytest.approx(0.0, abs=1e-12)

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
    h = Control(values=c.reshape(lab.spec.grid.mode_count, -1) @ design.T, tg=lab.tg)
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


def workers_minimize_rate(lab, ev, n_splines, budget):
    """Reference optimizer: scipy's own forward differences, whose points go
    to one batch through ``workers``, f(x) as a single-row solve, and the
    sequential ray shrink.  Returns the control, the objective rows, the
    final penalty and whether some round stopped on the budget."""
    design = ldp._spline_design(lab.tg.n, lab.tg.T, n_splines)
    dim = lab.spec.grid.mode_count * n_splines
    nfev, stopped_on_budget = 0, False

    def objectives(cs, pen):
        nonlocal nfev
        nfev += len(cs)
        return lab._penalized_energies(cs, design, ev, pen)

    pen = 10.0 / max(ev.threshold, 1.0) ** 2
    c = np.zeros(dim)
    for _ in range(8):
        res = minimize(
            lambda x, pen: float(objectives(x[None], pen)[0]),
            c,
            args=(pen,),
            method="L-BFGS-B",
            options={
                "maxfun": budget,
                "ftol": 1e-12,
                "gtol": 1e-10,
                "workers": lambda _fun, points: objectives(np.array(list(points)), pen),
            },
        )
        stopped_on_budget |= res.nfev > budget
        c = res.x
        if skeleton_realizes(lab, ev, c, design):
            break
        pen *= 10.0
    else:
        raise AssertionError("reference optimizer found no feasible control")
    scale = sequential_shrink(lab, ev, c, design)
    values = (scale * c).reshape(lab.spec.grid.mode_count, n_splines) @ design.T
    return values, nfev, pen, stopped_on_budget


class TestBatchedOptimizer:
    """The optimizer's own differences and its batched ray shrink reproduce
    scipy's 2-point differences and the sequential bisection bit for bit."""

    @pytest.mark.parametrize(
        "lab_name, ev",
        [
            ("linear_lab", EventSpec("terminal-ball-exit", threshold=0.64, sobolev_index=0.0)),
            ("saturated_lab", EventSpec("sup-norm-exceed", threshold=1.6, sobolev_index=0.5)),
        ],
    )
    def test_forward_difference_equals_scipy(self, request, lab_name, ev):
        lab = request.getfixturevalue(lab_name)
        design = ldp._spline_design(lab.tg.n, lab.tg.T, 4)
        x = 0.3 * np.random.default_rng(2).normal(size=lab.spec.grid.mode_count * 4)
        x[[0, 9]] = 0.0
        x[3], x[4] = 1e9, -1e9  # 1e-8 vanishes against these: fallback steps of both signs

        def batched(cs):
            return lab._penalized_energies(cs, design, ev, 7.0)

        def f(v):
            return batched(v[None])[0]

        value, grad = ldp._forward_difference(batched, x)
        want = approx_derivative(f, x, method="2-point", abs_step=1e-8, f0=f(x))
        assert value == f(x)
        assert np.array_equal(grad, want)
        assert (x[3] + 1e-8) - x[3] == 0.0 and grad[3] != 0.0

    @pytest.mark.parametrize(
        "lab_name, ev",
        [
            ("linear_lab", EventSpec("terminal-ball-exit", threshold=0.64, sobolev_index=0.0)),
            ("saturated_lab", EventSpec("sup-norm-exceed", threshold=1.6, sobolev_index=0.5)),
        ],
    )
    def test_binding_budget_equals_workers_path(self, request, lab_name, ev):
        lab = request.getfixturevalue(lab_name)
        # dim = 32: 230 rows buy 6 evaluations of 33 rows, where 230 // 32 is 7
        values, nfev, pen, stopped_on_budget = workers_minimize_rate(lab, ev, n_splines=4, budget=230)
        res = lab.minimize_rate(ev, n_splines=4, budget=230)
        assert stopped_on_budget
        assert res.feasible
        assert np.array_equal(res.control.values, values)
        assert res.nfev == nfev
        assert res.penalty == pen

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


class TestSupport:
    @pytest.fixture
    def nonlinear_lab(self):
        g = GridSpec(1, 8, math.pi)
        kern = HurstKernel(0.7)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        cfg = SolverConfig(T=1.0, n_steps=16)
        x = g.coordinates[0]
        u0 = ComplexField(g, (0.5 * np.exp(1j * x)).astype(complex))
        nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
        return LdpLab(u0, nl, spec, kern, cfg)

    def test_distance_to_self_is_zero(self, nonlinear_lab):
        lab = nonlinear_lab
        h = Control(values=np.ones((8, 16)), tg=lab.tg)
        traj = solve_skeleton(lab.u0, h, lab.nl, lab.cfg, lab.L)
        assert trajectory_distance(traj, traj) == 0.0

    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_distance_equals_per_step_loop(self, nonlinear_lab, s):
        lab = nonlinear_lab
        a = lab.sample_trajectory(1.0, seed=4, replicate=0)
        b = lab.deterministic
        g = lab.spec.grid
        loop = max(
            sobolev_norm(ComplexField(g, va) - ComplexField(g, vb), s) for va, vb in zip(a.states, b.states)
        )
        assert trajectory_distance(a, b, s) == loop

    def test_single_member_family_is_plain_distance(self, nonlinear_lab):
        lab = nonlinear_lab
        sample = lab.sample_trajectory(1.0, seed=4, replicate=0)
        med, mins = support_distance([sample], [lab.deterministic])
        assert med == pytest.approx(trajectory_distance(sample, lab.deterministic))

    def test_median_decreases_with_family_size(self, nonlinear_lab):
        lab = nonlinear_lab
        samples = [lab.sample_trajectory(1.0, seed=900, replicate=i) for i in range(30)]
        family = []
        for i in range(32):
            z = replicate_stream(1234, i).standard_normal((8, 16))
            family.append(solve_skeleton(lab.u0, Control(values=z, tg=lab.tg), lab.nl, lab.cfg, lab.L))
        med_small, mins_small = support_distance(samples, family[:8])
        med_large, mins_large = support_distance(samples, family)
        assert np.all(mins_large <= mins_small + 1e-15)
        assert med_large < med_small


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
            ps = sample_fbm_fast(H, grid, 3, seed=101)
            for i in range(3):
                rep = holder_exponent(ps.values[i])
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
