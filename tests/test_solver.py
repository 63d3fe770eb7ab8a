"""Time stepper tests: exactness, conservation, order, blow-up, skeleton."""

import math

import numpy as np
import pytest

from fracnls import oracles
from fracnls.fbm import TimeGrid
from fracnls.field import (
    ComplexField,
    GridSpec,
    group_multiplier,
    hamiltonian,
    l2_norm,
    mass,
    sobolev_norm,
    sobolev_norms,
    values_from_modes,
)
from fracnls.noise import (
    ConvolutionSampler,
    build_correlation,
    build_L,
)
from fracnls.solver import (
    NonlinearitySpec,
    SolverConfig,
    solve_mild,
    solve_mild_batch,
    solve_skeleton,
)
from test_field import apply_group


@pytest.fixture
def grid():
    return GridSpec(1, 64, math.pi)


def gaussian_cos_field(grid, amp=0.7):
    x = grid.coordinates[0]
    return ComplexField(grid, (amp * np.exp(-(x**2)) * (1 + 0.3 * np.cos(x))).astype(complex))


def nonlinearity(nl, u):
    """f(u) = rho(|u|^2) u, the pointwise nonlinearity the stepper rotates by."""
    return nl.amplitude_rate(np.abs(u.values) ** 2) * u.values


class TestNonlinearity:
    def test_zero_maps_to_zero(self, grid):
        nl = NonlinearitySpec("kerr", 1.0, 1.0)
        out = nonlinearity(nl, ComplexField.zero(grid))
        assert np.all(out == 0)

    def test_kerr_unit_field(self, grid):
        nl = NonlinearitySpec("kerr", 1.0, 1.0)
        u = ComplexField(grid, np.ones(64, dtype=complex))
        out = nonlinearity(nl, u)
        assert np.allclose(out, 1.0)

    def test_saturated_approaches_kerr(self, grid):
        # kappa -> 0 limit on fields with sup norm <= 2
        sigma = 0.5
        kerr = NonlinearitySpec("kerr", 1.0, sigma)
        sat = NonlinearitySpec("saturated", 1.0, sigma, kappa=1e-6)
        x = grid.coordinates[0]
        u = ComplexField(grid, (2.0 * np.exp(-(x**2) / 8) * np.exp(0.3j * x)).astype(complex))
        assert np.abs(u.values).max() <= 2.0
        diff = np.abs(nonlinearity(kerr, u) - nonlinearity(sat, u))
        assert diff.max() < 1e-5

    def test_saturated_bounded(self, grid):
        nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
        u = ComplexField(grid, np.full(64, 100.0 + 0j))
        out = nonlinearity(nl, u)
        assert np.abs(out).max() <= 100.0 / 0.5  # |f| <= |u| / kappa

    def test_validation(self):
        with pytest.raises(ValueError):
            NonlinearitySpec("cubic", 1.0, 1.0)
        with pytest.raises(ValueError):
            NonlinearitySpec("kerr", 2.0, 1.0)
        with pytest.raises(ValueError):
            NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.0)


class TestDeterministicSolver:
    def test_free_flow_is_exact_group(self, grid):
        u0 = gaussian_cos_field(grid)
        cfg = SolverConfig(T=0.5, n_steps=50)
        traj = solve_mild(u0, None, None, 0.0, cfg)
        exact = apply_group(u0, 0.5)
        assert l2_norm(traj.terminal_field() - exact) < 1e-12

    def test_plane_wave_exact_solution(self, grid):
        a, k, lam, sigma = 0.8, 2, 1.0, 1.0
        assert oracles.plane_wave_error(grid, a, k, lam, sigma, 1.0, 1000) < 1e-6

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_conservation(self, grid, lam):
        u0 = gaussian_cos_field(grid)
        nl = NonlinearitySpec("kerr", lam, 1.0)
        traj = solve_mild(u0, nl, None, 0.0, SolverConfig(T=1.0, n_steps=1000))
        first = traj.field(0)
        m0, mT = mass(first), mass(traj.terminal_field())
        h0 = hamiltonian(first, lam, 1.0)
        hT = hamiltonian(traj.terminal_field(), lam, 1.0)
        assert abs(mT - m0) / m0 < 1e-8
        assert abs(hT - h0) / abs(h0) < 1e-6

    def test_strang_order(self, grid):
        u0 = gaussian_cos_field(grid, amp=1.0)
        nl = NonlinearitySpec("kerr", 1.0, 1.0)
        ref = solve_mild(u0, nl, None, 0.0, SolverConfig(T=1.0, n_steps=16000)).terminal_field()
        dts = [4e-3, 2e-3, 1e-3]
        errs = [
            l2_norm(
                solve_mild(u0, nl, None, 0.0, SolverConfig(T=1.0, n_steps=round(1 / dt))).terminal_field()
                - ref
            )
            for dt in dts
        ]
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert order >= 1.9

    def test_flow_property(self, grid):
        # restarting from the midpoint reproduces the full run
        u0 = gaussian_cos_field(grid)
        nl = NonlinearitySpec("kerr", -1.0, 1.0)
        full = solve_mild(u0, nl, None, 0.0, SolverConfig(T=1.0, n_steps=800))
        first = solve_mild(u0, nl, None, 0.0, SolverConfig(T=0.5, n_steps=400))
        second = solve_mild(first.terminal_field(), nl, None, 0.0, SolverConfig(T=0.5, n_steps=400))
        assert l2_norm(second.terminal_field() - full.terminal_field()) < 1e-8


class TestBlowup:
    def test_cemetery_index_cases(self):
        # linear flow from zero driven by mode 0 only: the state at t_k is
        # -i k e_0, whose H^1 norm is k
        g = GridSpec(1, 8, math.pi)
        cfg = SolverConfig(T=1.0, n_steps=6, blowup_threshold=2.5)
        paths = np.zeros((7, 8), dtype=complex)
        paths[:, 0] = np.arange(7)
        over = solve_mild(ComplexField.zero(g), None, paths, 1.0, cfg)
        assert over.cemetery_index == 3
        assert over.blowup_time == over.times[3]
        assert np.all(np.isnan(over.h1_norms[3:]))
        # never over the threshold
        never = solve_mild(ComplexField.zero(g), None, 0.3 * paths, 1.0, cfg)
        assert never.cemetery_index is None and not never.blown_up
        # not finite: |u|^4 overflows in the first nonlinear substep
        u0 = ComplexField(g, np.full(8, 1e100 + 0j))
        blown = solve_mild(u0, NonlinearitySpec("kerr", 1.0, 2.0), None, 0.0, SolverConfig(T=1.0, n_steps=4))
        assert blown.cemetery_index == 1
        assert len(blown.spectra) == blown.cemetery_index

    def test_threshold_below_initial_rejected(self, grid):
        u0 = gaussian_cos_field(grid)
        cfg = SolverConfig(T=1.0, n_steps=10, blowup_threshold=1e-6)
        with pytest.raises(ValueError):
            solve_mild(u0, None, None, 0.0, cfg)

    def test_focusing_supercritical_blows_up(self):
        # reference-run-established collapse: quintic focusing, negative
        # Hamiltonian, concentrated datum
        g = GridSpec(1, 4096, 2.0)
        x = g.coordinates[0]
        u0 = ComplexField(g, (8.0 * np.exp(-(x**2) / (2 * 0.25**2))).astype(complex))
        nl = NonlinearitySpec("kerr", 1.0, 2.0)
        assert hamiltonian(u0, 1.0, 2.0) < 0
        cfg = SolverConfig(T=0.25, n_steps=8000, blowup_threshold=1e3)
        traj = solve_mild(u0, nl, None, 0.0, cfg)
        assert traj.blown_up
        assert traj.blowup_time < 0.25
        # absorption: no field values from the cemetery index onward
        assert len(traj.spectra) == traj.cemetery_index

    def test_defocusing_twin_is_global(self):
        g = GridSpec(1, 4096, 2.0)
        x = g.coordinates[0]
        u0 = ComplexField(g, (8.0 * np.exp(-(x**2) / (2 * 0.25**2))).astype(complex))
        nl = NonlinearitySpec("kerr", -1.0, 2.0)
        cfg = SolverConfig(T=0.25, n_steps=8000, blowup_threshold=1e3)
        traj = solve_mild(u0, nl, None, 0.0, cfg)
        assert not traj.blown_up
        assert traj.blowup_time == math.inf


class TestAbsorptionRule:
    """Both writers absorb a replicate at the first step k >= 1 whose H^1 norm
    passes the cap, also where a later norm falls back below it."""

    @pytest.mark.parametrize("nl", [None, NonlinearitySpec("kerr", 1.0, 1.0)], ids=["closed-form", "strang"])
    def test_cemetery_is_the_first_crossing(self, nl):
        g = GridSpec(1, 8, math.pi)
        u0 = gaussian_cos_field(g, amp=0.3)
        # a forcing of one mode that peaks at steps 3 and 6 and falls back in between
        paths = np.zeros((9, 8), dtype=complex)
        paths[:, 1] = 0.1 * np.array([0, 1, 3, 6, 3, 1, 6, 2, 0])
        ref = solve_mild(u0, nl, paths, 1.0, SolverConfig(T=1.0, n_steps=8, blowup_threshold=1e6))
        norms = ref.h1_norms
        k_star = 3
        cap = 0.5 * (norms[k_star] + norms[:k_star].max())
        assert not ref.blown_up and norms[k_star] > cap
        assert norms[k_star + 1] < cap and norms[k_star + 3] > cap  # below the cap, then past it again
        traj = solve_mild(u0, nl, paths, 1.0, SolverConfig(T=1.0, n_steps=8, blowup_threshold=cap))
        assert traj.cemetery_index == k_star and traj.blowup_time == traj.times[k_star]
        assert np.array_equal(traj.h1_norms[:k_star], norms[:k_star])
        assert np.isnan(traj.h1_norms[k_star:]).all()
        assert len(traj.spectra) == k_star and np.array_equal(traj.spectra, ref.spectra[:k_star])

    @pytest.mark.parametrize("threshold", [50.0, None], ids=["given", "default"])
    @pytest.mark.parametrize("nl", [None, NonlinearitySpec("kerr", 1.0, 1.0)], ids=["closed-form", "strang"])
    def test_batch_carries_its_cap(self, grid, nl, threshold):
        u0 = gaussian_cos_field(grid)
        cfg = SolverConfig(T=1.0, n_steps=4, blowup_threshold=threshold)
        batch = solve_mild_batch(u0, nl, None, 0.0, cfg)
        assert batch.cap == cfg.blowup_cap(sobolev_norm(u0, 1.0))


class TestNoisySolver:
    @pytest.fixture
    def model(self):
        g = GridSpec(1, 8, math.pi)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 16)
        return g, 0.7, spec, tg

    def test_linear_solution_is_minus_i_convolution(self, model):
        g, H, spec, tg = model
        sampler = ConvolutionSampler(spec, H, tg)
        paths = sampler.sample_mode_paths(seed=3, replicate=0)
        cfg = SolverConfig(T=1.0, n_steps=16)
        traj = solve_mild(ComplexField.zero(g), None, paths, 1.0, cfg)
        fields = values_from_modes(g, paths)
        for k in range(17):
            assert np.abs(traj.field(k).values + 1j * fields[k]).max() < 1e-10

    def test_eps_scaling(self, model):
        g, H, spec, tg = model
        paths = ConvolutionSampler(spec, H, tg).sample_mode_paths(seed=3, replicate=0)
        cfg = SolverConfig(T=1.0, n_steps=16)
        t1 = solve_mild(ComplexField.zero(g), None, paths, 1.0, cfg)
        t4 = solve_mild(ComplexField.zero(g), None, paths, 4.0, cfg)
        assert np.abs(t4.terminal_field().values - 2 * t1.terminal_field().values).max() < 1e-10

    def test_grid_mismatch_rejected(self, model):
        g, H, spec, tg = model
        paths = ConvolutionSampler(spec, H, tg).sample_mode_paths(seed=3, replicate=0)
        cfg = SolverConfig(T=1.0, n_steps=32)
        with pytest.raises(ValueError):
            solve_mild(ComplexField.zero(g), None, paths, 1.0, cfg)


def linear_recursion(u0, paths, eps, cfg):
    """The linear mild solution stepped on the spectrum, U <- M(dt) U + D_k,
    with D_k = -i sqrt(eps) B (Z_{k+1} - M(dt) Z_k)."""
    g = u0.grid
    mult = group_multiplier(g, cfg.tg.dt)
    basis = g.mode_parity_phase * (g.mode_count / math.sqrt(g.volume))
    Z = paths.reshape((-1,) + g.shape)
    U = np.fft.fftn(u0.values)
    states = [U]
    for k in range(cfg.n_steps):
        U = mult * U - 1j * math.sqrt(eps) * basis * (Z[k + 1] - mult * Z[k])
        states.append(U)
    return np.array(states)


class TestClosedForm:
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_the_step_recursion(self, d, eps):
        g = GridSpec(d, 16, 2.0)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        cfg = SolverConfig(T=0.5, n_steps=64)
        paths = ConvolutionSampler(spec, 0.7, cfg.tg).sample_mode_paths(4, 0)
        mesh = np.meshgrid(*g.coordinates, indexing="ij")
        u0 = ComplexField(g, np.exp(-sum(x * x for x in mesh) + 1j * mesh[0]))
        traj = solve_mild(u0, None, paths, eps, cfg)
        ref = linear_recursion(u0, paths, eps, cfg)
        assert not traj.blown_up
        for k in range(cfg.n_steps + 1):
            assert np.abs(traj.spectra[k] - ref[k]).max() <= 1e-12 * np.abs(ref[k]).max()
        assert np.allclose(traj.h1_norms, sobolev_norms(g, ref, 1.0), rtol=1e-12, atol=0.0)

    def test_paths_that_do_not_start_at_zero_are_rejected(self):
        g = GridSpec(1, 8, math.pi)
        paths = np.zeros((5, 8), dtype=complex)
        paths[0, 3] = 1e-300
        with pytest.raises(ValueError, match="start at zero"):
            solve_mild(ComplexField.zero(g), None, paths, 1.0, SolverConfig(T=1.0, n_steps=4))


def assert_rows_equal_single_solves(N, nl):
    """Solves under ``nl`` driven by noise on 40 replicates of an N-point
    grid: replicates are absorbed at different steps inside one batch, every
    row still matches its own solve, and its norms are NaN from its cemetery
    index on."""
    g = GridSpec(1, N, math.pi)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    sampler = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 32))
    u0 = gaussian_cos_field(g, amp=1.0)
    cfg = SolverConfig(T=1.0, n_steps=32, blowup_threshold=3.0)
    paths = sampler.sample_mode_path_batch(5, range(40))
    batch = solve_mild_batch(u0, nl, paths, 2.0, cfg)
    absorbed = batch.cemetery_index[batch.blown_up]
    assert 0 < absorbed.size < 40 and len(set(absorbed.tolist())) > 1
    for r in range(40):
        ref = solve_mild(u0, nl, paths[r], 2.0, cfg)
        k_star = 33 if ref.cemetery_index is None else ref.cemetery_index
        assert batch.cemetery_index[r] == k_star
        assert np.isfinite(batch.h1_norms[r, :k_star]).all() and np.isnan(batch.h1_norms[r, k_star:]).all()
        assert np.array_equal(batch.h1_norms[r], ref.h1_norms, equal_nan=True)
        for k in range(k_star):
            assert np.array_equal(batch.spectra[r, k], ref.spectra[k])


KERR = NonlinearitySpec("kerr", 1.0, 2.0)


class TestBatchedSolver:
    def test_rows_equal_single_solves(self):
        assert_rows_equal_single_solves(16, KERR)

    def test_rows_equal_single_solves_in_a_batch_over_256_kib(self):
        # 40 rows of 1024 points hold 640 KiB: past 256 KiB numpy reuses the
        # temporary of ``values * exp(...)`` with the operands swapped
        assert_rows_equal_single_solves(1024, KERR)

    def test_linear_rows_equal_single_solves_in_a_batch_over_256_kib(self):
        # the closed form over blocks of steps: one step of the batch (640
        # KiB) passes the 512 KiB block budget, so the batch builds one step
        # per block and a single solve all 32 in one
        assert_rows_equal_single_solves(1024, None)

    def test_single_replicate_kerr_matches_unbatched_step(self):
        # the R = 1 batch reproduces the plain (N,)-array Strang step on the
        # spectrum: half free flow, nonlinear flow, half free flow
        g = GridSpec(1, 4096, 2.0)
        x = g.coordinates[0]
        u0 = ComplexField(g, (8.0 * np.exp(-(x**2) / (2 * 0.25**2))).astype(complex))
        nl = NonlinearitySpec("kerr", -1.0, 2.0)
        cfg = SolverConfig(T=100 * 1.25e-4, n_steps=100, blowup_threshold=1e3)
        traj = solve_mild(u0, nl, None, 0.0, cfg)
        half = group_multiplier(g, 0.5 * cfg.tg.dt)
        spectrum = np.fft.fftn(u0.values)
        for _ in range(100):
            v = np.fft.ifftn(spectrum * half)
            v *= np.exp(-1j * cfg.tg.dt * nl.amplitude_rate(np.abs(v) ** 2))
            spectrum = np.fft.fftn(v) * half
        assert np.array_equal(traj.spectra[-1], spectrum)


def count_transforms(monkeypatch) -> list[str]:
    """Record the name of every ``numpy.fft`` transform called from now on."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestTransformBudget:
    # outside the step loop a solve makes two forward transforms of u0: one
    # for the norm the blow-up cap is checked against, one for the state

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [8, 32])
    def test_linear_steps_make_no_transform(self, monkeypatch, d, n):
        g = GridSpec(d, 8, math.pi)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        paths = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, n)).sample_mode_paths(3, 0)
        u0 = ComplexField(g, np.full(g.shape, 0.5 + 0j))
        calls = count_transforms(monkeypatch)
        traj = solve_mild(u0, None, paths, 0.5, SolverConfig(T=1.0, n_steps=n))
        assert not traj.blown_up
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [8, 32])
    def test_kerr_step_makes_two_transforms(self, monkeypatch, grid, n):
        u0 = gaussian_cos_field(grid)
        nl = NonlinearitySpec("kerr", 1.0, 1.0)
        calls = count_transforms(monkeypatch)
        traj = solve_mild(u0, nl, None, 0.0, SolverConfig(T=0.5, n_steps=n))
        assert not traj.blown_up
        assert calls.count("ifft") == n and calls.count("fft") == n + 2 and len(calls) == 2 * n + 2

    def test_outputs_read_each_state_back_once(self, monkeypatch, tmp_path):
        # diagnostics and snapshots of the states 1..k*-1 take one inverse
        # transform each; state 0 is u0 as given and costs none
        from fracnls.cli import _trajectory_outputs

        g = GridSpec(1, 16, math.pi)
        x = g.coordinates[0]
        u0 = ComplexField(g, (2.0 * np.exp(-(x**2))).astype(complex))
        nl = NonlinearitySpec("kerr", 1.0, 2.0)
        cemeteries = []
        for threshold, snapshot_every in ((6.0, 1), (1e3, 3)):
            traj = solve_mild(u0, nl, None, 0.0, SolverConfig(T=1.0, n_steps=32, blowup_threshold=threshold))
            out = tmp_path / str(threshold)
            out.mkdir()
            calls = count_transforms(monkeypatch)
            _trajectory_outputs(traj, nl, str(out), snapshot_every)
            monkeypatch.undo()
            assert calls == ["ifft"] * (len(traj.spectra) - 1)
            cemeteries.append(traj.cemetery_index)
        assert cemeteries[0] is not None and 1 < cemeteries[0] < 32 and cemeteries[1] is None


class TestSkeleton:
    @pytest.fixture
    def model(self):
        g = GridSpec(1, 8, math.pi)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 16)
        return g, spec, build_L(spec, 0.7, tg), tg

    def test_zero_control_is_deterministic_flow(self, model):
        g, spec, L, tg = model
        x = g.coordinates[0]
        u0 = ComplexField(g, (0.4 * np.exp(1j * x)).astype(complex))
        nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
        cfg = SolverConfig(T=1.0, n_steps=16)
        skel = solve_skeleton(u0, np.zeros((8, tg.n)), nl, cfg, L)
        det = solve_mild(u0, nl, None, 0.0, cfg)
        for k in range(17):
            assert np.abs(skel.field(k).values - det.field(k).values).max() < 1e-14

    def test_linear_skeleton_is_response_path(self, model):
        g, spec, L, tg = model
        rng = np.random.default_rng(0)
        h = rng.normal(size=(8, 16))
        cfg = SolverConfig(T=1.0, n_steps=16)
        traj = solve_skeleton(ComplexField.zero(g), h, None, cfg, L)
        fields = values_from_modes(g, L.apply(h))
        for k in range(17):
            assert np.abs(traj.field(k).values + 1j * fields[k]).max() < 1e-10

    def test_linearity_in_control(self, model):
        g, spec, L, tg = model
        rng = np.random.default_rng(1)
        h = rng.normal(size=(8, 16))
        h2 = 2.0 * h
        cfg = SolverConfig(T=1.0, n_steps=16)
        a = solve_skeleton(ComplexField.zero(g), h, None, cfg, L)
        b = solve_skeleton(ComplexField.zero(g), h2, None, cfg, L)
        for k in range(17):
            assert np.abs(b.field(k).values - 2 * a.field(k).values).max() < 1e-12

    def test_skeleton_equals_mild_on_response_path(self, model):
        # same trajectory whether stepped through solve_skeleton or through
        # solve_mild driven by the response path at unit intensity; spot
        # check against an inline reimplementation of the stepping
        g, spec, L, tg = model
        rng = np.random.default_rng(2)
        h = rng.normal(size=(8, 16))
        nl = NonlinearitySpec("saturated", -1.0, 1.0, kappa=1.0)
        cfg = SolverConfig(T=1.0, n_steps=16)
        mode_paths = L.apply(h)
        via_skeleton = solve_skeleton(
            ComplexField(g, 0.3 * np.ones(8, complex)), h, nl, cfg, L
        )
        via_mild = solve_mild(
            ComplexField(g, 0.3 * np.ones(8, complex)), nl, mode_paths, 1.0, cfg
        )
        for k in range(17):
            assert np.array_equal(via_skeleton.spectra[k], via_mild.spectra[k])

        # inline duplicate of the stepping on physical values, with the
        # increments assembled as fields (independent arithmetic path)
        D = values_from_modes(
            g, mode_paths[1:] - np.exp(1j * g.xi_squared.reshape(-1) * cfg.tg.dt) * mode_paths[:-1]
        )
        half = group_multiplier(g, 0.5 * cfg.tg.dt)
        v = 0.3 * np.ones(8, complex)
        for k in range(16):
            v = np.fft.ifft(half * np.fft.fft(v))
            v = v * np.exp(-1j * cfg.tg.dt * nl.amplitude_rate(np.abs(v) ** 2))
            v = np.fft.ifft(half * np.fft.fft(v))
            v = v - 1j * D[k]
        assert np.abs(via_skeleton.terminal_field().values - v).max() < 1e-12
