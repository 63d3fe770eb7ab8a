"""Time stepper tests: exactness, conservation, order, blow-up, skeleton."""

import math

import numpy as np
import pytest

from fracnls import oracles
from fracnls.fbm import HurstKernel, TimeGrid
from fracnls.field import (
    ComplexField,
    GridSpec,
    apply_group,
    group_multiplier,
    hamiltonian,
    l2_norm,
    mass,
    values_from_modes,
)
from fracnls.noise import (
    Control,
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
        first = ComplexField(grid, traj.states[0])
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
        assert len(blown.states) == blown.cemetery_index

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
        assert len(traj.states) == traj.cemetery_index

    def test_defocusing_twin_is_global(self):
        g = GridSpec(1, 4096, 2.0)
        x = g.coordinates[0]
        u0 = ComplexField(g, (8.0 * np.exp(-(x**2) / (2 * 0.25**2))).astype(complex))
        nl = NonlinearitySpec("kerr", -1.0, 2.0)
        cfg = SolverConfig(T=0.25, n_steps=8000, blowup_threshold=1e3)
        traj = solve_mild(u0, nl, None, 0.0, cfg)
        assert not traj.blown_up
        assert traj.blowup_time == math.inf


class TestNoisySolver:
    @pytest.fixture
    def model(self):
        g = GridSpec(1, 8, math.pi)
        kern = HurstKernel(0.7)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 16)
        return g, kern, spec, tg

    def test_linear_solution_is_minus_i_convolution(self, model):
        g, kern, spec, tg = model
        sampler = ConvolutionSampler(spec, kern, tg)
        paths = sampler.sample_mode_paths(seed=3, replicate=0)
        cfg = SolverConfig(T=1.0, n_steps=16)
        traj = solve_mild(ComplexField.zero(g), None, paths, 1.0, cfg)
        fields = values_from_modes(g, paths)
        for k in range(17):
            assert np.abs(traj.states[k] + 1j * fields[k]).max() < 1e-10

    def test_eps_scaling(self, model):
        g, kern, spec, tg = model
        paths = ConvolutionSampler(spec, kern, tg).sample_mode_paths(seed=3, replicate=0)
        cfg = SolverConfig(T=1.0, n_steps=16)
        t1 = solve_mild(ComplexField.zero(g), None, paths, 1.0, cfg)
        t4 = solve_mild(ComplexField.zero(g), None, paths, 4.0, cfg)
        assert np.abs(t4.terminal_field().values - 2 * t1.terminal_field().values).max() < 1e-10

    def test_grid_mismatch_rejected(self, model):
        g, kern, spec, tg = model
        paths = ConvolutionSampler(spec, kern, tg).sample_mode_paths(seed=3, replicate=0)
        cfg = SolverConfig(T=1.0, n_steps=32)
        with pytest.raises(ValueError):
            solve_mild(ComplexField.zero(g), None, paths, 1.0, cfg)


class TestBatchedSolver:
    def test_rows_equal_single_solves(self):
        # focusing Kerr driven by noise: replicates are absorbed at different
        # steps inside one batch, and every row still matches its own solve
        g = GridSpec(1, 16, math.pi)
        kern = HurstKernel(0.7)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        sampler = ConvolutionSampler(spec, kern, TimeGrid(1.0, 32))
        u0 = gaussian_cos_field(g, amp=1.0)
        nl = NonlinearitySpec("kerr", 1.0, 2.0)
        cfg = SolverConfig(T=1.0, n_steps=32, blowup_threshold=3.0)
        paths = sampler.sample_mode_path_batch(5, range(40))
        batch = solve_mild_batch(u0, nl, paths, 2.0, cfg)
        absorbed = batch.cemetery_index[batch.blown_up]
        assert 0 < absorbed.size < 40 and len(set(absorbed.tolist())) > 1
        for r in range(40):
            ref = solve_mild(u0, nl, paths[r], 2.0, cfg)
            k_star = 33 if ref.cemetery_index is None else ref.cemetery_index
            assert batch.cemetery_index[r] == k_star
            assert np.array_equal(batch.h1_norms[r], ref.h1_norms, equal_nan=True)
            for k in range(k_star):
                assert np.array_equal(batch.states[r, k], ref.states[k])

    def test_single_replicate_kerr_matches_unbatched_step(self):
        # the R = 1 batch reproduces the plain (N,)-array Strang step
        g = GridSpec(1, 4096, 2.0)
        x = g.coordinates[0]
        u0 = ComplexField(g, (8.0 * np.exp(-(x**2) / (2 * 0.25**2))).astype(complex))
        nl = NonlinearitySpec("kerr", -1.0, 2.0)
        cfg = SolverConfig(T=100 * 1.25e-4, n_steps=100, blowup_threshold=1e3)
        traj = solve_mild(u0, nl, None, 0.0, cfg)
        mult = group_multiplier(g, cfg.dt)
        v = u0.values.copy()
        for _ in range(100):
            v = v * np.exp(-0.5j * cfg.dt * nl.amplitude_rate(np.abs(v) ** 2))
            v = np.fft.ifftn(mult * np.fft.fftn(v))
            v = v * np.exp(-0.5j * cfg.dt * nl.amplitude_rate(np.abs(v) ** 2))
        assert np.array_equal(traj.terminal_field().values, v)


class TestSkeleton:
    @pytest.fixture
    def model(self):
        g = GridSpec(1, 8, math.pi)
        kern = HurstKernel(0.7)
        spec = build_correlation(g, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 16)
        return g, spec, build_L(spec, kern, tg), tg

    def test_zero_control_is_deterministic_flow(self, model):
        g, spec, L, tg = model
        x = g.coordinates[0]
        u0 = ComplexField(g, (0.4 * np.exp(1j * x)).astype(complex))
        nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
        cfg = SolverConfig(T=1.0, n_steps=16)
        skel = solve_skeleton(u0, Control.zero(8, tg), nl, cfg, L)
        det = solve_mild(u0, nl, None, 0.0, cfg)
        for k in range(17):
            assert np.abs(skel.states[k] - det.states[k]).max() < 1e-14

    def test_linear_skeleton_is_response_path(self, model):
        g, spec, L, tg = model
        rng = np.random.default_rng(0)
        h = Control(values=rng.normal(size=(8, 16)), tg=tg)
        cfg = SolverConfig(T=1.0, n_steps=16)
        traj = solve_skeleton(ComplexField.zero(g), h, None, cfg, L)
        fields = values_from_modes(g, L.apply(h))
        for k in range(17):
            assert np.abs(traj.states[k] + 1j * fields[k]).max() < 1e-10

    def test_linearity_in_control(self, model):
        g, spec, L, tg = model
        rng = np.random.default_rng(1)
        h = Control(values=rng.normal(size=(8, 16)), tg=tg)
        h2 = Control(values=2.0 * h.values, tg=tg)
        cfg = SolverConfig(T=1.0, n_steps=16)
        a = solve_skeleton(ComplexField.zero(g), h, None, cfg, L)
        b = solve_skeleton(ComplexField.zero(g), h2, None, cfg, L)
        for k in range(17):
            assert np.abs(b.states[k] - 2 * a.states[k]).max() < 1e-12

    def test_skeleton_equals_mild_on_response_path(self, model):
        # same trajectory whether stepped through solve_skeleton or through
        # solve_mild driven by the response path at unit intensity; spot
        # check against an inline reimplementation of the stepping
        g, spec, L, tg = model
        rng = np.random.default_rng(2)
        h = Control(values=rng.normal(size=(8, 16)), tg=tg)
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
            assert np.array_equal(via_skeleton.states[k], via_mild.states[k])

        # inline duplicate of the stepping (independent arithmetic path)
        D = values_from_modes(
            g, mode_paths[1:] - np.exp(1j * g.xi_squared.reshape(-1) * cfg.dt) * mode_paths[:-1]
        )
        mult = group_multiplier(g, cfg.dt)
        v = 0.3 * np.ones(8, complex)
        for k in range(16):
            v = v * np.exp(-0.5j * cfg.dt * nl.amplitude_rate(np.abs(v) ** 2))
            v = np.fft.ifft(mult * np.fft.fft(v))
            v = v * np.exp(-0.5j * cfg.dt * nl.amplitude_rate(np.abs(v) ** 2))
            v = v - 1j * D[k]
        assert np.abs(via_skeleton.terminal_field().values - v).max() < 1e-12
