"""Correlation operator, stochastic convolution, and covariance algebra tests."""

import math

import numpy as np
import pytest
from scipy import stats

from fracnls import oracles
from fracnls.errors import ConfigError
from fracnls.fbm import HurstKernel, TimeGrid
from fracnls.field import GridSpec
from fracnls.ldp import holder_exponent
from fracnls.noise import (
    Control,
    ConvolutionSampler,
    CorrelationSpec,
    build_correlation,
    build_L,
    build_Q,
    cheapest_terminal_rate,
    gaussian_rate,
    hs_tail_ratio,
    n1_window,
    terminal_covariance_blocks,
)


@pytest.fixture
def grid():
    return GridSpec(1, 8, math.pi)


class TestCorrelationSpec:
    def test_window_small_hurst(self):
        lo, hi = n1_window(0.3)
        assert lo == pytest.approx(0.2)
        assert hi == pytest.approx(0.7)

    def test_window_large_hurst(self):
        assert n1_window(0.7) == (0.0, 1.0)

    def test_accepts_reference_parameters(self, grid):
        spec = build_correlation(grid, 3.0, 0.5, 0.3)
        assert np.all(np.isfinite(spec.eigenvalues)) and np.all(spec.eigenvalues > 0.0)

    def test_rejects_alpha_below_window(self, grid):
        with pytest.raises(ConfigError, match="alpha"):
            build_correlation(grid, 3.0, 0.3, 0.1)

    def test_rejects_small_decay(self, grid):
        with pytest.raises(ConfigError, match="decay"):
            build_correlation(grid, 1.5, 0.5, 0.3)

    def test_degenerate_zero_spec_accepted(self, grid):
        spec = CorrelationSpec(grid=grid, eigenvalues=np.zeros(8))
        assert np.array_equal(spec.eigenvalues, np.zeros(8))

    def test_negative_eigenvalues_rejected(self, grid):
        with pytest.raises(ValueError):
            CorrelationSpec(grid=grid, eigenvalues=-np.ones(8))

    def test_tail_ratio_converges_for_steep_decay(self):
        g = GridSpec(1, 256, math.pi)
        spec = build_correlation(g, 4.5, 0.5, 0.3)
        assert hs_tail_ratio(spec, 1 + 2 * (0.5 + 0.3)) < 1e-3


class TestConvolutionSampler:
    def test_zero_spec_gives_zero_path(self, grid):
        spec = CorrelationSpec(grid=grid, eigenvalues=np.zeros(8))
        paths = ConvolutionSampler(spec, HurstKernel(0.7), TimeGrid(1.0, 8)).sample_mode_paths(1, 0)
        assert np.all(paths == 0)

    def test_starts_at_zero_and_deterministic(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        a = ConvolutionSampler(spec, HurstKernel(0.7), TimeGrid(1.0, 8)).sample_mode_paths(5, 2)
        b = ConvolutionSampler(spec, HurstKernel(0.7), TimeGrid(1.0, 8)).sample_mode_paths(5, 2)
        assert np.all(a[0] == 0)
        assert np.array_equal(a, b)

    def test_batch_rows_equal_single_draws(self, grid):
        # each row comes from its own (seed, i) stream, whatever the range
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        sampler = ConvolutionSampler(spec, HurstKernel(0.7), TimeGrid(1.0, 16))
        batch = sampler.sample_mode_path_batch(11, range(3, 10))
        assert batch.shape == (7, 17, 8)
        for r, i in enumerate(range(3, 10)):
            assert np.array_equal(batch[r], sampler.sample_mode_paths(11, i))

    def test_ito_variance_at_half_hurst(self, grid):
        # kernel is 1 and the group is unitary: E|Z_j(t)|^2 = phi_j^2 t
        spec = build_correlation(grid, 4.0, 0.5, 0.3)
        kern = HurstKernel(0.5)
        tg = TimeGrid(1.0, 8)
        sampler = ConvolutionSampler(spec, kern, tg)
        reps = 4000
        zt = np.stack([sampler.sample_mode_paths(77, i)[-1] for i in range(reps)])
        var = (np.abs(zt) ** 2).mean(axis=0)
        target = spec.eigenvalues**2 * 1.0
        se = target * math.sqrt(2.0 / reps) + 1e-12
        assert np.all(np.abs(var - target) < 4 * se)

    def test_small_time_variance_scaling(self, grid):
        # E||Z(t)||^2 grows like t^{2H} for small t
        H = 0.7
        spec = build_correlation(grid, 4.0, H, 0.2)
        sampler = ConvolutionSampler(spec, HurstKernel(H), TimeGrid(1.0, 16))
        reps = 2000
        z = np.stack([sampler.sample_mode_paths(9, i) for i in range(reps)])
        second_moment = (np.abs(z) ** 2).sum(axis=2).mean(axis=0)
        ts = np.linspace(0, 1, 17)
        slope = np.polyfit(np.log(ts[1:6]), np.log(second_moment[1:6]), 1)[0]
        assert slope >= 2 * H - 0.1

    def test_gaussian_marginals(self, grid):
        # Anderson-Darling normality of Re Z_j(T) for three modes, level 0.01
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        sampler = ConvolutionSampler(spec, HurstKernel(0.7), TimeGrid(1.0, 8))
        reps = 1500
        zt = np.stack([sampler.sample_mode_paths(31, i)[-1] for i in range(reps)])
        for j in (0, 1, 2):
            res = stats.anderson(zt[:, j].real, dist="norm", method="interpolate")
            assert res.pvalue > 0.01

    def test_holder_regularity_of_convolution(self, grid):
        # energy-norm path regularity approaches the Hurst exponent
        for H in (0.5, 0.7):
            spec = build_correlation(grid, 4.0, H, 0.2)
            sampler = ConvolutionSampler(spec, HurstKernel(H), TimeGrid(1.0, 1024))
            w = 1.0 + grid.xi_squared.reshape(-1)
            exps = [
                holder_exponent(sampler.sample_mode_paths(7, i), weights=w).exponent
                for i in range(6)
            ]
            assert np.mean(exps) > H - 0.1


class TestResponseOperator:
    def test_causality(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        L = build_L(spec, HurstKernel(0.7), TimeGrid(1.0, 8))
        for j in range(L.n_modes):
            assert np.allclose(np.triu(L.mats[j], 1), 0.0)

    def test_zero_control(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, HurstKernel(0.7), tg)
        out = L.apply(Control.zero(8, tg))
        assert np.all(out == 0)

    def test_linearity(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, HurstKernel(0.7), tg)
        rng = np.random.default_rng(0)
        h = Control(values=rng.normal(size=(8, 8)), tg=tg)
        g = Control(values=rng.normal(size=(8, 8)), tg=tg)
        combo = Control(values=2.0 * h.values - 3.0 * g.values, tg=tg)
        lhs = L.apply(combo)
        rhs = 2.0 * L.apply(h) - 3.0 * L.apply(g)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_half_hurst_flat_mode_integrates(self):
        # kernel 1, zero frequency: response is the running integral of h
        g = GridSpec(1, 8, math.pi)
        spec = CorrelationSpec(grid=g, eigenvalues=np.eye(8)[0] * 0 + 1.0)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, HurstKernel(0.5), tg)
        h = Control.zero(8, tg)
        h.values[0] = np.arange(1.0, 9.0)
        out = L.apply(h)
        want = np.cumsum(np.arange(1.0, 9.0)) * tg.dt
        assert np.abs(out[1:, 0].real - want).max() < 1e-12
        assert np.abs(out[1:, 0].imag).max() == 0.0

    def test_dense_limit_guard(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        with pytest.raises(ValueError):
            build_L(spec, HurstKernel(0.7), TimeGrid(1.0, 128))


class TestFactorization:
    @pytest.mark.parametrize("H", [0.55, 0.7])
    def test_q_equals_ll_adjoint(self, grid, H):
        ev = np.zeros(8)
        ev[[0, 1, 2, 7]] = [1.0, 0.7, 0.4, 0.7]  # four active modes
        spec = CorrelationSpec(grid=grid, eigenvalues=ev)
        assert oracles.q_ll_residual(spec, HurstKernel(H), TimeGrid(1.0, 8)) < 1e-10

    def test_difference_route_matches_beta_route(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        kern = HurstKernel(0.7)
        tg = TimeGrid(1.0, 8)
        Qa = build_Q(spec, kern, tg, method="beta")
        Qb = build_Q(spec, kern, tg, method="difference")
        assert np.abs(Qa - Qb).max() < 1e-12

    def test_zero_spec_q_is_zero(self, grid):
        spec = CorrelationSpec(grid=grid, eigenvalues=np.zeros(8))
        Q = build_Q(spec, HurstKernel(0.7), TimeGrid(1.0, 8))
        assert np.all(Q == 0)

    def test_mc_covariance_matches_q(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        kern = HurstKernel(0.7)
        tg = TimeGrid(1.0, 8)
        sampler = ConvolutionSampler(spec, kern, tg)
        Q = build_Q(spec, kern, tg)
        n, nm, reps = tg.n, 8, 8000
        X = np.empty((reps, nm * 2 * n))
        for i in range(reps):
            p = sampler.sample_mode_paths(seed=123, replicate=i)[1:]
            X[i] = np.concatenate([np.r_[p[:, j].real, p[:, j].imag] for j in range(nm)])
        C = (X.T @ X) / reps
        se = np.sqrt((np.outer(np.diag(Q), np.diag(Q)) + Q**2) / reps)
        assert np.all(np.abs(C - Q) <= 5 * se + 1e-12)


class TestGaussianRate:
    @pytest.fixture
    def model(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 8)
        return build_L(spec, HurstKernel(0.7), tg), tg

    def test_zero_target(self, model):
        L, tg = model
        res = gaussian_rate(L, np.zeros((8, 8), dtype=complex))
        assert res.rate == 0.0 and res.feasible
        assert res.control.norm_sq == 0.0

    def test_generated_target_rate_bounded(self, model):
        L, tg = model
        rng = np.random.default_rng(4)
        h0 = Control(values=rng.normal(size=(8, 8)), tg=tg)
        f = L.apply(h0)[1:].T  # (modes, n)
        res = gaussian_rate(L, f)
        assert res.feasible
        assert res.rate <= h0.half_energy + 1e-9
        # reapplying the minimizer reproduces the target
        again = L.apply(res.control)[1:].T
        assert np.abs(again - f).max() < 1e-8

    def test_unreachable_target_is_infinite(self, grid):
        ev = np.zeros(8)
        ev[0] = 1.0
        spec = CorrelationSpec(grid=grid, eigenvalues=ev)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, HurstKernel(0.7), tg)
        target = np.zeros((8, 8), dtype=complex)
        target[3] = 1.0  # supported on a silent mode
        res = gaussian_rate(L, target)
        assert math.isinf(res.rate) and not res.feasible

    def test_cheapest_terminal_rate_matches_top_eigenvalue(self, model):
        L, _ = model
        blocks = terminal_covariance_blocks(L)
        lmax = max(np.linalg.eigvalsh(b)[-1] for b in blocks)
        delta = 0.4
        rate, h = cheapest_terminal_rate(L, delta)
        assert rate == pytest.approx(delta**2 / (2 * lmax), rel=1e-10)
        # the control actually reaches the sphere
        reach = L.apply(h)[-1]
        assert np.sqrt((np.abs(reach) ** 2).sum()) == pytest.approx(delta, rel=1e-8)
