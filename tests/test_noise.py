"""Correlation operator, stochastic convolution, and covariance algebra tests."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import block_diag

from fracnls import noise, oracles
from fracnls.errors import ConfigError
from fracnls.fbm import TimeGrid, increment_covariance_beta, replicate_normals
from fracnls.field import GridSpec
from fracnls.ldp import holder_exponent
from fracnls.noise import (
    ConvolutionSampler,
    CorrelationSpec,
    build_correlation,
    build_L,
    build_Q,
    cheapest_terminal_rate,
    gaussian_rate,
    half_energy,
    hs_tail_ratio,
    n1_window,
    replicate_blocks,
    terminal_covariance_blocks,
    verify_factorization,
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
        paths = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 8)).sample_mode_paths(1, 0)
        assert np.all(paths == 0)

    def test_starts_at_zero_and_deterministic(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        a = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 8)).sample_mode_paths(5, 2)
        b = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 8)).sample_mode_paths(5, 2)
        assert np.all(a[0] == 0)
        assert np.array_equal(a, b)

    def test_batch_rows_equal_single_draws(self, grid):
        # each row comes from its own (seed, i) stream, whatever the range
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        sampler = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 16))
        batch = sampler.sample_mode_path_batch(11, range(3, 10))
        assert batch.shape == (7, 17, 8)
        for r, i in enumerate(range(3, 10)):
            assert np.array_equal(batch[r], sampler.sample_mode_paths(11, i))

    def test_blocks_split_one_batch_within_the_budget(self, grid):
        # a replicate's 17 x 8 complex mode paths take 2176 bytes, so the
        # 512 KiB budget holds 240 of them: 500 replicates come as 240, 240, 20
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        sampler = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 16))
        blocks = list(sampler.sample_mode_path_blocks(11, 500))
        assert [len(b) for b in blocks] == [240, 240, 20]
        assert np.array_equal(np.concatenate(blocks), sampler.sample_mode_path_batch(11, range(500)))

    def test_blocks_hold_one_replicate_at_the_least(self):
        # 65 x 1024 complex mode paths take more than the whole budget
        assert list(replicate_blocks(TimeGrid(1.0, 64), 1024, 3)) == [range(0, 1), range(1, 2), range(2, 3)]

    def test_ito_variance_at_half_hurst(self, grid):
        # kernel is 1 and the group is unitary: E|Z_j(t)|^2 = phi_j^2 t
        spec = build_correlation(grid, 4.0, 0.5, 0.3)
        tg = TimeGrid(1.0, 8)
        sampler = ConvolutionSampler(spec, 0.5, tg)
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
        sampler = ConvolutionSampler(spec, H, TimeGrid(1.0, 16))
        reps = 2000
        z = np.stack([sampler.sample_mode_paths(9, i) for i in range(reps)])
        second_moment = (np.abs(z) ** 2).sum(axis=2).mean(axis=0)
        ts = np.linspace(0, 1, 17)
        slope = np.polyfit(np.log(ts[1:6]), np.log(second_moment[1:6]), 1)[0]
        assert slope >= 2 * H - 0.1

    def test_gaussian_marginals(self, grid):
        # Anderson-Darling normality of Re Z_j(T) for three modes, level 0.01
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        sampler = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 8))
        reps = 1500
        zt = np.stack([sampler.sample_mode_paths(31, i)[-1] for i in range(reps)])
        for j in (0, 1, 2):
            res = stats.anderson(zt[:, j].real, dist="norm", method="interpolate")
            assert res.pvalue > 0.01

    def test_holder_regularity_of_convolution(self, grid):
        # energy-norm path regularity approaches the Hurst exponent
        for H in (0.5, 0.7):
            spec = build_correlation(grid, 4.0, H, 0.2)
            sampler = ConvolutionSampler(spec, H, TimeGrid(1.0, 1024))
            w = 1.0 + grid.xi_squared.reshape(-1)
            exps = [
                holder_exponent(sampler.sample_mode_paths(7, i), weights=w).exponent
                for i in range(6)
            ]
            assert np.mean(exps) > H - 0.1


class TestResponseOperator:
    def test_causality(self, grid):
        # a unit innovation in cell m reaches no earlier time: exact zeros
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        L = build_L(spec, 0.7, TimeGrid(1.0, 8))
        for j in range(L.n_modes):
            assert np.all(np.triu(L.mats[j], 1) == 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_dense_matrices_are_the_integrand_times_the_cholesky_factor(self, d):
        # the responses to the unit innovations are the product A B of the
        # midpoint integrand and the increment Cholesky factor, to rounding
        spec = build_correlation(GridSpec(d, 8, math.pi), 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 16)
        L = build_L(spec, 0.7, tg)
        dense = noise._integrand_matrices(spec, tg) @ L.chol
        assert L.mats.shape == dense.shape == (spec.grid.mode_count, 16, 16)
        assert np.abs(L.mats - dense).max() <= 1e-15 * np.abs(dense).max()

    @pytest.mark.parametrize("rows", [1, 7, 65])
    @pytest.mark.parametrize("d, N", [(1, 16), (2, 8)])
    def test_controls_and_normals_share_one_response(self, d, N, rows):
        # at dt = 1/4 a control of twice the normals is whitened to the
        # normals exactly, so it drives the sampler's draws bit for bit; the
        # controls are C-contiguous (modes, n) rows, as the optimizer's are
        spec = build_correlation(GridSpec(d, N, math.pi), 4.0, 0.7, 0.2)
        tg = TimeGrid(16.0, 64)
        L = ConvolutionSampler(spec, 0.7, tg)
        zeta = replicate_normals(5, range(rows), (tg.n, L.n_modes))
        values = np.ascontiguousarray(2.0 * zeta.transpose(0, 2, 1))
        assert np.array_equal(L.apply_batch(values), L.sample_mode_path_batch(5, range(rows)))

    @pytest.mark.parametrize("rows", [1, 240, 2000])
    def test_response_equals_the_out_of_place_formula(self, grid, rows):
        # the in-place fill gives the bits of a fresh array per step; 240 rows
        # are one ldp block at N 8, n 16, and at 2000 the temporaries pass
        # numpy's 256 KiB elision threshold
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        L = build_L(spec, 0.7, TimeGrid(1.0, 16))
        zeta = replicate_normals(3, range(rows), (16, L.n_modes))
        csum = np.cumsum(L.phase_mid * (L.chol @ zeta), axis=1)
        want = np.zeros((rows, 17, L.n_modes), dtype=complex)
        want[:, 1:] = L.phi * L.phase_t * csum
        got = L.response(zeta)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[:, 0] == 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_adjoints_are_the_transposes(self, d):
        # <response(zeta), G> = <zeta, response_adjoint(G)> in the real pairing
        # Re sum conj(G) Z, the adjoint is the transposed dense matrices, and
        # the same holds for controls and apply_batch_adjoint
        spec = build_correlation(GridSpec(d, 8, math.pi), 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 16)
        L = build_L(spec, 0.7, tg)
        rng = np.random.default_rng(7)
        G = rng.normal(size=(3, 17, L.n_modes)) + 1j * rng.normal(size=(3, 17, L.n_modes))
        zeta = rng.normal(size=(3, 16, L.n_modes))
        adjoint = L.response_adjoint(G)
        pairing = np.sum((np.conj(G) * L.response(zeta)).real, axis=(1, 2))
        assert np.abs(pairing - np.sum(zeta * adjoint, axis=(1, 2))).max() <= 1e-13 * np.abs(pairing).max()
        dense = np.einsum("jkm,rkj->rmj", np.conj(L.mats), G[:, 1:]).real
        assert np.abs(adjoint - dense).max() <= 1e-14 * np.abs(dense).max()
        values = rng.normal(size=(3, L.n_modes, 16))
        pairing = np.sum((np.conj(G) * L.apply_batch(values)).real, axis=(1, 2))
        back = np.sum(values * L.apply_batch_adjoint(G), axis=(1, 2))
        assert np.abs(pairing - back).max() <= 1e-13 * np.abs(pairing).max()

    def test_batch_rows_equal_single_applies(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        L = build_L(spec, 0.7, TimeGrid(1.0, 16))
        values = np.random.default_rng(3).normal(size=(9, 8, 16))
        batch = L.apply_batch(values)
        for r, h in enumerate(values):
            assert np.array_equal(batch[r], L.apply(h)), r

    def test_zero_control(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, 0.7, tg)
        out = L.apply(np.zeros((8, tg.n)))
        assert np.all(out == 0)

    def test_linearity(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, 0.7, tg)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(8, 8))
        g = rng.normal(size=(8, 8))
        lhs = L.apply(2.0 * h - 3.0 * g)
        rhs = 2.0 * L.apply(h) - 3.0 * L.apply(g)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_half_hurst_flat_mode_integrates(self):
        # kernel 1, zero frequency: response is the running integral of h
        g = GridSpec(1, 8, math.pi)
        spec = CorrelationSpec(grid=g, eigenvalues=np.eye(8)[0] * 0 + 1.0)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, 0.5, tg)
        h = np.zeros((8, tg.n))
        h[0] = np.arange(1.0, 9.0)
        out = L.apply(h)
        want = np.cumsum(np.arange(1.0, 9.0)) * tg.dt
        assert np.abs(out[1:, 0].real - want).max() < 1e-12
        assert np.abs(out[1:, 0].imag).max() == 0.0

    def test_dense_limit_guard(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        with pytest.raises(ValueError):
            build_L(spec, 0.7, TimeGrid(1.0, 128))


class TestFactorization:
    @pytest.mark.parametrize("H", [0.55, 0.7])
    def test_q_equals_ll_adjoint(self, grid, H):
        ev = np.zeros(8)
        ev[[0, 1, 2, 7]] = [1.0, 0.7, 0.4, 0.7]  # four active modes
        spec = CorrelationSpec(grid=grid, eigenvalues=ev)
        assert oracles.q_ll_residual(spec, H, TimeGrid(1.0, 8)) < 1e-10

    def test_q_requires_large_hurst(self, grid):
        # Q is assembled from the Beta-weighted increment covariance only
        spec = build_correlation(grid, 4.0, 0.4, 0.2)
        with pytest.raises(ValueError, match="requires H > 1/2"):
            build_Q(spec, 0.4, TimeGrid(1.0, 8))

    def test_zero_spec_q_is_zero(self, grid):
        spec = CorrelationSpec(grid=grid, eigenvalues=np.zeros(8))
        Q = build_Q(spec, 0.7, TimeGrid(1.0, 8))
        assert np.all(Q == 0)

    def test_q_is_one_block_per_mode(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 8)
        H = 0.7
        Q = build_Q(spec, H, tg)
        assert Q.shape == (8, 16, 16)
        # the stacked product is each mode's own product, float for float
        S = increment_covariance_beta(H, tg.points)
        for j, A in enumerate(noise._integrand_matrices(spec, tg)):
            Ar = np.vstack([A.real, A.imag])
            assert np.array_equal(Q[j], Ar @ S @ Ar.T), j

    def test_a_perturbed_block_entry_is_reported(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        H, tg = 0.7, TimeGrid(1.0, 8)
        Q = build_Q(spec, H, tg)
        L = build_L(spec, H, tg)
        assert verify_factorization(Q, L) < 1e-10
        Q[5, 3, 11] += 1e-6
        assert verify_factorization(Q, L) == pytest.approx(1e-6, rel=1e-3)

    def test_mc_covariance_matches_q(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        H = 0.7
        tg = TimeGrid(1.0, 8)
        sampler = ConvolutionSampler(spec, H, tg)
        Q = block_diag(*build_Q(spec, H, tg))  # the modes' blocks, zero across modes
        n, nm, reps = tg.n, 8, 8000
        X = np.empty((reps, nm * 2 * n))
        for i in range(reps):
            p = sampler.sample_mode_paths(seed=123, replicate=i)[1:]
            X[i] = np.concatenate([np.r_[p[:, j].real, p[:, j].imag] for j in range(nm)])
        C = (X.T @ X) / reps
        se = np.sqrt((np.outer(np.diag(Q), np.diag(Q)) + Q**2) / reps)
        assert np.all(np.abs(C - Q) <= 5 * se + 1e-12)


# (d, H, n) of the terminal-row checks: both dimensions, rough to smooth
# noise, one step to the dense limit
TERMINAL_CASES = [(d, H, n) for d in (1, 2) for H in (0.3, 0.5, 0.7) for n in (1, 2, 16, 64)]


class TestGaussianRate:
    @pytest.fixture
    def model(self, grid):
        spec = build_correlation(grid, 4.0, 0.7, 0.2)
        tg = TimeGrid(1.0, 8)
        return build_L(spec, 0.7, tg), tg

    def test_zero_target(self, model):
        L, tg = model
        res = gaussian_rate(L, np.zeros((8, 8), dtype=complex))
        assert res.rate == 0.0 and res.feasible
        assert half_energy(res.control, tg) == 0.0

    def test_generated_target_rate_bounded(self, model):
        L, tg = model
        rng = np.random.default_rng(4)
        h0 = rng.normal(size=(8, 8))
        f = L.apply(h0)[1:].T  # (modes, n)
        res = gaussian_rate(L, f)
        assert res.feasible
        assert res.rate <= half_energy(h0, tg) + 1e-9
        # reapplying the minimizer reproduces the target
        again = L.apply(res.control)[1:].T
        assert np.abs(again - f).max() < 1e-8

    def test_unreachable_target_is_infinite(self, grid):
        ev = np.zeros(8)
        ev[0] = 1.0
        spec = CorrelationSpec(grid=grid, eigenvalues=ev)
        tg = TimeGrid(1.0, 8)
        L = build_L(spec, 0.7, tg)
        target = np.zeros((8, 8), dtype=complex)
        target[3] = 1.0  # supported on a silent mode
        res = gaussian_rate(L, target)
        assert math.isinf(res.rate) and not res.feasible

    @staticmethod
    def _dense_terminal_blocks(L):
        """Reference: the Gram blocks of the (Re, Im) last rows of the dense matrices."""
        V = noise._real_stack(L.mats[:, -1:, :])  # (modes, 2, n)
        return V @ V.transpose(0, 2, 1)

    @pytest.mark.parametrize("d, H, n", TERMINAL_CASES)
    def test_terminal_blocks_are_the_dense_last_rows_gram_blocks(self, d, H, n):
        L = build_L(build_correlation(GridSpec(d, 8, math.pi), 4.0, H, 0.3), H, TimeGrid(1.0, n))
        want = self._dense_terminal_blocks(L)
        got = terminal_covariance_blocks(L)
        assert got.shape == want.shape == (L.n_modes, 2, 2)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("d, H, n", TERMINAL_CASES)
    def test_cheapest_terminal_rate_is_the_top_eigenvalue_rate_and_is_attained(self, d, H, n):
        L = build_L(build_correlation(GridSpec(d, 8, math.pi), 4.0, H, 0.3), H, TimeGrid(1.0, n))
        w, V = np.linalg.eigh(self._dense_terminal_blocks(L))
        delta = 0.4
        rate = cheapest_terminal_rate(L, delta)
        assert type(rate) is float
        assert rate == pytest.approx(delta**2 / (2 * w[:, -1].max()), rel=1e-12)
        # the least-squares route: the minimum-norm control onto the top
        # eigenvector of the top mode reaches the sphere at half energy = rate
        j = int(np.argmax(w[:, -1]))
        zeta, _, _, _ = np.linalg.lstsq(noise._real_stack(L.mats[j, -1:, :]), delta * V[j, :, -1], rcond=None)
        h = np.zeros((L.n_modes, n))
        h[j] = zeta / math.sqrt(L.tg.dt)
        reach = L.apply(h)[-1]
        assert np.sqrt((np.abs(reach) ** 2).sum()) == pytest.approx(delta, rel=1e-8)
        assert half_energy(h, L.tg) == pytest.approx(rate, rel=1e-10)
