"""Kernel, covariance, sampler, and transform tests.

Derived expected values are recomputed here from independent oracles
(Legendre's duplication formula, scipy's special functions and adaptive
quadrature, finite differences, doubled-resolution quadrature, Monte Carlo
statistics) rather than copied from the implementation.
"""

import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import special, stats
from scipy.integrate import quad
from scipy.stats._stats_py import _compute_prob_outside_square

from fracnls import fbm, oracles
from fracnls.errors import InvariantViolation
from fracnls.fbm import (
    TimeGrid,
    apply_kt_star,
    build_covariance_matrix,
    duality_pairing,
    fbm_covariance,
    increment_covariance,
    increment_covariance_beta,
    kernel_eval,
    kernel_eval_grid,
    kernel_time_derivative,
    normalization_constant,
    replicate_normals,
    replicate_stream,
    rkhs_inner_product,
    sample_fbm_exact,
    sample_fbm_fast,
)


class TestNormalizationConstant:
    def test_half_is_exactly_one(self):
        assert normalization_constant(0.5) == 1.0

    @pytest.mark.parametrize("H,approx", [(0.75, 1.0697), (0.25, 0.6460)])
    def test_reference_values(self, H, approx):
        # independent oracle: Legendre's duplication formula
        assert oracles.normalization_constant_error(H) <= 1e-14
        assert normalization_constant(H) == pytest.approx(approx, abs=5e-4)

    @pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, H):
        with pytest.raises(ValueError):
            normalization_constant(H)


def kernel_by_quad(H: float, t: float, s: float) -> float:
    """K(t, s) = c_H (t-s)^{H-1/2} + c_H (1/2-H) int_s^t (u-s)^{H-3/2}
    (1-(s/u)^{1/2-H}) du, the integral by adaptive quadrature after
    u = s + v^2, which removes the endpoint singularity."""
    def f(v):
        if v <= 0.0:
            return 0.0
        return 2.0 * v ** (2.0 * H - 2.0) * -math.expm1(-(0.5 - H) * math.log1p(v * v / s))

    integral, _ = quad(f, 0.0, math.sqrt(t - s), epsabs=1e-14, epsrel=1e-11, limit=200)
    cH = normalization_constant(H)
    return cH * (t - s) ** (H - 0.5) + cH * (0.5 - H) * integral


# The closed-form kernel's test grid: s/t from the series' floor 0.01 (at
# most 3651 of its 4096 terms) up to 1 - 1e-6.
KERNEL_HURST = [0.05, 0.25, 0.3, 0.7, 0.75, 0.95]
KERNEL_POINTS = [(t, r * t) for t in (1.0, 1.0 + 1e-6, 3.7)
                 for r in (0.01, 0.05, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-6)]


class TestKernelEval:
    def test_half_kernel_is_one(self):
        H = 0.5
        for t, s in [(0.8, 0.3), (1.0, 0.999), (2.0, 0.001)]:
            assert kernel_eval(H, t, s) == 1.0

    def test_zero_above_diagonal(self):
        for H in (0.3, 0.5, 0.7):
            assert kernel_eval(H, 0.4, 0.7) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kernel_eval(0.7, 1.0, 0.0)
        with pytest.raises(ValueError):
            kernel_eval(0.7, 1.0, -0.5)

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_two_quadrature_rules_agree(self, H):
        # doubled-resolution rule pair as oracle, closed-form value must match
        assert oracles.kernel_rule_gap(H, 1.0, 0.5, 96) < 1e-8

    @pytest.mark.parametrize("H", KERNEL_HURST)
    def test_closed_form_equals_scipy_hypergeometric(self, H):
        # the untransformed form c_H (t-s)^{H-1/2} 2F1(H-1/2, 1/2-H; H+1/2; 1-t/s)
        cH = normalization_constant(H)
        for t, s in KERNEL_POINTS:
            want = cH * (t - s) ** (H - 0.5) * special.hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t / s)
            assert kernel_eval(H, t, s) == pytest.approx(want, rel=1e-13, abs=0.0), (t, s)

    @pytest.mark.parametrize("H", KERNEL_HURST)
    def test_closed_form_equals_adaptive_quadrature(self, H):
        for t, s in KERNEL_POINTS:
            assert kernel_eval(H, t, s) == pytest.approx(kernel_by_quad(H, t, s), rel=1e-13, abs=0.0), (t, s)

    @pytest.mark.parametrize("H", [0.05, 0.7, 0.95])
    def test_series_past_its_term_bound_raises(self, H):
        # s/t 1e-3 needs more terms than the bound at every H
        with pytest.raises(ValueError, match=r"terms at s/t = 0\.001"):
            kernel_eval(H, 2.0, 2e-3)

    def test_grid_matches_scalar(self):
        H = 0.65
        t = np.array([0.5, 1.0, 1.5])
        s = np.array([0.2, 0.4, 1.6])
        grid_vals = kernel_eval_grid(H, t, s)
        for i in range(3):
            want = kernel_eval(H, float(t[i]), float(s[i]))
            assert grid_vals[i] == pytest.approx(want, abs=1e-10)


class TestUnitRule:
    @pytest.mark.parametrize("order", [8, 24, 31, 32, 48, 64, 128])
    def test_cached_rule_is_the_mapped_leggauss_rule(self, order):
        x, w = leggauss(order)
        nodes, weights = fbm._unit_rule(order)
        assert nodes.tobytes() == (0.5 * (x + 1)).tobytes()
        assert weights.tobytes() == (0.5 * w).tobytes()
        again = fbm._unit_rule(order)
        assert again[0] is nodes and again[1] is weights

    def test_cached_rule_is_read_only(self):
        for array in fbm._unit_rule(8):
            with pytest.raises(ValueError):
                array[0] = 0.5


def _kernel_eval_grid_one_call(H, t, s, order=48):
    """:func:`kernel_eval_grid`'s rule over every entry with s < t in one
    product, with no blocks: the reference a blocked call is checked against."""
    cH = normalization_constant(H)
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    out = np.zeros(t.shape)
    mask = s < t
    if H == 0.5:
        out[mask] = 1.0
        return out
    tm, sm = t[mask], s[mask]
    V = np.sqrt(tm - sm)
    xg, wg = fbm._unit_rule(order)
    v = V[..., None] * xg
    integrand = 2.0 * v ** (2.0 * H - 2.0) * fbm._bracket(H, v * v / sm[..., None])
    integral = V * (integrand @ wg)
    out[mask] = cH * (tm - sm) ** (H - 0.5) + cH * (0.5 - H) * integral
    return out


def _covariance_pairs(n):
    """The (t, r) pairs :func:`fbm.covariance_from_kernel` evaluates on n
    cells of [0, 1]: t_1..t_n as a column against its quadrature nodes r."""
    pts = TimeGrid(1.0, n).points
    y, _ = fbm._unit_rule(fbm._FIRST_CELL_NODES)
    xm, _ = fbm._unit_rule(fbm._CELL_NODES)
    r = np.concatenate([pts[1] * y * y, (pts[1:-1, None] + np.diff(pts)[1:, None] * xm).ravel()])
    return pts[1:, None], r[None, :]


def _kernel_blocks(t, s, order=48):
    """The blocks of :func:`kernel_eval_grid`'s entries with s < t."""
    return list(fbm._row_blocks(int(np.count_nonzero(np.less(s, t))), 8 * order))


class TestKernelEvalGridBlocks:
    BLOCK = fbm._block_rows(8 * 48)  # entries in one block of the order-48 rule

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_one_block_equals_the_one_call_body(self, H):
        tg = TimeGrid(1.0, 16)
        cases = [(1.0, 0.5, 48), (1.0, 0.5, 96),  # kernel-two-rule-agreement's point
                 (tg.points[1:, None], tg.midpoints[:10], 48),  # restriction-identity's transform
                 (1.0, np.linspace(1e-3, 0.999, self.BLOCK), 48)]  # one full block
        for t, s, order in cases:
            assert len(_kernel_blocks(t, s, order)) == 1
            got = kernel_eval_grid(H, t, s, order=order)
            assert got.tobytes() == _kernel_eval_grid_one_call(H, t, s, order).tobytes()

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_several_blocks_agree_with_the_one_call_body(self, H):
        # the weighted sums are BLAS products over other row counts, so the
        # bound is rounding's, as in TestKtStar
        t64, r64 = _covariance_pairs(64)
        assert r64.size == 536 and len(_kernel_blocks(t64, r64)) == 14
        last_alone = np.linspace(1e-3, 0.999, 2 * self.BLOCK + 1)
        assert [len(rows) for rows in _kernel_blocks(1.0, last_alone)] == [self.BLOCK, self.BLOCK, 1]
        for t, s in [(t64, r64), (1.0, last_alone)]:
            got = kernel_eval_grid(H, t, s)
            np.testing.assert_allclose(got, _kernel_eval_grid_one_call(H, t, s), rtol=1e-14, atol=0.0)


class TestKernelTimeDerivative:
    def test_half_vanishes(self):
        assert kernel_time_derivative(0.5, 1.0, 0.3) == 0.0

    @pytest.mark.parametrize("H,sign", [(0.25, -1.0), (0.75, 1.0)])
    def test_sign_and_finite_difference(self, H, sign):
        assert math.copysign(1.0, kernel_time_derivative(H, 1.0, 0.5)) == sign
        assert oracles.kernel_derivative_fd_error(H, 1.0, 0.5, 1e-6) <= 1e-4

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            kernel_time_derivative(0.3, 1.0, 1.0)


class TestCovariance:
    def test_variance_at_one(self):
        for H in (0.2, 0.5, 0.9):
            assert fbm_covariance(H, 1.0, 1.0) == pytest.approx(1.0)

    def test_brownian_min(self):
        assert fbm_covariance(0.5, 1.0, 2.0) == pytest.approx(1.0)

    def test_direct_formula(self):
        want = 0.5 * (1 + 3**1.5 - 2**1.5)
        assert fbm_covariance(0.75, 1.0, 3.0) == pytest.approx(want)
        assert want == pytest.approx(1.6839, abs=5e-4)

    @given(
        H=st.floats(0.05, 0.95),
        t=st.floats(0.01, 5.0),
        s=st.floats(0.01, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_psd_pair(self, H, t, s):
        # every 2x2 covariance submatrix is symmetric positive semidefinite
        a = fbm_covariance(H, t, t)
        b = fbm_covariance(H, t, s)
        c = fbm_covariance(H, s, s)
        assert b == fbm_covariance(H, s, t)
        assert a >= 0 and c >= 0
        assert a * c - b * b >= -1e-12 * max(1.0, a * c)

    def test_single_step_matrix(self):
        R = build_covariance_matrix(0.6, TimeGrid(1.0, 1))
        assert R.shape == (1, 1)
        assert R[0, 0] == pytest.approx(1.0)

    def test_brownian_matrix_is_min(self):
        g = TimeGrid(2.0, 8)
        R = build_covariance_matrix(0.5, g)
        t = g.points[1:]
        assert np.allclose(R, np.minimum(t[:, None], t[None, :]))

    def test_kernel_quadrature_reconstruction(self):
        assert oracles.covariance_quadrature_error(0.7, TimeGrid(1.0, 64)) < 1e-3


class TestIncrementCovariance:
    def test_beta_form_matches_difference_form(self):
        pts = np.linspace(0.0, 1.0, 17)
        for H in (0.55, 0.7, 0.9):
            a = increment_covariance(H, pts)
            b = increment_covariance_beta(H, pts)
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9, 0.99])
    def test_beta_weight_equals_scipy_beta(self, H):
        # one cell [0, 1]: the double integral of |u-v|^{2H-2} is 1/(H(2H-1)),
        # so the entry is c_H^2 (H-1/2)^2 B(2-2H, H-1/2) / (H(2H-1))
        cH = normalization_constant(H)
        want = cH**2 * (H - 0.5) ** 2 * special.beta(2.0 - 2.0 * H, H - 0.5) / (H * (2.0 * H - 1.0))
        got = increment_covariance_beta(H, np.array([0.0, 1.0]))
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_beta_form_requires_large_hurst(self):
        with pytest.raises(ValueError):
            increment_covariance_beta(0.4, np.linspace(0, 1, 5))

    def test_diagonal_is_increment_variance(self):
        pts = np.linspace(0.0, 2.0, 9)
        S = increment_covariance(0.3, pts)
        assert np.allclose(np.diag(S), 0.25**0.6)


class TestReplicateNormals:
    @pytest.mark.parametrize(
        "seed, replicates, shape",
        [
            (5, range(7, 40, 3), (4, 3)),
            (-7, range(3), 5),
            (2**63 + 12345, range(2**40, 2**40 + 4), (2, 8)),
            (2**64 - 1, range(2), (3, 2)),
            (11, range(2**64 - 3, 2**64), (2, 2)),
        ],
        ids=["strided-range", "negative-seed", "seed-above-2^63", "seed-2^64-1", "last-indices"],
    )
    def test_rows_equal_per_replicate_streams(self, seed, replicates, shape):
        got = replicate_normals(seed, replicates, shape)
        want = np.stack([replicate_stream(seed, i).standard_normal(shape) for i in replicates])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_empty_range(self):
        assert replicate_normals(3, range(0), (4, 2)).shape == (0, 4, 2)

    def test_interleaved_seeds_share_no_state(self):
        # each call starts from its own fresh generator: draws under one seed
        # between two under another leave the other's rows unchanged
        first = replicate_normals(5, range(3), 6)
        other = replicate_normals(6, range(3), 6)
        again = replicate_normals(5, range(3), 6)
        assert first.tobytes() == again.tobytes()
        assert other.tobytes() == np.stack([replicate_stream(6, i).standard_normal(6) for i in range(3)]).tobytes()
        assert not np.array_equal(first, other)

    @pytest.mark.parametrize("sampler", [sample_fbm_exact, sample_fbm_fast])
    def test_samplers_do_not_depend_on_the_draw_blocks(self, sampler):
        # at n = 1024 a draw holds 32 (fast) or 64 (exact) replicates, so the
        # two path sets split their replicates into different blocks
        g = TimeGrid(1.0, 1024)
        assert 70 > fbm._BLOCK_BYTES // (8 * 1024)
        full = sampler(0.7, g, 70, seed=11)
        part = sampler(0.7, g, 5, seed=11)
        assert np.array_equal(full[:5], part)


def _fast_paths_one_row_at_a_time(H: float, grid: TimeGrid, replicates: int, seed: int) -> np.ndarray:
    """Reference for the fast sampler: each path on its own, from its own
    stream, by a one-row real inverse transform of its n + 1 weighted bins."""
    n = grid.n
    w = fbm._spectral_weights(H, grid)
    values = np.zeros((replicates, n + 1))
    for i in range(replicates):
        z = replicate_stream(seed, i).standard_normal(2 * n)
        bins = np.zeros(n + 1, dtype=complex)
        bins[0] = z[0]
        bins[1:n] = z[2 : n + 1] + 1j * z[n + 1 :]
        bins[n] = z[1]
        values[i, 1:] = np.cumsum(np.fft.irfft(w * bins, 2 * n, norm="forward")[:n])
    return values


def _full_spectrum_paths(H: float, grid: TimeGrid, Z: np.ndarray) -> np.ndarray:
    """The circulant sampler's map of normals Z (rows, 2n) to paths t_1..t_n
    before 0.16.0: the whole Hermitian spectrum of 2n bins, its conjugate
    mirror written out, and the real part of its complex inverse transform."""
    n = grid.n
    coeff = np.sqrt(np.clip(fbm._circulant_eigenvalues(H, n), 0.0, None))
    xi = np.empty(Z.shape, dtype=complex)
    xi[:, 0] = Z[:, 0]
    xi[:, n] = Z[:, 1]
    xi[:, 1:n] = (Z[:, 2 : n + 1] + 1j * Z[:, n + 1 :]) / math.sqrt(2.0)
    xi[:, n + 1 :] = np.conj(xi[:, n - 1 : 0 : -1])
    fgn = math.sqrt(2.0 * n) * np.fft.ifft(coeff * xi, axis=-1).real[:, :n]
    return grid.dt**H * np.cumsum(fgn, axis=1)


# (n, rows): the replicates, or at n >= 256 the replicates past one full
# block of normals (128 rows at n = 256, 32 at n = 1024, 2 at n = 16384), so
# those path sets span more than one block whatever the budget
FAST_BLOCK_CASES = [(1, 7), (2, 7), (3, 7), (256, 33), (1024, 17), (16384, 3)]


class TestFastSamplerBlocks:
    @pytest.mark.parametrize("n, rows", FAST_BLOCK_CASES)
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_block_transform_equals_per_row_reference(self, H, n, rows):
        replicates = rows
        if n >= 256:
            replicates += fbm._BLOCK_BYTES // (16 * n)
            assert len(list(fbm._row_blocks(replicates, 16 * n))) > 1
        g = TimeGrid(1.0, n)
        got = sample_fbm_fast(H, g, replicates, seed=9)
        assert np.array_equal(got, _fast_paths_one_row_at_a_time(H, g, replicates, 9))

    # The half spectrum and the full one differ by rounding only: the
    # transforms' of about eps log n relative, then the running sum's, which
    # grows like sqrt(n) on these random increments.  The worst reading over
    # these cases is 1.24 eps sqrt(n) max|path| (n 1, H 0.7; at most 0.35 for
    # n >= 256), against a bound of 16.
    @pytest.mark.parametrize("n, rows", FAST_BLOCK_CASES)
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_half_spectrum_equals_the_full_hermitian_transform(self, H, n, rows):
        g = TimeGrid(1.0, n)
        Z = replicate_normals(4, range(rows), 2 * n)
        got = fbm._fast_paths(fbm._spectral_weights(H, g), Z)
        reference = _full_spectrum_paths(H, g, Z)
        assert got.shape == reference.shape == (rows, n)
        assert np.abs(got - reference).max() <= 16 * EPS * math.sqrt(n) * np.abs(reference).max()


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    starts = []
    start = threading.Thread.start

    def counted(self):
        starts.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def _on_threads(monkeypatch, threads, f, *args):
    monkeypatch.setattr(fbm, "_THREADS", threads)
    return f(*args)


class TestBlockThreads:
    def test_thread_count_is_the_usable_cpus_capped_at_two(self):
        assert fbm._THREADS == min(2, len(os.sched_getaffinity(0)))

    # (sampler, n, replicates, blocks): the exact sampler's 1001 rows at n
    # 1024 end in a 41-row block, zero-padded to 64 rows
    @pytest.mark.parametrize("sampler, n, replicates, blocks", [
        (sample_fbm_exact, 1024, 1001, 16),
        (sample_fbm_fast, 512, 300, 5),
        (sample_fbm_fast, 1024, 100, 4),
    ], ids=["exact-1024", "fast-512", "fast-1024"])
    def test_samplers_equal_on_one_thread_and_two(self, monkeypatch, thread_starts, sampler, n, replicates, blocks):
        row_bytes = 8 * n if sampler is sample_fbm_exact else 16 * n
        assert len(list(fbm._row_blocks(replicates, row_bytes))) == blocks
        g = TimeGrid(1.0, n)
        one = _on_threads(monkeypatch, 1, sampler, 0.7, g, replicates, 13)
        assert thread_starts == []
        two = _on_threads(monkeypatch, 2, sampler, 0.7, g, replicates, 13)
        assert thread_starts == ["fbm-blocks"]
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_kernel_table_equal_on_one_thread_and_two(self, monkeypatch, thread_starts, H):
        t64, r64 = _covariance_pairs(64)
        assert r64.size == 536 and len(_kernel_blocks(t64, r64)) == 14
        one = _on_threads(monkeypatch, 1, kernel_eval_grid, H, t64, r64)
        assert thread_starts == []
        two = _on_threads(monkeypatch, 2, kernel_eval_grid, H, t64, r64)
        assert thread_starts == ["fbm-blocks"]
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("sampler, replicates, blocks", [
        (sample_fbm_exact, 3000, 3),  # the exact-sampler-variance oracle's draw
        (sample_fbm_fast, 1100, 3),
    ], ids=["exact", "fast"])
    def test_short_rows_start_no_thread(self, monkeypatch, thread_starts, sampler, replicates, blocks):
        # at n 64 a row draws 64 (exact) or 128 (fast) normals, fewer than
        # _GIL_FREE_NORMALS: its blocks stay on the calling thread
        row_bytes = 8 * 64 if sampler is sample_fbm_exact else 16 * 64
        assert len(list(fbm._row_blocks(replicates, row_bytes))) == blocks
        _on_threads(monkeypatch, 2, sampler, 0.7, TimeGrid(1.0, 64), replicates, 13)
        assert thread_starts == []

    def test_block_error_reaches_the_caller_and_stops_the_blocks(self, monkeypatch, thread_starts):
        monkeypatch.setattr(fbm, "_THREADS", 2)
        ran = []

        def block(rows):
            if rows.start == 0:
                raise InvariantViolation("block 0")
            time.sleep(0.002)
            ran.append(rows.start)

        before = threading.active_count()
        with pytest.raises(InvariantViolation, match="block 0"):
            fbm._each_block(block, 100, fbm._BLOCK_BYTES)  # 100 one-row blocks
        assert thread_starts == ["fbm-blocks"]
        assert threading.active_count() == before
        # the helper finishes the block it holds when block 0 raises, and
        # starts no other
        assert len(ran) < 10

    def test_every_block_runs_once_under_a_short_switch_interval(self, monkeypatch):
        # four callers at once, each with its helper: eight threads on at
        # most two CPUs, switching every microsecond.  A block lost or taken
        # twice would show in its rows' counts
        monkeypatch.setattr(fbm, "_THREADS", 2)
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        counts = np.zeros((4, 500), dtype=int)

        def caller(c):
            def block(rows):
                counts[c, rows.start : rows.stop] += 1

            fbm._each_block(block, 500, fbm._BLOCK_BYTES // 3)  # 167 blocks of 3 rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert unhandled == []
        assert (counts == 1).all()

KS_SAMPLES = st.tuples(
    st.integers(1, 3000),
    st.sampled_from(["shifted", "ties", "identical"]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)


def blocked_samples(n, h):
    """Two samples of n distinct points that take turns in blocks of h: D = h/n."""
    labels = np.array(([0] * h + [1] * h) * (n // h) + [0] * (n % h) + [1] * (n % h))
    points = np.arange(2.0 * n)
    return points[labels == 0], points[labels == 1]


class TestKsPvalue:
    @settings(max_examples=150, deadline=None)
    @given(case=KS_SAMPLES)
    def test_equals_scipy_exact_float_for_float(self, case):
        n, kind, shift, seed = case
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n)
        if kind == "identical":
            b = rng.permutation(a)
        else:
            b = rng.standard_normal(n) + shift
        if kind == "ties":
            a, b = np.round(a, 1), np.round(b, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = stats.ks_2samp(a, b)
            want = res.pvalue
        if round(res.statistic * n) <= 1:
            # D <= 1/n: the exact tail is 1, which scipy's sum misses by a few ulps
            assert oracles.ks_2samp_pvalue(a, b) == 1.0
            return
        if any("Exact calculation unsuccessful" in str(w.message) for w in caught):
            # scipy falls back to the asymptotic form where the exact tail
            # leaves [0, 1]; here a tail above 1 within the sum's rounding
            # bound is 1.0, and any other is an error
            h = round(res.statistic * n)
            tail = _compute_prob_outside_square(n, h)
            if 1.0 < tail <= 1.0 + oracles._ks_tail_slack(n, h):
                assert oracles.ks_2samp_pvalue(a, b) == 1.0
            else:
                with pytest.raises(InvariantViolation):
                    oracles.ks_2samp_pvalue(a, b)
            return
        got = oracles.ks_2samp_pvalue(a, b)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        if kind == "identical":
            assert got == 1.0

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            oracles.ks_2samp_pvalue(np.zeros(3), np.zeros(4))

    def test_tail_outside_unit_interval_is_an_invariant_violation(self, monkeypatch):
        # blocks of 2: D = 2/1531, whose Horner sum rounds to 1 + 5 * 2^-52,
        # past a rounding bound cut to 4 ulps
        a, b = blocked_samples(1531, 2)
        assert _compute_prob_outside_square(1531, 2) > 1.0 + 4 * np.finfo(float).eps
        monkeypatch.setattr(oracles, "_ks_tail_slack", lambda n, h: 4 * np.finfo(float).eps)
        with pytest.raises(InvariantViolation, match="outside"):
            oracles.ks_2samp_pvalue(a, b)

    @pytest.mark.parametrize("n, h", [(741, 3), (1531, 2)])
    def test_tail_within_rounding_bound_equals_scipy(self, n, h):
        # D = h/n, whose Horner sum rounds 5 ulps above 1: inside the bound,
        # so the p-value is 1.0, where scipy's exact method switches to the
        # asymptotic form
        a, b = blocked_samples(n, h)
        tail = _compute_prob_outside_square(n, h)
        assert 1.0 + 4 * np.finfo(float).eps < tail <= 1.0 + oracles._ks_tail_slack(n, h)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = stats.ks_2samp(a, b, method="exact").pvalue
        assert any("Exact calculation unsuccessful" in str(w.message) for w in caught)
        assert oracles.ks_2samp_pvalue(a, b) == want == 1.0

    @pytest.mark.parametrize("n, h", [(5, 1), (7, 1), (13, 1), (14, 1), (15, 1), (30, 1), (36, 1),
                                      (60, 2), (69, 2)])
    def test_tail_rounded_just_over_one_is_one(self, n, h):
        # D = h/n, and the Horner sum lands 1 or 2 ulps above the exact tail, 1
        a, b = blocked_samples(n, h)
        assert 1.0 < _compute_prob_outside_square(n, h) <= 1.0 + 4 * np.finfo(float).eps
        assert oracles.ks_2samp_pvalue(a, b) == 1.0

    @pytest.mark.parametrize("n", [321, 609, 1000, 2486])
    def test_interleaved_samples_have_p_value_one(self, n):
        # D = 1/n, whose Horner sum rounds 6 to 10 ulps above 1: P(D >= 1/n) is
        # exactly 1, and n = 1000 is the oracle suite's sample size
        a, b = blocked_samples(n, 1)
        assert _compute_prob_outside_square(n, 1) > 1.0 + 4 * np.finfo(float).eps
        assert oracles.ks_2samp_pvalue(a, b) == 1.0
        assert oracles.ks_2samp_pvalue(b, a) == 1.0


class TestExactSampler:
    def test_determinism(self):
        g = TimeGrid(1.0, 16)
        a = sample_fbm_exact(0.7, g, 4, seed=9)
        b = sample_fbm_exact(0.7, g, 4, seed=9)
        assert np.array_equal(a, b)

    def test_sharding_invariance(self):
        # replicate i depends only on (seed, i), not on the batch layout
        g = TimeGrid(1.0, 16)
        full = sample_fbm_exact(0.7, g, 6, seed=3)
        part = sample_fbm_exact(0.7, g, 3, seed=3)
        assert np.array_equal(full[:3], part)

    @pytest.mark.parametrize("n, replicates, runs", [(64, 1100, (1, 3, 17, 40)), (1024, 128, (65,))])
    def test_rows_do_not_depend_on_the_replicate_count(self, n, replicates, runs):
        # one block holds 1024 rows at n 64 and 64 at n 1024, where a run of
        # 65 ends in a 1-row block: the padding keeps every product one shape
        block = fbm._block_rows(8 * n)
        assert block == {64: 1024, 1024: 64}[n] and replicates > block
        g = TimeGrid(1.0, n)
        full = sample_fbm_exact(0.7, g, replicates, seed=5)
        for r in runs:
            assert np.array_equal(sample_fbm_exact(0.7, g, r, seed=5), full[:r]), r

    # n below the panel count, and n that is not a multiple of it
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000, 1023, 1024])
    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_panel_product_equals_the_dense_product(self, H, n):
        # the zeros above the factor's diagonal that the panels skip add
        # nothing: the dense product is the reference, on the same normals.
        # Only the order of the sums moves: the worst reading is 1.2e-15
        # relative (n 1023), and 0 at n 1 and 64
        C = fbm._path_factor(H, TimeGrid(1.0, n))
        assert np.array_equal(C, np.tril(C))
        Z = replicate_normals(6, range(fbm._block_rows(8 * n)), n)
        reference = Z @ C.T
        got = fbm._exact_paths(C, Z)
        assert got.shape == reference.shape
        assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_matches_row_at_a_time_reference(self, H):
        g = TimeGrid(1.0, 64)
        C = np.linalg.cholesky(build_covariance_matrix(H, g))
        reference = np.array([C @ replicate_stream(8, i).standard_normal(g.n) for i in range(40)])
        paths = sample_fbm_exact(H, g, 40, seed=8)
        assert np.all(paths[:, 0] == 0.0)
        assert np.abs(paths[:, 1:] - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_starts_at_zero(self):
        g = TimeGrid(1.0, 8)
        paths = sample_fbm_exact(0.3, g, 10, seed=0)
        assert np.all(paths[:, 0] == 0.0)

    def test_variance_within_four_se(self):
        dev, se = oracles.exact_sampler_variance_deviation(0.7, TimeGrid(1.0, 32), 4000, 21, 16)
        assert dev < 4 * se

    def test_brownian_disjoint_increments_uncorrelated(self):
        g = TimeGrid(1.0, 8)
        reps = 5000
        paths = sample_fbm_exact(0.5, g, reps, seed=42)
        inc1 = paths[:, 2] - paths[:, 1]
        inc2 = paths[:, 6] - paths[:, 5]
        corr = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(reps)


class TestFastSampler:
    def test_brownian_increments_iid(self):
        g = TimeGrid(1.0, 256)
        paths = sample_fbm_fast(0.5, g, 400, seed=5)
        inc = np.diff(paths, axis=1)
        target = g.dt
        n_inc = inc.size
        se = target * math.sqrt(2.0 / (n_inc - 1))
        assert abs(inc.var(ddof=1) - target) < 4 * se
        lag1 = np.corrcoef(inc[:, :-1].ravel(), inc[:, 1:].ravel())[0, 1]
        assert abs(lag1) < 4.0 / math.sqrt(inc[:, 1:].size)

    def test_ks_against_exact_sampler(self):
        assert oracles.ks_pvalue(0.7, TimeGrid(1.0, 1024), 2000, 1, 2) > 0.01

    def test_self_similarity(self):
        # beta(at) has the law of a^H beta(t)
        H, a = 0.7, 2.0
        pa = sample_fbm_fast(H, TimeGrid(a, 512), 2000, seed=3)
        pb = sample_fbm_fast(H, TimeGrid(1.0, 512), 2000, seed=4)
        p = stats.ks_2samp(pa[:, -1], a**H * pb[:, -1]).pvalue
        assert p > 0.01

    def test_long_range_dependence_sign(self):
        # covariance of adjacent unit increments: positive for H=0.7,
        # negative for H=0.3 (4 standard errors)
        g = TimeGrid(2.0, 2)
        for H, sign in ((0.7, 1.0), (0.3, -1.0)):
            reps = 6000
            paths = sample_fbm_exact(H, g, reps, seed=77)
            i1 = paths[:, 1] - paths[:, 0]
            i2 = paths[:, 2] - paths[:, 1]
            cov = np.mean(i1 * i2)
            se = np.std(i1 * i2, ddof=1) / math.sqrt(reps)
            assert sign * cov > 4 * se

    def test_increment_stationarity(self):
        for H in (0.3, 0.5, 0.7):
            g = TimeGrid(1.0, 64)
            reps = 4000
            paths = sample_fbm_exact(H, g, reps, seed=11)
            inc = paths[:, 40] - paths[:, 8]
            target = (g.points[40] - g.points[8]) ** (2 * H)
            se = target * math.sqrt(2.0 / (reps - 1))
            assert abs(inc.var(ddof=1) - target) < 4 * se

    @pytest.mark.parametrize("negative, raises", [(-1.0, True), (-2e-8, True), (-5e-9, False)],
                             ids=["far-negative", "just-past-rounding", "rounding"])
    def test_bad_embedding_raises_instead_of_falling_back(self, monkeypatch, negative, raises):
        # one eigenvalue below -1e-8 x the largest is an invariant failure;
        # one above it is rounding, and counts as zero
        g = TimeGrid(1.0, 16)
        eigs = np.array([negative] + [1.0] * 31)
        monkeypatch.setattr(fbm, "_circulant_eigenvalues", lambda H, n: eigs)
        monkeypatch.setattr(fbm, "sample_fbm_exact", _no_exact_sampler)
        if raises:
            with pytest.raises(InvariantViolation, match="H=0.7, n=16"):
                sample_fbm_fast(0.7, g, 3, seed=4)
        else:
            assert np.isfinite(sample_fbm_fast(0.7, g, 3, seed=4)).all()

    def test_near_one_hurst_at_large_n_stays_on_the_fast_path(self, monkeypatch):
        # the embedding that once went negative (min/max -1.23e-8) and fell back
        # to a dense covariance of 512 GiB
        monkeypatch.setattr(fbm, "sample_fbm_exact", _no_exact_sampler)
        paths = sample_fbm_fast(0.999, TimeGrid(1.0, 2**18), 1, 0)
        assert paths.shape == (1, 2**18 + 1)
        assert np.isfinite(paths).all()


def _no_exact_sampler(*args):
    raise AssertionError("the fast sampler called the exact sampler")


CIRCULANT_HURST = [0.01, 0.1, 0.3, 0.5, 0.7, 0.95, 0.99, 0.999, 0.9999]


class TestCirculantEigenvalues:
    @pytest.mark.parametrize("H", CIRCULANT_HURST)
    def test_nonnegative(self, H):
        for n in (1, 2, 3, 16, 2**10, 2**14, 2**18):
            eigs = fbm._circulant_eigenvalues(H, n)
            assert eigs.shape == (2 * n,)
            assert eigs.min() / eigs.max() > 0.0, n

    @pytest.mark.parametrize("H", CIRCULANT_HURST)
    def test_agrees_with_the_direct_second_difference(self, H):
        for n in [*range(1, 33), 100, 255, 256, 257, 500, 1000, 1023, 1024]:
            k = np.arange(n + 1, dtype=float)
            gamma = 0.5 * ((k + 1.0) ** (2 * H) - 2.0 * k ** (2 * H) + np.abs(k - 1.0) ** (2 * H))
            direct = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
            got = fbm._circulant_eigenvalues(H, n)
            assert np.abs(got - direct).max() <= 1e-11 * direct.max(), n


FACTOR_HURST = [0.05, 0.3, 0.5, 0.7, 0.95]
EPS = np.finfo(float).eps


class TestIncrementFactor:
    # The references are the dense matrices on the unit grid 0..n and LAPACK's
    # factor of them.  They are second differences of k^{2H}, which round by
    # about eps n^{2H} against the unit variance, and the errors measured at
    # these H and n follow that: F F^T against the increment covariance read at
    # most 5.3 eps n^{2H} (H 0.05; 0.7-0.8 for H >= 0.3), F against LAPACK at
    # most 11.3 eps n^{2H} (H 0.05, n 1024; 0.8-2.4 for H >= 0.3), and the path
    # covariance of cumsum F, whose entries are sums of up to n terms, at most
    # 0.40 eps n of its largest entry.  Each bound is about 6-10x the worst reading.
    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("H", FACTOR_HURST)
    def test_reproduces_the_increment_covariance(self, H, n):
        F = fbm._increment_factor(H, n)
        S = increment_covariance(H, np.arange(n + 1.0))
        assert np.abs(F @ F.T - S).max() <= 32 * EPS * n ** (2 * H)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("H", FACTOR_HURST)
    def test_equals_the_lapack_cholesky_factor(self, H, n):
        F = fbm._increment_factor(H, n)
        C = np.linalg.cholesky(increment_covariance(H, np.arange(n + 1.0)))
        assert np.array_equal(F, np.tril(F))
        assert np.abs(F - C).max() <= 64 * EPS * n ** (2 * H)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("H", FACTOR_HURST)
    def test_path_factor_reproduces_the_path_covariance(self, H, n):
        P = np.cumsum(fbm._increment_factor(H, n), axis=0)
        R = build_covariance_matrix(H, TimeGrid(float(n), n))
        assert np.abs(P @ P.T - R).max() <= 4 * EPS * n * np.abs(R).max()

    @pytest.mark.parametrize("n", [1, 2, 64, 1024])
    def test_half_hurst_is_the_identity(self, n):
        # independent increments: the lags are exactly (1, 0, ..., 0), and
        # every Schur rotation is the identity
        assert np.array_equal(fbm._increment_factor(0.5, n), np.eye(n))

    @pytest.mark.parametrize("H", [0.001, 0.999999])
    def test_extreme_hurst_keeps_positive_pivots(self, H):
        F = fbm._increment_factor(H, 1024)
        assert np.isfinite(F).all() and (np.diag(F) > 0.0).all()


class TestKtStar:
    # the transform reads the kernel of the fixed order-48 rule, which the
    # closed-form kernel_eval matches to about 2e-8 (kernel-two-rule-agreement)
    def test_indicator_telescopes_to_kernel(self):
        H = 0.7
        tg = TimeGrid(1.0, 16)
        vals = np.zeros(16)
        vals[:8] = 1.0  # indicator of [0, 1/2)
        out = apply_kt_star(H, vals, tg.points, 0.3)
        assert out.shape == ()
        assert out == pytest.approx(float(kernel_eval_grid(H, 0.5, 0.3)), abs=1e-12)

    def test_constant_path(self):
        H = 0.35
        tg = TimeGrid(1.0, 10)
        out = apply_kt_star(H, 2.5 * np.ones(10), tg.points, 0.41)
        assert out == pytest.approx(2.5 * float(kernel_eval_grid(H, 1.0, 0.41)), abs=1e-12)

    @pytest.mark.parametrize("H", [0.35, 0.5, 0.7])
    def test_array_of_points_equals_each_point_alone(self, H):
        tg = TimeGrid(1.0, 16)
        vals = np.random.default_rng(3).normal(size=16)
        # the first cell, interior cells, a point on the grid time t_5, the last cell
        s = np.array([[1e-3, 0.03, 0.2], [tg.points[5], 0.61, 0.999]])
        out = apply_kt_star(H, vals, tg.points, s)
        assert out.shape == s.shape
        for idx in np.ndindex(s.shape):
            alone = apply_kt_star(H, vals, tg.points, s[idx])
            assert out[idx] == pytest.approx(float(alone), rel=1e-14, abs=0.0)
        # points over several blocks of the kernel rule.  Where the telescoped
        # sum cancels, its value is small against its terms, and summing them
        # along another axis (a 0-d point's sum is numpy's 1-D one) moves it
        # by rounding of the terms' size max|phi| max_m K(t_m, s): 3.2e-16 of
        # it at most at these points, where the value moves by up to 1.7e-13
        # of itself
        s = np.linspace(1e-3, 0.999, 397)
        K = kernel_eval_grid(H, tg.points[1:, None], s)
        assert len(_kernel_blocks(tg.points[1:, None], s)) > 1
        out = apply_kt_star(H, vals, tg.points, s)
        for i, terms_size in enumerate(np.abs(vals).max() * K.max(axis=0)):
            alone = apply_kt_star(H, vals, tg.points, s[i])
            assert out[i] == pytest.approx(float(alone), rel=0.0, abs=1e-14 * terms_size)

    def test_points_outside_the_horizon_are_refused(self):
        tg = TimeGrid(1.0, 4)
        for s in (0.0, 1.0, np.array([0.5, 1.5])):
            with pytest.raises(ValueError, match="strictly inside"):
                apply_kt_star(0.7, np.ones(4), tg.points, s)

    def test_indicator_transform_norm_is_variance(self):
        # ||K_T* 1_[0,t]||^2_{L2(0,T)} = t^{2H}
        from fracnls.fbm import _cell_quadrature_nodes

        H = 0.7
        t_cut = 0.5
        total = 0.0
        cells = np.linspace(0.0, t_cut, 9)
        for a, b in zip(cells[:-1], cells[1:]):
            nodes, w = _cell_quadrature_nodes(a, b, 48)
            vals = kernel_eval_grid(H, t_cut, nodes)
            total += float((vals**2) @ w)
        assert total == pytest.approx(t_cut**1.4, abs=1e-5)

    @pytest.mark.parametrize("H", [0.35, 0.7])
    def test_restriction_identity(self, H):
        vals = np.random.default_rng(0).normal(size=16)
        assert oracles.restriction_gap(H, vals, TimeGrid(1.0, 16), 10) < 1e-8


def _duality_loop(H, phi, h, tg):
    """The per-cell form of duality_pairing: the transform one cell at a time
    (as the one-point transform, a loop over the cells right of s), and Kh one
    grid time and one cell at a time."""
    from fracnls.fbm import _DUALITY_ORDER, _cell_quadrature_nodes

    pts, n = tg.points, tg.n

    def transform(s):
        cell = np.clip(np.searchsorted(pts, s, side="right") - 1, 0, n - 1)
        phi_s = phi[cell]
        Kb = np.array([kernel_eval_grid(H, pts[m], s) for m in range(n + 1)])
        out = phi_s * Kb[n]
        for m in range(1, n):
            active = cell < m
            out[active] += (phi[m] - phi_s[active]) * (Kb[m + 1][active] - Kb[m][active])
        return out

    lhs = 0.0
    for m in range(n):
        nodes, weights = _cell_quadrature_nodes(pts[m], pts[m + 1], _DUALITY_ORDER)
        lhs += h[m] * float(transform(nodes) @ weights)
    Kh = np.zeros(n + 1)
    for m in range(1, n + 1):
        for mp in range(m):
            nodes, weights = _cell_quadrature_nodes(pts[mp], pts[mp + 1], _DUALITY_ORDER + 7)
            Kh[m] += h[mp] * float(kernel_eval_grid(H, pts[m], nodes) @ weights)
    return lhs, float(np.sum(phi * np.diff(Kh)))


class TestDuality:
    @pytest.mark.parametrize("H", [0.5, 0.7])
    def test_equals_the_per_cell_loop(self, H):
        tg = TimeGrid(1.0, 16)
        mid = tg.midpoints
        cases = [(np.where(mid < 0.5, 1.0, 0.0), np.ones(16)),
                 (1 + 0.5 * mid - 2 * mid**2, 0.3 - mid),
                 (np.random.default_rng(5).normal(size=16), np.random.default_rng(6).normal(size=16))]
        for phi, h in cases:
            got = duality_pairing(H, phi, h, tg)
            want = _duality_loop(H, phi, h, tg)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_zero_path(self):
        H = 0.7
        tg = TimeGrid(1.0, 8)
        lhs, rhs = duality_pairing(H, np.zeros(8), np.ones(8), tg)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("H", [0.5, 0.7])
    def test_indicator_unit_h(self, H):
        phi = np.zeros(16)
        phi[:8] = 1.0
        assert oracles.duality_gap(H, phi, np.ones(16), TimeGrid(1.0, 16)) < 1e-6

    def test_polynomial_paths(self):
        H = 0.7
        tg = TimeGrid(1.0, 16)
        mid = tg.midpoints
        phi = 1.0 + 0.5 * mid - 2.0 * mid**2 + mid**3
        h = 0.3 - mid + 0.2 * mid**2
        assert oracles.duality_gap(H, phi, h, tg) < 1e-5


def _traced_peak(f, *args) -> float:
    """tracemalloc's peak over one call of ``f``, in MiB."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestKernelQuadratureMemory:
    # The kernel rule holds at most six arrays of one block at a time, 3 MiB
    # under the 512 KiB budget, and up to two blocks run at once, one on each
    # of two threads (fbm._each_block): 6 MiB.  Each bound adds the arrays
    # the call holds beside them.  The covariance on n cells evaluates
    # E = n (32 + 8 (n - 1)) pairs.  While the blocks run it holds three
    # arrays of at most E floats (the output table and the t and s of the
    # pairs with s < t) and their E-byte mask.  After them it holds the
    # kernel matrix, its weighted copy and the (n, n) product, and then the
    # (n, n) arrays of the analytic covariance and the gap, less either way.
    def test_covariance_at_n_64_within_8_mib(self):
        # E = 34304: three 268 KiB arrays, a 34 KiB mask and two blocks'
        # 6 MiB, 6.8 MiB (5.6 MiB measured, 3.6 with one block at a time)
        oracles.covariance_quadrature_error(0.7, TimeGrid(1.0, 4))  # the cached unit rules
        assert _traced_peak(oracles.covariance_quadrature_error, 0.7, TimeGrid(1.0, 64)) <= 8.0

    def test_covariance_at_n_256_within_24_mib(self):
        # E = 530432: three 4.05 MiB arrays, a 0.5 MiB mask and two blocks'
        # 6 MiB, 18.7 MiB; after the blocks, two 4.05 MiB arrays and five
        # 0.5 MiB (n, n) ones at most (13.8 MiB measured, 11.8 with one
        # block at a time)
        oracles.covariance_quadrature_error(0.7, TimeGrid(1.0, 4))
        assert _traced_peak(oracles.covariance_quadrature_error, 0.7, TimeGrid(1.0, 256)) <= 24.0

    def test_duality_at_n_16_within_8_mib(self):
        # the largest kernel table is Kh's, 16 x 16 x 62 floats (124 KiB);
        # ten arrays of that size and two blocks' 6 MiB are 7.2 MiB (5.3 MiB
        # measured, 3.3 with one block at a time)
        tg = TimeGrid(1.0, 16)
        phi = np.where(tg.midpoints < 0.5, 1.0, 0.0)
        oracles.duality_gap(0.7, phi, np.ones(16), tg)
        assert _traced_peak(oracles.duality_gap, 0.7, phi, np.ones(16), tg) <= 8.0


class TestRkhsInnerProduct:
    def test_indicator_variance(self):
        H = 0.7
        tg = TimeGrid(1.0, 32)
        ind = np.zeros(32)
        ind[:16] = 1.0
        ip = rkhs_inner_product(H, ind, ind, tg)
        assert ip == pytest.approx(0.5**1.4, abs=1e-4)

    def test_indicator_cross_covariance(self):
        # indicators of [0, 3/4) and [0, 1/4) on 32 cells
        assert oracles.rkhs_covariance_error(0.8, TimeGrid(1.0, 32), 0.75, 0.25) <= 1e-4

    def test_bilinearity(self):
        H = 0.7
        tg = TimeGrid(1.0, 8)
        rng = np.random.default_rng(1)
        phi, psi = rng.normal(size=8), rng.normal(size=8)
        assert rkhs_inner_product(H, 2 * phi, psi, tg) == pytest.approx(
            2 * rkhs_inner_product(H, phi, psi, tg)
        )

    def test_small_hurst_rejected(self):
        with pytest.raises(ValueError):
            rkhs_inner_product(0.5, np.ones(4), np.ones(4), TimeGrid(1.0, 4))


def test_indefinite_covariance_flagged(monkeypatch):
    # lags whose Toeplitz matrix is not positive definite stop the Schur
    # recursion at its first pivot (rho = 1.5), which must surface as an
    # invariant violation naming H and n, with no fallback factorization
    monkeypatch.setattr(fbm, "_fgn_autocovariance", lambda H, n: np.array([1.0, 1.5, 0.0, 0.0]))
    with pytest.raises(InvariantViolation, match="H=0.7, n=4"):
        sample_fbm_exact(0.7, TimeGrid(1.0, 4), 2, seed=0)
