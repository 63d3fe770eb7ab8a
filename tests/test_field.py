"""Spatial grid, Sobolev norms, and free-group tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracnls import oracles
from fracnls.field import (
    ComplexField,
    GridSpec,
    field_from_modes,
    grid_fft,
    grid_ifft,
    group_deviation_norm,
    group_multiplier,
    hamiltonian,
    l2_norm,
    mass,
    sobolev_norm,
    sobolev_norms,
)


def apply_group(u: ComplexField, t: float) -> ComplexField:
    """Free Schrodinger flow U(t): an exact isometry of every H^s norm."""
    if t == 0.0:
        return ComplexField(u.grid, u.values.copy())
    return ComplexField(u.grid, grid_ifft(u.grid, group_multiplier(u.grid, t) * grid_fft(u.grid, u.values)))


def real_pairing(u: ComplexField, v: ComplexField) -> float:
    """Re int u conj(v) dx by polarization of the L2 norm."""
    return 0.25 * (l2_norm(u + v) ** 2 - l2_norm(u - v) ** 2)


def modes_from_field(u: ComplexField) -> np.ndarray:
    """Reference inverse of ``field_from_modes``: the orthonormal-basis
    coefficients of u (FFT layout)."""
    g = u.grid
    return grid_fft(g, u.values) / g.mode_count * np.sqrt(g.volume) * g.mode_parity_phase


@pytest.fixture
def grid():
    return GridSpec(1, 64, math.pi)


@pytest.fixture
def random_field(grid):
    rng = np.random.default_rng(7)
    return ComplexField(grid, rng.normal(size=64) + 1j * rng.normal(size=64))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(3, 16, 1.0)
        with pytest.raises(ValueError):
            GridSpec(1, 12, 1.0)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(1, 4, 1.0)  # too small
        with pytest.raises(ValueError):
            GridSpec(1, 16, 0.0)

    def test_frequencies(self):
        g = GridSpec(1, 8, math.pi)
        # xi_k = k for L = pi, fft layout
        assert np.allclose(np.sort(g.axis_frequencies), np.arange(-4, 4))


class TestNorms:
    def test_zero_field(self, grid):
        z = ComplexField.zero(grid)
        assert sobolev_norm(z, 2.0) == 0.0

    def test_s_zero_is_l2(self, random_field):
        assert sobolev_norm(random_field, 0.0) == pytest.approx(
            l2_norm(random_field), rel=1e-12
        )

    def test_single_mode_closed_form(self, grid):
        x = grid.coordinates[0]
        a, k1, s = 2.0 - 1.0j, 3, 1.5
        u = ComplexField(grid, a * np.exp(1j * k1 * x))
        want = abs(a) * math.sqrt(2 * math.pi) * (1 + k1**2) ** (s / 2)
        assert sobolev_norm(u, s) == pytest.approx(want, rel=1e-12)

    def test_parseval_physical_vs_spectral(self, random_field):
        phys = math.sqrt(
            float(np.sum(np.abs(random_field.values) ** 2)) * random_field.grid.cell_volume
        )
        assert sobolev_norm(random_field, 0.0) == pytest.approx(phys, rel=1e-12)

    def test_inner_product(self, grid, random_field):
        u = random_field
        assert real_pairing(u, u) == pytest.approx(l2_norm(u) ** 2, rel=1e-12)
        assert abs(real_pairing(u, ComplexField(grid, 1j * u.values))) < 1e-12 * l2_norm(u) ** 2

    def test_orthogonal_modes(self, grid):
        x = grid.coordinates[0]
        u = ComplexField(grid, np.exp(1j * 2 * x))
        v = ComplexField(grid, np.exp(1j * 5 * x))
        assert abs(real_pairing(u, v)) < 1e-12
        assert abs(real_pairing(u, 1j * v)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_stacked_norms_equal_single_norms(self, d):
        g = GridSpec(d, 16, math.pi)
        rng = np.random.default_rng(3)
        shape = (3, 5) + g.shape
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for s in (0.0, 0.5, 1.0):
            norms = sobolev_norms(g, grid_fft(g, values), s)
            assert norms.shape == (3, 5)
            for idx in np.ndindex(3, 5):
                assert norms[idx] == sobolev_norm(ComplexField(g, values[idx]), s)

    def test_grid_mismatch(self, random_field):
        other = ComplexField.zero(GridSpec(1, 32, math.pi))
        with pytest.raises(ValueError):
            random_field - other


class TestGroup:
    def test_identity_at_zero(self, random_field):
        out = apply_group(random_field, 0.0)
        assert np.array_equal(out.values, random_field.values)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.4])
    def test_isometry(self, random_field, s):
        before = sobolev_norm(random_field, s)
        after = sobolev_norm(apply_group(random_field, 0.37), s)
        assert abs(after - before) < 1e-12 * before

    def test_single_mode_phase(self):
        g = GridSpec(1, 16, math.pi)
        x = g.coordinates[0]
        u = ComplexField(g, np.exp(1j * x))  # mode k=1
        v = apply_group(u, math.pi)  # multiplier exp(i * 1 * pi) = -1
        assert np.abs(v.values + u.values).max() < 1e-12

    @given(t1=st.floats(-1.0, 1.0), t2=st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_group_property(self, t1, t2):
        g = GridSpec(1, 16, 2.0)
        rng = np.random.default_rng(3)
        u = ComplexField(g, rng.normal(size=16) + 1j * rng.normal(size=16))
        a = apply_group(apply_group(u, t1), t2)
        b = apply_group(u, t1 + t2)
        assert np.abs(a.values - b.values).max() < 1e-10


class TestGroupDeviation:
    def test_zero_time(self, grid):
        assert group_deviation_norm(grid, 0.5, 0.0) == 0.0

    def test_gamma_zero_bounded_by_two(self, grid):
        for t in (0.1, 1.0, 10.0):
            assert group_deviation_norm(grid, 0.0, t) <= 2.0 + 1e-15

    def test_holder_bound_scan(self, grid):
        scan = (np.linspace(0.0, 0.95, 20), np.logspace(-2, 0, 20))
        assert oracles.group_deviation_margin(grid, *scan) <= 1e-12

    def test_gamma_domain(self, grid):
        with pytest.raises(ValueError):
            group_deviation_norm(grid, 1.0, 0.1)

    def test_scan_approaches_time_power_scaling(self):
        # logged, not asserted: as the grid grows, the deviation norm at
        # small t fills in toward the t^gamma envelope
        gamma = 0.5
        for N, L in ((16, math.pi), (64, 2 * math.pi), (256, 4 * math.pi)):
            g = GridSpec(1, N, L)
            ratios = [
                group_deviation_norm(g, gamma, t) / (2 ** (1 - gamma) * t**gamma)
                for t in np.logspace(-2, 0, 5)
            ]
            print(f"deviation/envelope ratio N={N} L={L:.2f}: "
                  + ", ".join(f"{r:.3f}" for r in ratios))


class TestMassHamiltonian:
    def test_zero(self, grid):
        z = ComplexField.zero(grid)
        assert mass(z) == 0.0
        assert hamiltonian(z, 1.0, 1.0) == 0.0

    def test_constant_field(self, grid):
        a, lam, sigma = 1.5 + 0.5j, 1.0, 1.0
        u = ComplexField(grid, np.full(64, a))
        vol = 2 * math.pi
        assert mass(u) == pytest.approx(abs(a) ** 2 * vol, rel=1e-12)
        want = -lam * abs(a) ** (2 * sigma + 2) / (2 * sigma + 2) * vol
        assert hamiltonian(u, lam, sigma) == pytest.approx(want, rel=1e-12)

    def test_plane_wave_mass(self, grid):
        x = grid.coordinates[0]
        u = ComplexField(grid, 0.7 * np.exp(1j * 3 * x))
        assert mass(u) == pytest.approx(0.49 * 2 * math.pi, rel=1e-12)


class TestModeBasis:
    @pytest.mark.parametrize("d,N", [(1, 16), (2, 8)])
    def test_roundtrip_and_parseval(self, d, N):
        g = GridSpec(d, N, 1.7)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        f = field_from_modes(g, coeffs)
        assert np.abs(modes_from_field(f) - coeffs).max() < 1e-12
        assert l2_norm(f) ** 2 == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=1e-12)

    def test_coeff_sobolev_matches_field(self):
        g = GridSpec(1, 32, math.pi)
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=32) + 1j * rng.normal(size=32)
        f = field_from_modes(g, coeffs)
        want = math.sqrt(float(np.sum((1.0 + g.xi_squared) ** 1.3 * np.abs(coeffs) ** 2)))
        assert sobolev_norm(f, 1.3) == pytest.approx(want, rel=1e-12)

    def test_single_coefficient_is_orthonormal_mode(self):
        g = GridSpec(1, 16, math.pi)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[3] = 1.0  # mode k=3
        f = field_from_modes(g, coeffs)
        x = g.coordinates[0]
        want = np.exp(1j * 3 * x) / math.sqrt(2 * math.pi)
        assert np.abs(f.values - want).max() < 1e-12
