"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything is seeded; tolerances are fixed here
and match the stated contracts.
"""

import json
import math

import numpy as np
from scipy.linalg import block_diag

from fracnls import oracles
from fracnls.cli import parse_config, run
from fracnls.fbm import (
    TimeGrid,
    kernel_eval,
    normalization_constant,
    sample_fbm_exact,
    sample_fbm_fast,
)
from fracnls.field import (
    ComplexField,
    GridSpec,
    hamiltonian,
    l2_norm,
    mass,
    sobolev_norm,
)
from fracnls.ldp import EventSpec, LdpLab, holder_exponent, support_distance
from fracnls.noise import (
    ConvolutionSampler,
    CorrelationSpec,
    build_correlation,
    build_L,
    build_Q,
    terminal_covariance_blocks,
)
from fracnls.solver import NonlinearitySpec, SolverConfig, solve_mild, solve_mild_batch
from fracnls.fbm import replicate_stream
from test_field import apply_group


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_fbm_increment_law():
    reps = 5000
    worst = 0.0
    rng = np.random.default_rng(2024)
    for H in (0.3, 0.5, 0.7):
        grid = TimeGrid(1.0, 64)
        paths = sample_fbm_exact(H, grid, reps, seed=100)
        for _ in range(10):
            i, j = sorted(rng.choice(np.arange(1, 65), size=2, replace=False))
            inc = paths[:, j] - paths[:, i]
            target = (grid.points[j] - grid.points[i]) ** (2 * H)
            se = target * math.sqrt(2.0 / (reps - 1))
            z = abs(inc.var(ddof=1) - target) / se
            worst = max(worst, z)
    _report(1, "fBm increment variance", worst < 4.0, f"max |z| = {worst:.2f} (< 4 SE)")


def test_criterion_02_kernel_factorization():
    results = []
    for H, tol in ((0.5, 1e-3), (0.7, 1e-3), (0.3, 1e-2)):
        err = oracles.covariance_quadrature_error(H, TimeGrid(1.0, 256))
        results.append((H, err, tol))
    ok = all(err < tol for _, err, tol in results)
    detail = "; ".join(f"H={H}: {err:.2e} (tol {tol:g})" for H, err, tol in results)
    _report(2, "kernel-quadrature covariance", ok, detail)


def test_criterion_03_half_hurst_degeneracy():
    c_half = normalization_constant(0.5)
    H = 0.5
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        s = rng.uniform(1e-6, 1.0)
        t = rng.uniform(s + 1e-9, 2.0)
        worst = max(worst, abs(kernel_eval(H, t, s) - 1.0))
    ok = c_half == 1.0 and worst == 0.0
    _report(3, "H=1/2 degeneracy", ok, f"c(1/2)={c_half!r}, max |K-1| = {worst:.1e}")


def test_criterion_04_group_isometry_and_bound():
    g = GridSpec(1, 64, math.pi)
    rng = np.random.default_rng(11)
    u = ComplexField(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    drift = 0.0
    for s in (0.0, 1.0, 1 + 2 * 0.7):
        a = sobolev_norm(u, s)
        b = sobolev_norm(apply_group(u, 0.6180339887), s)
        drift = max(drift, abs(a - b) / a)
    margin = oracles.group_deviation_margin(g, np.linspace(0.0, 0.95, 20), np.logspace(-2, 0, 20))
    ok = drift < 1e-12 and margin <= 1e-12
    _report(4, "group isometry and deviation bound", ok,
            f"isometry drift {drift:.1e}, worst bound margin {margin:.1e}")


def test_criterion_05_covariance_factorization():
    g = GridSpec(1, 8, math.pi)
    tg = TimeGrid(1.0, 8)
    ev = np.zeros(8)
    ev[[0, 1, 2, 7]] = [1.0, 0.7, 0.4, 0.7]  # 4 active modes
    spec = CorrelationSpec(grid=g, eigenvalues=ev)
    resid = 0.0
    for H in (0.55, 0.7):
        resid = max(resid, oracles.q_ll_residual(spec, H, tg))
    # Monte Carlo covariance against Q, elementwise within 5 standard errors
    H = 0.7
    sampler = ConvolutionSampler(spec, H, tg)
    Q = block_diag(*build_Q(spec, H, tg))  # the modes' blocks, zero across modes
    reps, n, nm = 20000, 8, 8
    X = np.empty((reps, nm * 2 * n))
    for i in range(reps):
        p = sampler.sample_mode_paths(seed=123, replicate=i)[1:]
        X[i] = np.concatenate([np.r_[p[:, j].real, p[:, j].imag] for j in range(nm)])
    C = (X.T @ X) / reps
    se = np.sqrt((np.outer(np.diag(Q), np.diag(Q)) + Q**2) / reps)
    max_z = float(np.max(np.abs(C - Q) / np.where(se > 0, se, np.inf)))
    zero_ok = bool(np.all(np.abs(C - Q)[se == 0] == 0.0))
    ok = resid < 1e-10 and max_z < 5.0 and zero_ok
    _report(5, "covariance factorization Q = LL*", ok,
            f"residual {resid:.1e} (< 1e-10), MC max |z| = {max_z:.2f} (< 5)")


def test_criterion_06_deterministic_solver():
    g = GridSpec(1, 64, math.pi)
    x = g.coordinates[0]
    # plane-wave exact solution at dt = 1e-3
    pw_err = oracles.plane_wave_error(g, 0.8, 2, 1.0, 1.0, 1.0, 1000)
    # conservation on a generic smooth datum, both signs
    prof = (0.7 * np.exp(-(x**2)) * (1 + 0.3 * np.cos(x))).astype(complex)
    mass_drift = ham_drift = 0.0
    for lam_c in (1.0, -1.0):
        nlc = NonlinearitySpec("kerr", lam_c, 1.0)
        tr = solve_mild(ComplexField(g, prof), nlc, None, 0.0, SolverConfig(T=1.0, n_steps=1000))
        first = tr.field(0)
        m0, mT = mass(first), mass(tr.terminal_field())
        h0 = hamiltonian(first, lam_c, 1.0)
        hT = hamiltonian(tr.terminal_field(), lam_c, 1.0)
        mass_drift = max(mass_drift, abs(mT - m0) / m0)
        ham_drift = max(ham_drift, abs(hT - h0) / abs(h0))
    # splitting order on the same datum (plane waves are integrated exactly)
    u0g = ComplexField(g, (np.exp(-(x**2)) * (1 + 0.3 * np.cos(x))).astype(complex))
    nlo = NonlinearitySpec("kerr", 1.0, 1.0)
    ref = solve_mild(u0g, nlo, None, 0.0, SolverConfig(T=1.0, n_steps=16000)).terminal_field()
    dts = [4e-3, 2e-3, 1e-3]
    errs = [
        l2_norm(solve_mild(u0g, nlo, None, 0.0, SolverConfig(T=1.0, n_steps=round(1 / dt))).terminal_field() - ref)
        for dt in dts
    ]
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = pw_err < 1e-6 and mass_drift < 1e-8 and ham_drift < 1e-6 and order >= 1.9
    _report(6, "deterministic solver", ok,
            f"plane wave {pw_err:.1e}, mass {mass_drift:.1e}, hamiltonian {ham_drift:.1e}, order {order:.2f}")


def test_criterion_07_linear_ldp_triangle():
    g = GridSpec(1, 8, math.pi)
    phis = np.array([0.2, 1.0, 0.05, 0.01, 0.005, 0.01, 0.05, 1.0])
    spec = CorrelationSpec(grid=g, eigenvalues=phis)
    cfg = SolverConfig(T=1.0, n_steps=16)
    lab = LdpLab(ComplexField.zero(g), None, spec, 0.7, cfg)

    blocks = terminal_covariance_blocks(lab.L)
    lmax = max(np.linalg.eigvalsh(b)[-1] for b in blocks)
    delta = math.sqrt(2 * 0.22 * lmax)
    ev = EventSpec("terminal-ball-exit", threshold=delta, sobolev_index=0.0)

    pinv_rate = lab.pinv_terminal_rate(delta)
    report = lab.rate_ladder(ev, [0.25, 0.16, 0.09, 0.04], replicates=20000, seed=1000)
    mc_slope = report.slope_value
    opt = lab.minimize_rate(ev, n_splines=8, budget=4000)

    def within(a, b):
        return abs(a - b) <= 0.25 * min(a, b)

    ok = (
        mc_slope is not None
        and opt.feasible
        and within(mc_slope, pinv_rate)
        and within(mc_slope, opt.rate)
        and within(pinv_rate, opt.rate)
    )
    _report(7, "linear rate triangle", ok,
            f"MC slope {mc_slope:.4f}, pseudo-inverse {pinv_rate:.4f}, "
            f"optimizer {opt.rate:.4f} (pairwise within 25%), p = "
            + ", ".join(f"{p:.2e}" for p in report.p_hats))


def test_criterion_08_holder_regularity():
    worst = 0.0
    for H in (0.3, 0.5, 0.7):
        grid = TimeGrid(1.0, 2**14)
        paths = sample_fbm_fast(H, grid, 5, seed=101)
        for i in range(5):
            worst = max(worst, abs(holder_exponent(paths[i]).exponent - H))
    # energy-norm regularity of the stochastic convolution at H = 0.7,
    # estimated over 20 paths (single-path fits carry ~0.05 sampling noise)
    g = GridSpec(1, 8, math.pi)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    sampler = ConvolutionSampler(spec, 0.7, TimeGrid(1.0, 2**10))
    w = 1.0 + g.xi_squared.reshape(-1)
    exps = [holder_exponent(sampler.sample_mode_paths(7, i), weights=w).exponent for i in range(20)]
    z_mean = float(np.mean(exps))
    ok = worst <= 0.08 and z_mean >= 0.6
    _report(8, "Holder regularity", ok,
            f"fBm recovery worst |err| = {worst:.3f} (<= 0.08), "
            f"convolution H^1 exponent over 20 paths = {z_mean:.3f} (>= 0.6)")


def test_criterion_09_support_proximity():
    g = GridSpec(1, 8, math.pi)
    spec = build_correlation(g, 4.0, 0.7, 0.2)
    cfg = SolverConfig(T=1.0, n_steps=16)
    x = g.coordinates[0]
    u0 = ComplexField(g, (0.5 * np.exp(1j * x)).astype(complex))
    nl = NonlinearitySpec("saturated", 1.0, 1.0, kappa=0.5)
    tg = TimeGrid(1.0, 16)
    paths = ConvolutionSampler(spec, 0.7, tg).sample_mode_path_batch(900, range(50))
    samples = solve_mild_batch(u0, nl, paths, 1.0, cfg)
    z = np.stack([replicate_stream(1234, i).standard_normal((8, 16)) for i in range(64)])
    family = solve_mild_batch(u0, nl, build_L(spec, 0.7, tg).apply_batch(z), 1.0, cfg)
    D = support_distance(g, samples, family)
    med8, med64 = np.median(D[:, :8].min(axis=1)), np.median(D.min(axis=1))
    ok = med64 <= med8
    _report(9, "support proximity", ok,
            f"median distance {med8:.4f} (family 8) -> {med64:.4f} (family 64), nonincreasing")


def test_criterion_10_cemetery_semantics(tmp_path):
    raw = {
        "kind": "solve", "T": 0.25, "n": 2000, "grid": {"N": 4096, "L": 2.0},
        "nl": {"kind": "kerr", "lam": 1, "sigma": 2},
        "u0": {"type": "gaussian", "amplitude": 8.0, "width": 0.25},
        "threshold": 1000.0, "snapshot_every": 1,
    }
    out = tmp_path / "focusing"
    run(parse_config(json.dumps(raw)), str(out))
    traj = json.loads((out / "trajectory.json").read_text())
    blown = traj["cemetery_index"] is not None and traj["blowup_time"] < 0.25
    post_ok = False
    if blown:
        k_star = traj["cemetery_index"]
        snaps = [int(p.name[6:12]) for p in out.glob("field_*.csv")]
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        flags = [int(r.split(",")[-1]) for r in rows]
        post_ok = max(snaps) < k_star and all(
            f == (1 if k >= k_star else 0) for k, f in enumerate(flags)
        )
    raw["nl"]["lam"] = -1
    out2 = tmp_path / "defocusing"
    run(parse_config(json.dumps(raw)), str(out2))
    traj2 = json.loads((out2 / "trajectory.json").read_text())
    twin_ok = traj2["cemetery_index"] is None
    ok = blown and post_ok and twin_ok
    _report(10, "cemetery semantics", ok,
            f"focusing blow-up at t={traj['blowup_time']}, post-cemetery serialization clean, "
            f"defocusing twin global")


def test_criterion_11_duality_and_restriction():
    H = 0.7
    tg = TimeGrid(1.0, 16)
    phi = np.zeros(16)
    phi[:8] = 1.0
    dual_err = oracles.duality_gap(H, phi, np.ones(16), tg)
    mid = tg.midpoints
    dual_err = max(dual_err, oracles.duality_gap(H, 1 + 0.5 * mid - 2 * mid**2, 0.3 - mid + 0.2 * mid**2, tg))
    rest_err = 0.0
    rng = np.random.default_rng(0)
    for H in (0.35, 0.7):
        rest_err = max(rest_err, oracles.restriction_gap(H, rng.normal(size=16), tg, 10))
    ok = dual_err < 1e-5 and rest_err < 1e-8
    _report(11, "duality and restriction", ok,
            f"duality gap {dual_err:.1e} (< 1e-5), restriction gap {rest_err:.1e} (< 1e-8)")
