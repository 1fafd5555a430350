import numpy as np
import pytest

from acflow import (
    Grid,
    KernelPoint,
    ScalarField,
    SolverConfig,
    Trajectory,
    WAVE_ENERGY,
    energy_density,
    evolve,
    gaussian_density,
    kernel_on_grid,
    l2_linfty_ratio,
    monotonicity_residual,
    radial_bump,
)
from acflow.operators import ball_mask

from conftest import standing_wave, circle_field


# --- kernel ----------------------------------------------------------------


# A box of extent 8 with spacing 1/16: every lattice coordinate and every
# displacement between lattice points is exact in binary, and the kernels
# below have decayed long before the periodic seam.
KERNEL_GRID = Grid(dim=2, extent=8.0, points=128)


def lattice_index(x: float) -> int:
    g = KERNEL_GRID
    i = round((x + 0.5 * g.extent) / g.spacing)
    assert g.axis()[i] == x
    return i


def kernel_at(kp, t, x):
    return kernel_on_grid(kp, KERNEL_GRID, t)[tuple(lattice_index(xi) for xi in x)]


def test_kernel_peak_value_n1():
    kp = KernelPoint(y=(0.0, 0.0), s=1.0, n=1)
    val = kernel_at(kp, 0.0, (0.0, 0.0))
    assert val == pytest.approx((4 * np.pi) ** -0.5, rel=1e-12)


def test_kernel_is_radially_symmetric():
    kp = KernelPoint(y=(0.3125, -0.1875), s=2.0, n=1)
    v = (0.125, -0.0625)
    plus = kernel_at(kp, 0.5, (0.3125 + v[0], -0.1875 + v[1]))
    minus = kernel_at(kp, 0.5, (0.3125 - v[0], -0.1875 - v[1]))
    assert plus == pytest.approx(minus, rel=1e-14)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_kernel_parabolic_scaling(lam):
    # Phi(lam x, -lam^2) = lam^-n Phi(x, -1)
    kp = KernelPoint(y=(0.0, 0.0), s=0.0, n=1)
    x = (0.375, -0.125)
    scaled = kernel_at(kp, -(lam**2), (lam * x[0], lam * x[1]))
    base = kernel_at(kp, -1.0, x)
    assert scaled == pytest.approx(base / lam, rel=1e-12)


def test_kernel_rejects_forward_time():
    kp = KernelPoint(y=(0.0,), s=1.0, n=0)
    with pytest.raises(ValueError):
        kernel_on_grid(kp, Grid(dim=1, extent=1.0, points=16), t=1.0)


def test_kernel_plane_quadrature_is_unity():
    # integral of the n-dimensional kernel over a hyperplane through y is 1,
    # for lags between the resolvability floor and the box-support ceiling
    g = Grid(dim=2, extent=1.28, points=256)
    for tau in (25 * g.spacing**2, 0.001, 0.003):
        kp = KernelPoint(y=(0.0, 0.0), s=tau, n=1)
        vals = kernel_on_grid(kp, g, t=0.0)
        row = vals[:, g.points // 2]  # the plane {x_v = 0}
        assert float(np.sum(row) * g.spacing) == pytest.approx(1.0, abs=1e-6)


# --- gaussian density ------------------------------------------------------


@pytest.fixture(scope="module")
def flat_wave_traj():
    # eps = 0.05 * sqrt(s - t) pairing from the density example, n = 1
    g = Grid(dim=2, extent=1.28, points=512)
    eps = 0.01
    f = standing_wave(g, eps)
    dt = 0.25 * eps**2
    cfg = SolverConfig(dt=dt, t_end=40 * dt, scheme="semi-implicit-cnab2", sample_every=8)
    return evolve(f, cfg)


def test_gaussian_density_of_flat_wave_is_wave_energy(flat_wave_traj):
    # the Gaussian mass along the layer cancels the kernel normalization
    traj = flat_wave_traj
    tau = 0.003
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + tau, n=1)
    d = gaussian_density(traj, kp, traj.times[-1])
    assert d.support_ok
    assert d.value == pytest.approx(WAVE_ENERGY, rel=0.02)


def test_gaussian_density_decays_with_plane_offset(flat_wave_traj):
    traj = flat_wave_traj
    tau = 0.003
    offset = 0.1
    kp = KernelPoint(y=(0.0, offset), s=traj.times[-1] + tau, n=1)
    d = gaussian_density(traj, kp, traj.times[-1])
    expected = WAVE_ENERGY * np.exp(-(offset**2) / (4 * tau))
    assert d.value == pytest.approx(expected, rel=0.02)


def test_gaussian_density_of_pure_phase_is_zero():
    g = Grid(dim=2, extent=1.28, points=64)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.05)
    traj = Trajectory(frames=(f,), dt_sample=1.0)
    kp = KernelPoint(y=(0.0, 0.0), s=1.0, n=1)
    assert gaussian_density(traj, kp, 0.0).value < 1e-12


def test_gaussian_density_support_flag():
    g = Grid(dim=2, extent=1.28, points=64)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.05)
    traj = Trajectory(frames=(f,), dt_sample=1.0)
    tight = gaussian_density(traj, KernelPoint(y=(0.0, 0.0), s=0.003, n=1), 0.0)
    assert tight.support_ok
    wide = gaussian_density(traj, KernelPoint(y=(0.0, 0.0), s=0.1, n=1), 0.0)
    assert not wide.support_ok


# --- monotonicity identity --------------------------------------------------


def test_residual_tiny_on_standing_wave(grid_1d):
    # the weight bump keeps the periodic companion layer out of every term;
    # the long lag suppresses the kernel drift at the studied layer
    wave = standing_wave(grid_1d, 0.05)
    dt = 2.5e-4
    cfg = SolverConfig(dt=dt, t_end=20 * dt, scheme="semi-implicit-cnab2", sample_every=5)
    traj = evolve(wave, cfg)
    kp = KernelPoint(y=(0.0,), s=traj.times[-1] + 20.0, n=0)
    rho = radial_bump(center=(0.0,), radius=0.8)
    res = monotonicity_residual(traj, kp, traj.times[2], rho)
    assert abs(res.dissipative_term) < 1e-6
    assert abs(res.discrepancy_term) < 1e-6
    assert abs(res.rho_tensor_term) < 1e-6
    assert abs(res.dvalue_dt) < 1e-6
    assert res.residual < 1e-6


def test_residual_small_on_shrinking_circle(circle_traj_short):
    traj = circle_traj_short
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + 0.01, n=1)
    t = traj.times[len(traj) // 2]
    res = monotonicity_residual(traj, kp, t)
    scale = max(abs(res.dissipative_term), abs(res.dvalue_dt))
    assert res.residual < 0.01 * scale


def test_residual_with_weight_function(circle_traj_short):
    traj = circle_traj_short
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + 0.01, n=1)
    rho = radial_bump(center=(0.0, 0.0), radius=0.5)
    t = traj.times[len(traj) // 2]
    res = monotonicity_residual(traj, kp, t, rho)
    scale = max(abs(res.dissipative_term), abs(res.dvalue_dt), abs(res.rho_tensor_term))
    assert res.residual < 0.01 * scale


def test_density_nonincreasing_on_shrinking_circle(circle_traj_short):
    traj = circle_traj_short
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + 0.01, n=1)
    values = [gaussian_density(traj, kp, t).value for t in traj.times]
    values = np.array(values)
    per_unit_time = np.diff(values) / traj.dt_sample
    assert np.all(per_unit_time <= 1e-3 * np.abs(values[:-1]))


def test_residual_rejects_endpoints(circle_traj_short):
    traj = circle_traj_short
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + 0.01, n=1)
    with pytest.raises(ValueError):
        monotonicity_residual(traj, kp, traj.times[0])


# --- L2-Linfty ratio ---------------------------------------------------------


def test_l2_linfty_pure_phase_returns_zero():
    g = Grid(dim=2, extent=1.28, points=64)
    frames = tuple(
        ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.05, time=0.01 * i)
        for i in range(8)
    )
    traj = Trajectory(frames=frames, dt_sample=0.01)
    assert l2_linfty_ratio(traj, radius=0.2) == 0.0


def test_l2_linfty_stable_across_epsilon():
    ratios = []
    for eps, n in ((0.05, 256), (0.025, 512)):
        g = Grid(dim=2, extent=1.28, points=n)
        wave = standing_wave(g, eps)
        dt_target = 0.125 * eps**2
        steps = int(np.ceil(0.045 / dt_target))
        steps += -steps % 15
        dt = 0.045 / steps
        cfg = SolverConfig(dt=dt, t_end=0.045, scheme="semi-implicit-cnab2",
                           sample_every=steps // 15)
        traj = evolve(wave, cfg)
        ratios.append(l2_linfty_ratio(traj, radius=0.2))
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0


def test_l2_linfty_masses_grow_with_interface_offset():
    # translate the layer upward: both sides of the ratio gain height mass
    g = Grid(dim=2, extent=1.28, points=256)
    eps = 0.05
    numerators, denominators = [], []
    for shift_cells in (0, 8, 16):
        wave = standing_wave(g, eps)
        shifted = wave.with_values(np.roll(wave.values, shift_cells, axis=-1))
        xv = np.broadcast_to(g.coords()[-1], g.shape)
        dens = energy_density(shifted).values
        kp = KernelPoint(y=(0.0, 0.0), s=0.01, n=1)
        phi = kernel_on_grid(kp, g, 0.0)
        inner = ball_mask(g, (0.0, 0.0), 0.1)
        outer = ball_mask(g, (0.0, 0.0), 0.2)
        numerators.append(float(np.sum((xv**2 * phi * dens)[inner])))
        denominators.append(float(np.sum((xv**2 * dens)[outer])))
    assert numerators[0] < numerators[1] < numerators[2]
    assert denominators[0] < denominators[1] < denominators[2]
