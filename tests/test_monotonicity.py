import numpy as np
import pytest

from acflow import (
    Grid,
    KernelPoint,
    ScalarField,
    SolverConfig,
    WAVE_ENERGY,
    evolve,
    gaussian_density,
    kernel_on_grid,
    monotonicity_residual,
)
from conftest import held, standing_wave


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
    cfg = SolverConfig(dt=dt, t_end=40 * dt, sample_every=8)
    return evolve(f, cfg)


def test_gaussian_density_of_flat_wave_is_wave_energy(flat_wave_traj):
    # the Gaussian mass along the layer cancels the kernel normalization
    traj = flat_wave_traj
    tau = 0.003
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + tau, n=1)
    d = gaussian_density(traj, kp, traj.times[-1])
    assert d == pytest.approx(WAVE_ENERGY, rel=0.02)


def test_gaussian_density_decays_with_plane_offset(flat_wave_traj):
    traj = flat_wave_traj
    tau = 0.003
    offset = 0.1
    kp = KernelPoint(y=(0.0, offset), s=traj.times[-1] + tau, n=1)
    d = gaussian_density(traj, kp, traj.times[-1])
    expected = WAVE_ENERGY * np.exp(-(offset**2) / (4 * tau))
    assert d == pytest.approx(expected, rel=0.02)


def test_gaussian_density_normalisation_for_a_two_dimensional_interface():
    # a flat layer in a 3-D box is the 2-D one extended along a second
    # horizontal axis; the n = 2 kernel's extra factor (4 pi tau)^(-1/2)
    # cancels the Gaussian integral along that axis, so the n = 2 density
    # equals the n = 1 one (a wrong power of 4 pi tau is off by 0.19)
    tau = 0.003
    values = {}
    for n in (1, 2):
        g = Grid(dim=n + 1, extent=1.28, points=64)
        traj = held(standing_wave(g, 4 * g.spacing), 1.0)
        values[n] = gaussian_density(traj, KernelPoint(y=(0.0,) * g.dim, s=tau, n=n), 0.0)
    assert values[2] == pytest.approx(values[1], rel=1e-12)


def test_gaussian_density_of_pure_phase_is_zero():
    g = Grid(dim=2, extent=1.28, points=64)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.05)
    traj = held(f, 1.0)
    kp = KernelPoint(y=(0.0, 0.0), s=1.0, n=1)
    assert gaussian_density(traj, kp, 0.0) < 1e-12


# --- monotonicity identity --------------------------------------------------


def residual(res):
    """The defect of the identity: measured d/dt against its right-hand side."""
    return abs(res.dvalue_dt - (res.dissipative_term + res.discrepancy_term))


def test_residual_tiny_on_standing_wave(grid_1d):
    # with no weight to cut it out, the periodic companion layer on the seam
    # enters every term through the kernel drift |x|/(2 lag): its dissipative
    # term reads 1.3e-3 at lag 20 and 1.3e-7 at lag 2000
    wave = standing_wave(grid_1d, 0.05)
    dt = 2.5e-4
    cfg = SolverConfig(dt=dt, t_end=20 * dt, sample_every=5)
    traj = evolve(wave, cfg)
    kp = KernelPoint(y=(0.0,), s=traj.times[-1] + 2000.0, n=0)
    res = monotonicity_residual(traj, kp, traj.times[2])
    assert abs(res.dissipative_term) < 1e-6
    assert abs(res.discrepancy_term) < 1e-6
    assert abs(res.dvalue_dt) < 1e-6
    assert residual(res) < 1e-6


def test_residual_small_on_shrinking_circle(circle_traj_short):
    traj = circle_traj_short
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + 0.01, n=1)
    t = traj.times[len(traj) // 2]
    res = monotonicity_residual(traj, kp, t)
    scale = max(abs(res.dissipative_term), abs(res.dvalue_dt))
    assert residual(res) < 0.01 * scale


def test_density_nonincreasing_on_shrinking_circle(circle_traj_short):
    traj = circle_traj_short
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + 0.01, n=1)
    values = [gaussian_density(traj, kp, t) for t in traj.times]
    values = np.array(values)
    per_unit_time = np.diff(values) / traj.dt_sample
    assert np.all(per_unit_time <= 1e-3 * np.abs(values[:-1]))


def test_residual_rejects_endpoints(circle_traj_short):
    traj = circle_traj_short
    kp = KernelPoint(y=(0.0, 0.0), s=traj.times[-1] + 0.01, n=1)
    with pytest.raises(ValueError):
        monotonicity_residual(traj, kp, traj.times[0])
