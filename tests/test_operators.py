import numpy as np
import pytest

from acflow import Grid, ParabolicCylinder, ScalarField, Trajectory, gradient, integrate, laplacian
from acflow.operators import ball_mask, gradient_values, laplacian_values

from conftest import standing_wave


def field_1d(values, extent=1.0, eps=0.1):
    g = Grid(dim=1, extent=extent, points=len(values))
    return ScalarField(grid=g, values=values, epsilon=eps)


def test_gradient_of_single_mode_matches_analytic():
    g = Grid(dim=1, extent=1.0, points=256)
    x = g.axis()
    f = ScalarField(grid=g, values=np.sin(2 * np.pi * x), epsilon=0.1)
    (dx,) = gradient(f)
    assert np.max(np.abs(dx.values - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12


def test_gradient_of_constant_is_zero():
    g = Grid(dim=2, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.full(g.shape, 0.7), epsilon=0.1)
    for comp in gradient(f):
        assert np.max(np.abs(comp.values)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("eps_over_h", [8, 16])
def test_gradient_of_layer_profile_resolved(eps_over_h):
    g = Grid(dim=1, extent=2.0, points=2048)
    eps = eps_over_h * g.spacing
    wave = standing_wave(g, eps)
    (dx,) = gradient(wave)
    x = g.axis()
    # analytic derivative of the studied layer, away from the companion seam
    inner = np.abs(x) <= 0.25 * g.extent
    exact = (1.0 / np.cosh(x / eps)) ** 2 / eps
    assert np.max(np.abs(dx.values[inner] - exact[inner])) < 1e-8


def _full_wavenumbers(grid, zero_nyquist):
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    if zero_nyquist:
        k1[grid.points // 2] = 0.0
    out = []
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.points
        out.append(k1.reshape(shape))
    return out


def complex_gradient(grid, values):
    """Reference: the full complex-FFT gradient, Nyquist zeroed on every axis."""
    vhat = np.fft.fftn(values)
    out = np.empty((grid.dim,) + grid.shape)
    for ax, k in enumerate(_full_wavenumbers(grid, zero_nyquist=True)):
        out[ax] = np.fft.ifftn(1j * k * vhat).real
    return out


def complex_laplacian(grid, values):
    """Reference: the full complex-FFT Laplacian, Nyquist kept."""
    k2 = sum(k * k for k in _full_wavenumbers(grid, zero_nyquist=False))
    return np.fft.ifftn(-k2 * np.fft.fftn(values)).real


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 32), (3, 16)])
def test_real_spectral_path_matches_complex_oracle(dim, points):
    g = Grid(dim=dim, extent=1.3, points=points)
    rng = np.random.default_rng(dim)
    # white noise excites every mode, odd and Nyquist ones included; add a
    # strong Nyquist mode along each axis on top
    values = rng.standard_normal(g.shape)
    for x in g.coords():
        values = values + 3.0 * np.cos(np.pi * x / g.spacing)
    grad, grad_ref = gradient_values(g, values), complex_gradient(g, values)
    lap, lap_ref = laplacian_values(g, values), complex_laplacian(g, values)
    assert np.max(np.abs(grad - grad_ref)) <= 1e-13 * np.max(np.abs(grad_ref))
    assert np.max(np.abs(lap - lap_ref)) <= 1e-13 * np.max(np.abs(lap_ref))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nyquist_mode_has_zero_first_derivative(dim):
    g = Grid(dim=dim, extent=1.0, points=16)
    last = g.coords()[-1]  # the half-spectrum axis of the real transforms
    values = np.broadcast_to(np.cos(np.pi * last / g.spacing), g.shape)
    assert np.max(np.abs(gradient_values(g, values))) < 1e-12
    assert np.max(np.abs(laplacian_values(g, values))) > 1.0


def test_laplacian_single_mode_and_linearity():
    g = Grid(dim=1, extent=1.0, points=256)
    x = g.axis()
    u1 = np.sin(2 * np.pi * x)
    u2 = np.cos(6 * np.pi * x)
    f12 = ScalarField(grid=g, values=3 * u1 + u2, epsilon=0.1)
    lap = laplacian(f12).values
    exact = -3 * (2 * np.pi) ** 2 * u1 - (6 * np.pi) ** 2 * u2
    assert np.max(np.abs(lap - exact)) < 1e-9


def test_laplacian_of_constant_is_zero():
    g = Grid(dim=3, extent=1.0, points=16)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1)
    assert np.max(np.abs(laplacian(f).values)) < 1e-13


def test_integrate_constant_over_box_with_time_window():
    g = Grid(dim=2, extent=2.0, points=64)
    ones = lambda t: ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1, time=t)
    traj = Trajectory(frames=tuple(ones(0.1 * i) for i in range(6)), dt_sample=0.1)
    # area 4, time window 0.5
    assert integrate(traj) == pytest.approx(4.0 * 0.5, rel=1e-12)


def test_integrate_disk_area_first_order():
    g = Grid(dim=2, extent=2.0, points=256)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.5)
    area = integrate(f, region)
    assert abs(area - np.pi * 0.25) < 4 * g.spacing


def test_integrate_odd_density_over_symmetric_ball_vanishes():
    g = Grid(dim=2, extent=2.0, points=128)
    X, Y = g.dense_coords()
    f = ScalarField(grid=g, values=X + 100.0, epsilon=0.1)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.5)
    mask = ball_mask(g, (0.0, 0.0), 0.5)
    odd_part = integrate(f, region) - 100.0 * np.sum(mask) * g.cell_volume
    assert abs(odd_part) < 1e-12


def test_integrate_rejects_oversized_ball():
    g = Grid(dim=2, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.6)
    with pytest.raises(ValueError):
        integrate(f, region)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integrate_is_linear_in_density(seed):
    rng = np.random.default_rng(seed)
    g = Grid(dim=1, extent=2.0, points=64)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    c = float(rng.standard_normal())
    fa = ScalarField(grid=g, values=a, epsilon=0.1)
    fb = ScalarField(grid=g, values=b, epsilon=0.1)
    fab = ScalarField(grid=g, values=a + c * b, epsilon=0.1)
    assert integrate(fab) == pytest.approx(integrate(fa) + c * integrate(fb), rel=1e-12, abs=1e-12)


def test_integrate_additive_over_disjoint_time_windows():
    g = Grid(dim=1, extent=2.0, points=64)
    rng = np.random.default_rng(3)
    frames = tuple(
        ScalarField(grid=g, values=rng.standard_normal(64) + 2.0, epsilon=0.1, time=0.25 * i)
        for i in range(9)
    )
    traj = Trajectory(frames=frames, dt_sample=0.25)
    # [0,1] and [1,2] share only the t=1 sample; trapezoid masses add exactly
    w1 = integrate(traj.window(0.0, 1.0))
    w2 = integrate(traj.window(1.0, 2.0))
    w = integrate(traj)
    assert w == pytest.approx(w1 + w2, rel=1e-12)
