import dataclasses
import threading

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from acflow import (
    WAVE_ENERGY,
    FrameBundle,
    Grid,
    DiagnosticsRecord,
    Hyperplane,
    ParabolicCylinder,
    ScalarField,
    SolverConfig,
    brakke_residual,
    caccioppoli_ratio,
    diagnostics_record,
    divergence_defect,
    evolve,
    radial_bump,
    sobolev_defect,
    stress_energy,
    tilt_excess,
    height_excess,
    willmore,
)
from acflow import diagnostics
from acflow.diagnostics import _tilt_integrand, brakke_terms, brakke_weight
from acflow.io import write_diagnostics_csv
from acflow.operators import gradient_values
from acflow.solver import ac_residual_values

from conftest import standing_wave, circle_field, constant_one, held, traced_peak

# a sampling interval under the squared radius of every cylinder below, so
# that a held slice's two samples both lie in the window; a power of two, so
# that dividing a mass by it is exact
HELD_DT = 0.0625


def dirichlet_mass(field):
    g = gradient_values(field.grid, field.values)
    dens = field.epsilon * np.sum(g * g, axis=0)
    return float(np.sum(dens) * field.grid.cell_volume)


# --- pointwise densities ---------------------------------------------------


def test_energy_density_peak_of_standing_wave():
    # eps |u'|^2/2 + W(u)/eps at the crossing = 1/(2 eps) + 1/(2 eps)
    g = Grid(dim=1, extent=2.56, points=1024)
    wave = standing_wave(g, 0.1)
    dens = FrameBundle(wave).energy_density
    i0 = np.argmin(np.abs(g.axis()))
    assert dens[i0] == pytest.approx(10.0, rel=1e-6)


def test_energy_density_vanishes_in_wells():
    g = Grid(dim=2, extent=1.0, points=32)
    for val in (-1.0, 1.0):
        f = ScalarField(grid=g, values=np.full(g.shape, val), epsilon=0.1)
        assert np.max(FrameBundle(f).energy_density) < 1e-12


def test_line_energy_equals_wave_energy(wave_1d):
    # independent oracle: alpha = integral of (1 - s^2) over (-1, 1) = 4/3
    alpha, _ = scipy_integrate.quad(lambda s: 1.0 - s * s, -1.0, 1.0)
    g = wave_1d.grid
    window = np.abs(g.axis()) <= 0.25 * g.extent
    dens = FrameBundle(wave_1d).energy_density
    measured = float(np.sum(dens[window]) * g.spacing)
    assert measured == pytest.approx(alpha, abs=1e-6)
    assert alpha == pytest.approx(WAVE_ENERGY, abs=1e-15)


def test_discrepancy_of_wave_and_constants():
    g = Grid(dim=1, extent=2.56, points=1024)
    wave = standing_wave(g, 0.05)
    assert np.max(np.abs(FrameBundle(wave).discrepancy)) < 1e-8

    zero = ScalarField(grid=g, values=np.zeros(g.shape), epsilon=0.1)
    assert np.allclose(FrameBundle(zero).discrepancy, -5.0, atol=1e-12)

    one = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1)
    assert np.max(np.abs(FrameBundle(one).discrepancy)) < 1e-12


# --- tilt excess -----------------------------------------------------------


def test_tilt_vanishes_along_the_layer_normal(wave_2d):
    assert tilt_excess(FrameBundle(wave_2d), (0.0, 1.0)) < 1e-10


def test_tilt_orthogonal_direction_gives_full_dirichlet_mass(wave_2d):
    full = dirichlet_mass(wave_2d)
    assert tilt_excess(FrameBundle(wave_2d), (1.0, 0.0)) == pytest.approx(full, rel=1e-10)


@pytest.mark.parametrize("beta", [0.1, 0.35, 1.0])
def test_tilt_at_angle_scales_with_sin_squared(wave_2d, beta):
    e = (np.sin(beta), np.cos(beta))
    full = dirichlet_mass(wave_2d)
    tilt = tilt_excess(FrameBundle(wave_2d), e)
    assert tilt == pytest.approx(np.sin(beta) ** 2 * full, rel=1e-9)


def test_tilt_invariant_under_direction_flip(wave_2d):
    e = (0.3, 0.9539392014169456)
    flipped = tilt_excess(FrameBundle(wave_2d), tuple(-c for c in e))
    assert tilt_excess(FrameBundle(wave_2d), e) == pytest.approx(flipped, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_tilt_plus_aligned_part_is_dirichlet_mass(seed):
    # pointwise algebraic identity (1 - (nu.e)^2) + (nu.e)^2 = 1
    rng = np.random.default_rng(seed)
    g = Grid(dim=2, extent=1.2, points=64)
    X, Y = g.dense_coords()
    vals = np.tanh(np.sin(2 * np.pi * X / 1.2) * np.cos(2 * np.pi * Y / 1.2) / 0.5)
    f = ScalarField(grid=g, values=vals, epsilon=0.05)
    e = rng.standard_normal(2)
    e /= np.linalg.norm(e)
    grad = gradient_values(g, f.values)
    gsq = np.sum(grad * grad, axis=0)
    gnorm = np.sqrt(gsq)
    floor = 1e-8 * gnorm.max()
    ok = gnorm > floor
    aligned = np.where(ok, (e[0] * grad[0] + e[1] * grad[1]) ** 2 / np.where(ok, gsq, 1.0), 0.0)
    aligned_mass = float(np.sum(aligned * f.epsilon * gsq * ok) * g.cell_volume)
    total = float(np.sum(f.epsilon * gsq[ok]) * g.cell_volume)
    assert tilt_excess(FrameBundle(f), tuple(e)) + aligned_mass == pytest.approx(total, rel=1e-10)


# --- height excess ---------------------------------------------------------


def test_height_excess_of_centered_wave_matches_profile_moment(wave_1d):
    # oracle: integral of y^2 sech^4(y) dy, scaled by eps^2 (the integrand is
    # below double precision beyond |y| = 40)
    moment, _ = scipy_integrate.quad(lambda y: y * y / np.cosh(y) ** 4, -40.0, 40.0)
    g = wave_1d.grid
    eps = wave_1d.epsilon
    window = np.abs(g.axis()) <= 0.25 * g.extent
    grad = gradient_values(g, wave_1d.values)[0]
    measured = float(np.sum((g.axis() ** 2 * eps * grad**2)[window]) * g.spacing)
    plane = Hyperplane.vertical(1)
    region = ParabolicCylinder(center_space=(0.0,), center_time=0.0, radius=0.25 * g.extent)
    n = g.interface_dim
    mass = height_excess(held(wave_1d, HELD_DT), plane, region) * region.radius ** (n + 4)
    via_op = mass / HELD_DT
    assert via_op == pytest.approx(measured, rel=1e-6)
    assert via_op == pytest.approx(eps**2 * moment, rel=1e-4)


def test_height_excess_translation_invariance(wave_1d):
    g = wave_1d.grid
    shift_cells = 37
    shifted = wave_1d.with_values(np.roll(wave_1d.values, shift_cells))
    lam = shift_cells * g.spacing
    plane0 = Hyperplane.vertical(1)
    plane_lam = Hyperplane(normal=(1.0,), offset=lam)
    r = ParabolicCylinder(center_space=(0.0,), center_time=0.0, radius=0.3)
    r_shift = ParabolicCylinder(center_space=(lam,), center_time=0.0, radius=0.3)
    a = height_excess(held(wave_1d, HELD_DT), plane0, r)
    b = height_excess(held(shifted, HELD_DT), plane_lam, r_shift)
    assert b == pytest.approx(a, rel=1e-8)


def test_height_excess_of_constant_vanishes():
    g = Grid(dim=2, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.full(g.shape, 0.3), epsilon=0.1)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.3)
    assert height_excess(held(f, HELD_DT), Hyperplane.vertical(2), region) == pytest.approx(
        0.0, abs=1e-20)


# --- willmore --------------------------------------------------------------


def test_willmore_vanishes_on_stationary_states(wave_1d):
    g = wave_1d.grid
    # the box holds the studied layer and its companion on the seam
    assert willmore(FrameBundle(wave_1d)) < 1e-12
    one = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.05)
    assert willmore(FrameBundle(one)) < 1e-20


def test_willmore_of_shrinking_circle_matches_curvature_mass(grid_2d):
    # sharp-interface oracle: alpha * 2 pi R * (1/R^2) per unit time
    eps, R = 0.02, 0.3
    f = circle_field(grid_2d, eps, R)
    dt = 0.125 * eps**2
    cfg = SolverConfig(dt=dt, t_end=40 * dt, sample_every=4)
    traj = evolve(f, cfg)
    weights = np.full(len(traj), traj.dt_sample)
    weights[[0, -1]] = 0.5 * traj.dt_sample
    measured = sum(w * willmore(FrameBundle(frame)) for w, frame in zip(weights, traj.frames))
    window = traj.times[-1] - traj.times[0]
    expected = WAVE_ENERGY * 2 * np.pi * R * (1.0 / R**2) * window
    assert measured == pytest.approx(expected, rel=0.10)


# --- stress-energy tensor --------------------------------------------------


def test_divergence_identity_on_standing_wave(wave_1d):
    assert divergence_defect(wave_1d) < 1e-6


def test_divergence_identity_on_constant():
    g = Grid(dim=2, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.full(g.shape, 0.5), epsilon=0.2)
    assert divergence_defect(f) < 1e-12


def smooth_random_field(n: int, seed: int = 11) -> ScalarField:
    """Analytic, non-band-limited periodic field: same continuum function
    sampled at every resolution."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(3)
    phases = rng.uniform(0, 2 * np.pi, 3)
    g = Grid(dim=2, extent=1.0, points=n)
    X, Y = g.dense_coords()
    f = (
        amps[0] * np.sin(2 * np.pi * X + phases[0])
        + amps[1] * np.cos(4 * np.pi * Y + phases[1])
        + amps[2] * np.sin(2 * np.pi * (X + Y) + phases[2])
    )
    return ScalarField(grid=g, values=np.tanh(f), epsilon=0.5)


def test_divergence_defect_decreases_at_spectral_rate():
    defects = [divergence_defect(smooth_random_field(n)) for n in (32, 64, 128)]
    assert defects[1] < defects[0] / 4
    assert defects[2] < defects[1] / 4


def test_stress_energy_is_symmetric(wave_2d):
    T = stress_energy(FrameBundle(wave_2d))
    assert np.allclose(T[0, 1], T[1, 0])


# --- integral evolution identity -------------------------------------------


@pytest.fixture()
def circle_traj(circle_traj_short):
    return circle_traj_short


def test_brakke_constant_weight_reduces_to_energy_dissipation(circle_traj):
    t = circle_traj.times[5]
    res = brakke_residual(circle_traj, constant_one(), t)
    # gradient and tensor forms coincide exactly when grad phi = hess phi = 0
    assert res.rhs_gradient_form == res.rhs_tensor_form
    frame = circle_traj[5]
    manual = -frame.epsilon * float(
        np.sum(ac_residual_values(frame) ** 2) * frame.grid.cell_volume
    )
    assert res.rhs_gradient_form == pytest.approx(manual, rel=1e-12)


def test_brakke_residual_vanishes_on_standing_wave(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    dt = 2.5e-4
    cfg = SolverConfig(dt=dt, t_end=20 * dt, sample_every=5)
    traj = evolve(wave, cfg)
    phi = radial_bump(center=(0.0,), radius=0.5)
    res = brakke_residual(traj, phi, traj.times[2])
    scale = float(np.sum(FrameBundle(wave).energy_density) * grid_1d.cell_volume) / dt
    assert abs(res.dmu_dt - res.rhs_gradient_form) < 1e-8 * scale
    assert abs(res.dmu_dt - res.rhs_tensor_form) < 1e-8 * scale


def test_brakke_forms_agree_on_moving_interface(circle_traj):
    phi = radial_bump(center=(0.0, 0.0), radius=0.45)
    t = circle_traj.times[len(circle_traj) // 2]
    res = brakke_residual(circle_traj, phi, t)
    assert res.dmu_dt != 0.0
    assert res.rhs_gradient_form == pytest.approx(res.rhs_tensor_form, rel=1e-8)
    assert abs(res.dmu_dt - res.rhs_gradient_form) < 0.01 * abs(res.dmu_dt)


def test_brakke_residual_rejects_endpoints(circle_traj):
    with pytest.raises(ValueError):
        brakke_residual(circle_traj, constant_one(), circle_traj.times[0])
    with pytest.raises(ValueError):
        brakke_residual(circle_traj, constant_one(), circle_traj.times[-1])


def _contraction_brakke_terms(b, phi, grad_phi, hess_phi):
    """The Brakke terms as they were formed from the weight's values,
    stacked gradient and Hessian, with the pointwise stress contraction
    ``T : H = eps grad u . H grad u - e tr H``: the oracle of the library's
    per-flow weight."""
    eps, vol, dim = b.field.epsilon, b.field.grid.cell_volume, b.field.grid.dim
    r, g = b.residual, b.gradient
    hess_gg = sum(g[i] * sum(hess_phi[i, j] * g[j] for j in range(dim)) for i in range(dim))
    trace = sum(hess_phi[i, i] for i in range(dim))
    contraction = eps * hess_gg - b.energy_density * trace
    dissip = -eps * float(np.sum(phi * r * r) * vol)
    transport = -eps * float(np.sum(np.sum(grad_phi * g, axis=0) * r) * vol)
    tensor = float(np.sum(contraction) * vol)
    mass = float(np.sum(phi * b.energy_density) * vol)
    return mass, dissip + transport, dissip + tensor


def _moving_layer(dim, points):
    """A layer that is not a stationary profile, so that every Brakke term
    is nonzero: in 1-D a flat layer read at 1.5 times its own eps, else
    :func:`_round_layer`."""
    if dim > 1:
        return _round_layer(dim, points)
    grid = Grid(dim=1, extent=1.2, points=points)
    wave = standing_wave(grid, 4.0 * grid.spacing)
    return ScalarField(grid=grid, values=wave.values, epsilon=1.5 * wave.epsilon, time=0.0)


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64), (3, 32)])
def test_brakke_terms_match_the_stress_contraction(dim, points):
    # The mass and the gradient form are summed as before, bit for bit; the
    # tensor form reads the weight's A = D^2 phi - (tr D^2 phi / 2) I and
    # rounds differently.
    field = _moving_layer(dim, points)
    bump = radial_bump(center=(0.1,) * dim, radius=0.5)
    grid = field.grid
    mass, gradient_form, tensor_form = brakke_terms(FrameBundle(field), brakke_weight(bump, grid))
    oracle = _contraction_brakke_terms(FrameBundle(field), bump.value(grid), bump.gradient(grid),
                                       bump.hessian(grid))
    assert (mass, gradient_form) == oracle[:2]
    assert tensor_form == pytest.approx(oracle[2], rel=1e-12)


def test_a_bundle_never_waits_on_another_threads_bundle(monkeypatch, wave_2d):
    # Thread A is held inside its bundle's gradient; thread B, building the
    # gradient of another bundle, must not wait for it.  A is released in
    # any case, so the test cannot hang.
    entered, release, b_done = threading.Event(), threading.Event(), threading.Event()
    real = diagnostics.gradient_from_hat

    def held_in_thread_a(grid, u_hat):
        if threading.current_thread() is thread_a:
            entered.set()
            release.wait(10.0)
        return real(grid, u_hat)

    monkeypatch.setattr(diagnostics, "gradient_from_hat", held_in_thread_a)
    thread_a = threading.Thread(target=lambda: FrameBundle(wave_2d).gradient)
    thread_b = threading.Thread(target=lambda: (FrameBundle(wave_2d).gradient, b_done.set()))
    thread_a.start()
    try:
        assert entered.wait(10.0)
        thread_b.start()
        assert b_done.wait(2.0), "a bundle waited on another thread's bundle"
    finally:
        release.set()
        for thread in (thread_a, thread_b):
            if thread.ident is not None:  # started
                thread.join(10.0)
    assert not thread_a.is_alive() and not thread_b.is_alive()


# --- inequality ratios -----------------------------------------------------


def test_caccioppoli_aligned_wave_gives_zero():
    # well-resolved layer: both tilt and discrepancy sit at round-off
    g = Grid(dim=2, extent=2.56, points=512)
    wave = standing_wave(g, 0.05)
    plane = Hyperplane.vertical(2)
    assert caccioppoli_ratio(wave, plane, radius=0.5) == pytest.approx(0.0, abs=1e-7)


def test_caccioppoli_tilted_plane_stable_under_refinement():
    slope = 0.05
    beta = np.arctan(slope)
    plane = Hyperplane(normal=(np.sin(beta), np.cos(beta)))
    ratios = []
    for n in (128, 256):
        g = Grid(dim=2, extent=1.2, points=n)
        wave = standing_wave(g, 0.03)
        ratios.append(caccioppoli_ratio(wave, plane, radius=0.25))
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0


def test_caccioppoli_translation_invariance(wave_2d):
    plane = Hyperplane.vertical(2)
    g = wave_2d.grid
    shift = 17
    rolled = wave_2d.with_values(np.roll(wave_2d.values, shift, axis=1))
    lam = shift * g.spacing
    a = caccioppoli_ratio(wave_2d, plane, radius=0.25)
    b = caccioppoli_ratio(
        rolled, Hyperplane(normal=(0.0, 1.0), offset=lam), radius=0.25,
        center=(0.0, lam),
    )
    assert b == pytest.approx(a, abs=1e-8)


def test_sobolev_defect_exact_wave_is_quadrature_level(wave_1d):
    assert sobolev_defect(wave_1d, radius=6 * wave_1d.epsilon) < 1e-4


def test_sobolev_defect_flat_wave_3d_within_tolerance_and_decreasing():
    diffs = []
    for eps in (0.05, 0.035):
        g = Grid(dim=3, extent=1.2, points=96)
        wave = standing_wave(g, eps)
        alpha_omega = WAVE_ENERGY * np.pi  # omega_2 = pi
        diffs.append(sobolev_defect(wave, radius=0.18) / alpha_omega)
    assert diffs[0] < 0.05
    assert diffs[1] < diffs[0]


def test_sobolev_defect_circle_dominated_by_curvature():
    # larger circles look flatter: the defect at fixed ball radius shrinks.
    # oracle: arc/chord excess (2R/r) asin(r/(2R)) - 1 minus the layer-tail
    # mass the ball misses (profile fraction F through a disk chord).
    def profile_fraction(w):
        t = np.tanh(w)
        return (3 * t - t**3) / 2

    r, eps = 0.15, 0.02
    truncation, _ = scipy_integrate.quad(
        lambda s: 1.0 - profile_fraction(r / eps * np.sqrt(1 - s * s)), 0.0, 1.0
    )
    diffs, oracles = [], []
    for R in (0.2, 0.4):
        g = Grid(dim=2, extent=1.2, points=256)
        f = circle_field(g, eps, R)
        diffs.append(sobolev_defect(f, radius=r, center=(R, 0.0)) / (WAVE_ENERGY * 2.0))
        oracles.append(2 * R / r * np.arcsin(r / (2 * R)) - 1.0 - truncation)
    assert diffs[1] < diffs[0]
    assert diffs[0] == pytest.approx(oracles[0], rel=0.25)


def test_nonpositive_discrepancy_bounds_dirichlet_by_energy(wave_2d):
    # eps |grad u|^2 = energy + discrepancy <= 2 * energy when xi <= 0
    grad = gradient_values(wave_2d.grid, wave_2d.values)
    dirichlet = wave_2d.epsilon * np.sum(grad * grad, axis=0)
    b = FrameBundle(wave_2d)
    dens, xi = b.energy_density, b.discrepancy
    mask = xi <= 0
    assert np.all(dirichlet[mask] <= 2 * dens[mask] + 1e-14)


def test_height_excess_best_offset_beats_zero_offset(wave_1d):
    g = wave_1d.grid
    shift = 23 * g.spacing
    shifted = wave_1d.with_values(np.roll(wave_1d.values, 23))
    region = ParabolicCylinder(center_space=(shift,), center_time=0.0, radius=0.3)
    traj = held(shifted, HELD_DT)
    centered = height_excess(traj, Hyperplane(normal=(1.0,), offset=shift), region)
    uncentered = height_excess(traj, Hyperplane(normal=(1.0,), offset=0.0), region)
    assert centered <= uncentered


# --- record rows -----------------------------------------------------------


def test_diagnostics_record_row_and_csv(tmp_path, wave_2d):
    # the csv header is the record's fields, in their order
    columns = [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    rec = diagnostics_record(wave_2d)
    assert list(dataclasses.asdict(rec)) == columns
    assert rec.energy > 0
    assert rec.tilt_excess >= 0
    path = tmp_path / "diag.csv"
    write_diagnostics_csv([rec], path)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(columns)
    assert len(text) == 2


def test_diagnostics_record_rejects_negative_energy():
    with pytest.raises(ValueError):
        DiagnosticsRecord(
            time=0.0, energy=-1.0, tilt_excess=0.0,
            willmore=0.0, discrepancy_l1=0.0, discrepancy_max=0.0,
        )


def _tensordot_tilt_integrand(b, direction):
    """The tilt integrand as it was formed with a BLAS contraction
    (``np.tensordot``) for the normal component: the oracle of the
    elementwise sum the library uses."""
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    gnorm = np.sqrt(b.grad_sq)
    floor = 1e-8 * float(np.max(gnorm))
    ge = np.tensordot(e, b.gradient, axes=(0, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_sq = np.where(gnorm > floor, (ge / np.where(gnorm > floor, gnorm, 1.0)) ** 2, 0.0)
    return np.where(gnorm > floor, (1.0 - cos_sq) * b.field.epsilon * b.grad_sq, 0.0)


def _one_bundle_row(field):
    """A diagnostics row from one bundle that keeps every cached array, with
    the tensordot tilt: the oracle of the row that drops each array after
    its last use."""
    b, vol = FrameBundle(field), field.grid.cell_volume
    vertical = Hyperplane.vertical(field.grid.dim).normal
    return DiagnosticsRecord(
        time=field.time,
        energy=float(np.sum(b.energy_density) * vol),
        tilt_excess=float(np.sum(_tensordot_tilt_integrand(b, vertical)) * vol),
        willmore=willmore(b),
        discrepancy_l1=float(np.sum(np.abs(b.discrepancy)) * vol),
        discrepancy_max=float(np.max(b.discrepancy)),
    )


def _round_layer(dim, points):
    """A circle (sphere) of radius 0.35, whose normal takes every direction;
    eps = 4 spacings."""
    grid = Grid(dim=dim, extent=1.2, points=points)
    return circle_field(grid, 4.0 * grid.spacing, 0.35)


@pytest.mark.parametrize("dim, points", [(2, 64), (3, 48)])
def test_diagnostics_record_equals_the_one_bundle_row(dim, points):
    field = _round_layer(dim, points)
    assert diagnostics_record(field) == _one_bundle_row(field)


@pytest.mark.parametrize("dim, points", [(2, 256), (3, 48)])
def test_a_diagnostics_row_holds_no_stacked_gradient(dim, points):
    # A row of a plain field takes its partial derivatives one at a time.
    # Its traced peak, with the grid's spectral symbols already cached, is
    # measured at 6.14 frames in 2-D and 6.17 in 3-D, a margin of 0.86 and
    # 0.83 frames; the same code forming the stacked gradient read 8.14 and
    # 9.17 frames.
    field = _round_layer(dim, points)
    frame_bytes = 8 * points**dim
    diagnostics_record(field)  # caches the grid's symbols
    peak = traced_peak(lambda: diagnostics_record(field))
    assert peak < 7 * frame_bytes, f"traced peak {peak / frame_bytes:.2f} frames"


@pytest.mark.parametrize("dim, points", [(2, 64), (3, 48)])
def test_tilt_integrand_equals_the_tensordot_form(dim, points):
    b = FrameBundle(_round_layer(dim, points))
    vertical = Hyperplane.vertical(dim).normal
    assert np.array_equal(_tilt_integrand(b, vertical), _tensordot_tilt_integrand(b, vertical))
    # In a random direction the sum rounds differently from the BLAS
    # contraction.  The integrand is (1 - cos^2) eps |grad u|^2, so its
    # round-off is relative to eps |grad u|^2: where the normal is nearly
    # parallel to e, 1 - cos^2 cancels and the two forms differ by up to
    # 3.7e-12 of the integrand itself (measured), but by at most 1e-15 of
    # eps |grad u|^2.
    dirichlet = b.field.epsilon * b.grad_sq
    rng = np.random.default_rng(dim)
    for _ in range(4):
        e = rng.standard_normal(dim)
        diff = np.abs(_tilt_integrand(b, e) - _tensordot_tilt_integrand(b, e))
        assert np.all(diff <= 1e-12 * dirichlet)


@pytest.mark.parametrize("dim, points", [(2, 64), (3, 48)])
def test_the_tilt_of_a_bundle_holding_its_gradient_is_the_stacked_sum(dim, points):
    # The tilt takes one partial derivative at a time even when the bundle
    # already holds the stacked gradient; the grad_sq it caches is bit for
    # bit the stacked sum, and the integrand is the tensordot form's.
    b = FrameBundle(_round_layer(dim, points))
    stacked = b.gradient
    vertical = Hyperplane.vertical(dim).normal
    tilt = _tilt_integrand(b, vertical)
    assert np.array_equal(b.grad_sq, np.sum(stacked**2, axis=0))
    assert np.array_equal(tilt, _tensordot_tilt_integrand(b, vertical))
    dirichlet = b.field.epsilon * b.grad_sq
    rng = np.random.default_rng(dim)
    for _ in range(4):
        e = rng.standard_normal(dim)
        diff = np.abs(_tilt_integrand(b, e) - _tensordot_tilt_integrand(b, e))
        assert np.all(diff <= 1e-12 * dirichlet)
