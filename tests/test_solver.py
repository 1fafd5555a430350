import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acflow import (
    Grid,
    ScalarField,
    SolverConfig,
    SolverConfigError,
    InterfaceDataError,
    ac_residual,
    energy_density,
    discrepancy,
    evolve,
    integrate,
    prepare_interface,
    step,
)
from acflow.initial_data import circle_distance, plane_pair_distance
from acflow.solver import SCHEMES, _Stepper, step_count

from conftest import standing_wave, circle_field, zero_crossing_radius


# --- right-hand side -------------------------------------------------------


def test_residual_vanishes_on_standing_wave(wave_1d):
    # interior = near the studied layer, away from the saturated fold of the
    # companion construction
    r = ac_residual(wave_1d)
    x = wave_1d.grid.axis()
    inner = np.abs(x) <= wave_1d.grid.extent / 8
    assert np.max(np.abs(r.values[inner])) < 1e-7


def test_residual_vanishes_in_pure_phase():
    g = Grid(dim=2, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1)
    assert np.max(np.abs(ac_residual(f).values)) < 1e-12


def test_residual_matches_hand_value_on_constant():
    # d/du of the double well at 0.5 is -2*0.5*(1-0.25) = -0.75
    g = Grid(dim=1, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.full(32, 0.5), epsilon=1.0)
    assert np.allclose(ac_residual(f).values, 0.75, atol=1e-12)


# --- stepping --------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_standing_wave_is_a_fixed_point(scheme, grid_1d):
    wave = standing_wave(grid_1d, epsilon=0.05)
    limit = {"semi-implicit-spectral": 0.5, "semi-implicit-cnab2": 1.0 / 3.0, "explicit-rk2": 0.05}
    dt = 0.5 * limit[scheme] * 0.05**2
    if scheme == "explicit-rk2":
        dt = min(dt, 0.1 * grid_1d.spacing**2)
    cfg = SolverConfig(dt=dt, t_end=dt, scheme=scheme)
    after = step(wave, cfg)
    assert np.max(np.abs(after.values - wave.values)) < 1e-8


def cnab2_reference(u, u_prev, grid, eps, dt):
    """One cnab2 step on full complex spectra, transforming ``u`` afresh;
    ``u_prev`` is the previous step's input (its reaction term is the
    Adams-Bashforth history)."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    k2 = sum(np.reshape(k1, [-1 if a == ax else 1 for a in range(grid.dim)]) ** 2
             for ax in range(grid.dim))
    sym = -k2 - 1.0 / eps**2
    react = lambda v: (-2.0 * v * (1.0 - v * v) - v) / eps**2
    rhs = (1.0 + 0.5 * dt * sym) * np.fft.fftn(u) - dt * np.fft.fftn(
        1.5 * react(u) - 0.5 * react(u_prev))
    return np.fft.ifftn(rhs / (1.0 - 0.5 * dt * sym)).real


def test_cnab2_carry_is_used_only_for_the_last_output():
    g = Grid(dim=2, extent=1.2, points=64)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    f0 = circle_field(g, eps, 0.35)
    cfg = SolverConfig(dt=dt, t_end=dt, scheme="semi-implicit-cnab2")

    carried = _Stepper(f0, cfg)
    f1, f1_hat = carried.advance(f0)
    assert f1_hat is not None and not f1_hat.flags.writeable
    f2, _ = carried.advance(f1, f1_hat)  # the spectrum handed out with f1
    assert np.max(np.abs(f2.values - cnab2_reference(f1.values, f0.values, g, eps, dt))) < 1e-13

    # with no spectrum given, the input is transformed afresh
    fresh = _Stepper(f0, cfg)
    fresh.advance(f0)
    other = f1.with_values(np.roll(f1.values, 5, axis=0))
    out, _ = fresh.advance(other)
    assert np.max(np.abs(out.values - cnab2_reference(other.values, f0.values, g, eps, dt))) < 1e-13


def test_pure_phase_is_an_equilibrium(grid_1d):
    f = ScalarField(grid=grid_1d, values=np.ones(grid_1d.shape), epsilon=0.05)
    cfg = SolverConfig(dt=1e-4, t_end=1e-4)
    after = step(f, cfg)
    assert np.allclose(after.values, 1.0, atol=1e-13)


def test_step_rejects_oversized_dt(grid_1d, wave_1d):
    cfg = SolverConfig(dt=0.05**2, t_end=1.0, scheme="semi-implicit-spectral")
    with pytest.raises(SolverConfigError):
        step(wave_1d, cfg)


def test_rk2_dt_limit_depends_on_spacing(grid_2d):
    f = standing_wave(grid_2d, epsilon=0.02)
    cfg = SolverConfig(dt=0.5 * grid_2d.spacing**2, t_end=1.0, scheme="explicit-rk2")
    with pytest.raises(SolverConfigError):
        step(f, cfg)


def test_circle_radius_strictly_decreases(grid_2d):
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    cfg = SolverConfig(dt=5e-5, t_end=5e-4, scheme="semi-implicit-cnab2", sample_every=10)
    traj = evolve(f, cfg)
    r0 = zero_crossing_radius(traj[0])
    r1 = zero_crossing_radius(traj[-1])
    assert r1 < r0


# --- evolve ----------------------------------------------------------------


def test_evolve_zero_horizon_returns_initial_frame(wave_1d):
    traj = evolve(wave_1d, SolverConfig(dt=1e-4, t_end=0.0))
    assert len(traj) == 1
    assert traj[0] is wave_1d


def test_evolve_standing_wave_stays_put(grid_1d):
    wave = standing_wave(grid_1d, epsilon=0.05)
    cfg = SolverConfig(dt=2.5e-4, t_end=1.0, scheme="semi-implicit-cnab2", sample_every=1000)
    traj = evolve(wave, cfg)
    assert len(traj) == 5
    for frame in traj:
        assert np.max(np.abs(frame.values - wave.values)) < 1e-6


def test_evolve_rejects_nonconforming_horizon(wave_1d):
    with pytest.raises(SolverConfigError):
        evolve(wave_1d, SolverConfig(dt=3e-4, t_end=1e-3))
    with pytest.raises(SolverConfigError):
        evolve(wave_1d, SolverConfig(dt=1e-4, t_end=3e-4, sample_every=2))


@pytest.mark.parametrize("dt, t_end", [(1e-300, 1e300), (5e-324, 1.0)])
def test_step_count_rejects_a_step_ratio_past_the_float_range(dt, t_end):
    with pytest.raises(SolverConfigError, match="time-step arithmetic overflows"):
        step_count(SolverConfig(dt=dt, t_end=t_end))


def test_circle_shrinks_toward_mean_curvature_radius(grid_2d):
    # dR/dt = -1/R gives R(t) = sqrt(R0^2 - 2t)
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    cfg = SolverConfig(dt=5e-5, t_end=0.04, scheme="semi-implicit-cnab2", sample_every=100)
    traj = evolve(f, cfg)
    exact = np.sqrt(0.35**2 - 2 * 0.04)
    measured = zero_crossing_radius(traj[-1])
    assert abs(measured - exact) / exact < 0.02


# --- well-prepared data ----------------------------------------------------


def test_prepared_plane_is_the_standing_wave(grid_1d):
    wave = prepare_interface(plane_pair_distance(grid_1d.extent), grid_1d, 0.05)
    x = grid_1d.axis()
    inner = np.abs(x) <= 0.5
    assert np.max(np.abs(wave.values[inner] - np.tanh(x[inner] / 0.05))) < 1e-12


def test_prepared_circle_vanishes_on_the_circle(grid_2d):
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    assert abs(zero_crossing_radius(f) - 0.35) < grid_2d.spacing


def test_prepared_data_has_nonpositive_discrepancy(wave_1d):
    xi = discrepancy(wave_1d).values
    assert np.max(xi) <= 1e-8 / wave_1d.epsilon


def test_prepared_circle_discrepancy_bound_when_resolved():
    # the pointwise bound needs the layer resolved (>= 8 cells per epsilon)
    g = Grid(dim=2, extent=1.2, points=512)
    f = circle_field(g, epsilon=0.02, radius=0.35)
    xi = discrepancy(f).values
    assert np.max(xi) <= 1e-8 / f.epsilon


def test_circle_run_discrepancy_stays_small(grid_2d):
    # at the production resolution (~4 cells per epsilon) the excursions stay
    # three orders below the peak energy density
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    xi_max = np.max(discrepancy(f).values)
    dens_max = np.max(energy_density(f).values)
    assert xi_max <= 1e-3 * dens_max


def test_prepare_interface_rejects_steep_slopes(grid_1d):
    steep = lambda x: 1.05 * x
    with pytest.raises(InterfaceDataError):
        prepare_interface(steep, grid_1d, 0.05)


def test_maximum_principle_along_circle_run(grid_2d):
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    cfg = SolverConfig(dt=1e-4, t_end=0.02, scheme="semi-implicit-cnab2", sample_every=50)
    traj = evolve(f, cfg)
    for frame in traj:
        assert np.max(np.abs(frame.values)) <= 1.0 + 1e-6


def test_semi_implicit_scheme_is_first_order_in_time():
    # defect against a Richardson-extrapolated reference halves with dt
    g = Grid(dim=2, extent=1.2, points=128)
    eps = 0.04
    f0 = circle_field(g, eps, 0.35)
    t_end = 64 * 0.125 * eps**2

    def final(dt_frac):
        dt = dt_frac * eps**2
        cfg = SolverConfig(dt=dt, t_end=t_end, scheme="semi-implicit-spectral",
                           sample_every=round(t_end / dt))
        return evolve(f0, cfg)[-1].values

    u1, u2, u4 = final(0.5), final(0.25), final(0.125)
    reference = 2 * u4 - u2  # first-order extrapolation of the two finest
    d1 = np.max(np.abs(u1 - reference))
    d2 = np.max(np.abs(u2 - reference))
    assert 0.35 < d2 / d1 < 0.65


def test_energy_never_increases_along_circle_run(grid_2d):
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    cfg = SolverConfig(dt=1e-4, t_end=0.01, scheme="semi-implicit-cnab2", sample_every=10)
    traj = evolve(f, cfg)
    energies = [integrate(energy_density(frame)) for frame in traj]
    drops = np.diff(energies)
    assert np.all(drops <= 1e-8 * energies[0])


# --- constructor: a valid config or a SolverConfigError ----------------------

_ANYTHING = st.one_of(st.integers(), st.integers(-2, 40), st.floats(), st.floats(0.0, 4.0),
                      st.integers(-2, 40).map(np.int64), st.floats(0.0, 4.0).map(np.float64),
                      st.none(), st.booleans(), st.text(max_size=3),
                      st.lists(st.integers(), max_size=2), st.complex_numbers(max_magnitude=2))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(dt=_ANYTHING, t_end=_ANYTHING, scheme=st.one_of(st.sampled_from(SCHEMES), _ANYTHING),
       sample_every=_ANYTHING)
def test_solver_config_is_valid_or_raises_solver_config_error(dt, t_end, scheme, sample_every):
    try:
        cfg = SolverConfig(dt=dt, t_end=t_end, scheme=scheme, sample_every=sample_every)
    except SolverConfigError:
        return
    assert isinstance(cfg.scheme, str) and cfg.scheme in SCHEMES
    assert not isinstance(cfg.dt, bool) and math.isfinite(cfg.dt) and cfg.dt > 0
    assert not isinstance(cfg.t_end, bool) and math.isfinite(cfg.t_end) and cfg.t_end >= 0
    assert isinstance(cfg.sample_every, numbers.Integral) and not isinstance(cfg.sample_every, bool)
    assert cfg.sample_every >= 1
