import math
import numbers
import tracemalloc
import weakref
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acflow import (
    Grid,
    ScalarField,
    FrameBundle,
    SolverConfig,
    SolverConfigError,
    InterfaceDataError,
    evolve,
    prepare_interface,
)
from acflow.initial_data import (circle_distance, graph_pair_distance, plane_pair_distance,
                                 sine_mode)
from acflow.solver import (CLAMP, SCHEMES, _BLOCK_POINTS, _Stepper, ac_residual_values, dt_limit,
                           march, sampled, step_count)

from conftest import standing_wave, circle_field, traced_peak, zero_crossing_radius


# --- right-hand side -------------------------------------------------------


def test_residual_vanishes_on_standing_wave(wave_1d):
    # interior = near the studied layer, away from the saturated fold of the
    # companion construction
    r = ac_residual_values(wave_1d)
    x = wave_1d.grid.axis()
    inner = np.abs(x) <= wave_1d.grid.extent / 8
    assert np.max(np.abs(r[inner])) < 1e-7


def test_residual_vanishes_in_pure_phase():
    g = Grid(dim=2, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1)
    assert np.max(np.abs(ac_residual_values(f))) < 1e-12


def test_residual_matches_hand_value_on_constant():
    # d/du of the double well at 0.5 is -2*0.5*(1-0.25) = -0.75
    g = Grid(dim=1, extent=1.0, points=32)
    f = ScalarField(grid=g, values=np.full(32, 0.5), epsilon=1.0)
    assert np.allclose(ac_residual_values(f), 0.75, atol=1e-12)


# --- stepping --------------------------------------------------------------


def first_step(field, cfg):
    """The field after the first step of :func:`march`."""
    _, (after, _) = islice(march(field, cfg), 2)
    return after


@pytest.mark.parametrize("scheme", SCHEMES)
def test_standing_wave_is_a_fixed_point(scheme, grid_1d):
    wave = standing_wave(grid_1d, epsilon=0.05)
    limit = {"semi-implicit-spectral": 0.5, "semi-implicit-cnab2": 1.0 / 3.0, "explicit-rk2": 0.05}
    dt = 0.5 * limit[scheme] * 0.05**2
    if scheme == "explicit-rk2":
        dt = min(dt, 0.1 * grid_1d.spacing**2)
    cfg = SolverConfig(dt=dt, t_end=dt, scheme=scheme)
    after = first_step(wave, cfg)
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
    cfg = SolverConfig(dt=dt, t_end=dt)

    carried = _Stepper(f0, cfg)
    prev, (f, f_hat) = f0, carried.advance(f0)
    assert f_hat is not None and not f_hat.flags.writeable
    for _ in range(20):  # each step fed the spectrum handed out with its input
        out, out_hat = carried.advance(f, f_hat)
        assert np.max(np.abs(out.values - cnab2_reference(f.values, prev.values, g, eps, dt))) < 1e-13
        prev, f, f_hat = f, out, out_hat

    # with no spectrum given, the input is transformed afresh
    fresh = _Stepper(f0, cfg)
    f1, _ = fresh.advance(f0)
    other = f1.with_values(np.roll(f1.values, 5, axis=0))
    out, _ = fresh.advance(other)
    assert np.max(np.abs(out.values - cnab2_reference(other.values, f0.values, g, eps, dt))) < 1e-13


def test_cnab2_step_working_set():
    # one carried step on a 256^2 circle: its traced peak above its start,
    # and what it keeps (the new field, its half spectrum and the history
    # h that replaces the previous one), in grid-sized real arrays
    g = Grid(dim=2, extent=1.2, points=256)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    f0 = circle_field(g, eps, 0.35)
    stepper = _Stepper(f0, SolverConfig(dt=dt, t_end=dt))
    f1, f1_hat = stepper.advance(f0)
    array_bytes = f0.values.nbytes
    tracemalloc.start()
    try:
        result = stepper.advance(f1, f1_hat)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[0].time > f1.time
    assert peak <= 4.1 * array_bytes, f"step peak {peak / array_bytes:.2f} arrays"
    assert round(kept / array_bytes, 1) == 3.0, f"step keeps {kept / array_bytes:.2f} arrays"


def test_pure_phase_is_an_equilibrium(grid_1d):
    f = ScalarField(grid=grid_1d, values=np.ones(grid_1d.shape), epsilon=0.05)
    cfg = SolverConfig(dt=1e-4, t_end=1e-4)
    after = first_step(f, cfg)
    assert np.allclose(after.values, 1.0, atol=1e-13)


def test_step_rejects_oversized_dt(grid_1d, wave_1d):
    cfg = SolverConfig(dt=0.05**2, t_end=0.05**2, scheme="semi-implicit-spectral")
    with pytest.raises(SolverConfigError, match="exceeds the semi-implicit-spectral limit"):
        first_step(wave_1d, cfg)


def test_rk2_dt_limit_depends_on_spacing(grid_2d):
    f = standing_wave(grid_2d, epsilon=0.02)
    dt = 0.5 * grid_2d.spacing**2
    cfg = SolverConfig(dt=dt, t_end=dt, scheme="explicit-rk2")
    with pytest.raises(SolverConfigError, match="exceeds the explicit-rk2 limit"):
        first_step(f, cfg)


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64), (3, 32)])
def test_rk2_stays_bounded_just_under_its_limit(dim, points):
    # the limit counts every axis of the spectral Laplacian: a bound that
    # ignores the dimension lets a 2-D or 3-D circle blow up within 25 steps
    g = Grid(dim=dim, extent=1.2, points=points)
    eps = 4.0 * g.spacing
    dt = 0.95 * dt_limit("explicit-rk2", g, eps)
    cfg = SolverConfig(dt=dt, t_end=400 * dt, scheme="explicit-rk2", sample_every=400)
    traj = evolve(circle_field(g, eps, 0.35), cfg)
    assert np.max(np.abs(traj[-1].values)) <= 1.0 + 1e-6


def test_circle_radius_strictly_decreases(grid_2d):
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    cfg = SolverConfig(dt=5e-5, t_end=5e-4, sample_every=10)
    traj = evolve(f, cfg)
    r0 = zero_crossing_radius(traj[0])
    r1 = zero_crossing_radius(traj[-1])
    assert r1 < r0


# --- evolve ----------------------------------------------------------------


def test_evolve_standing_wave_stays_put(grid_1d):
    wave = standing_wave(grid_1d, epsilon=0.05)
    cfg = SolverConfig(dt=2.5e-4, t_end=1.0, sample_every=1000)
    traj = evolve(wave, cfg)
    assert len(traj) == 5
    for frame in traj:
        assert np.max(np.abs(frame.values - wave.values)) < 1e-6


@pytest.mark.parametrize("normal_axis", [0, 2])
def test_flat_layer_in_3d_follows_its_1d_flow_to_round_off(normal_axis):
    # A flat layer on a 48^3 grid (interface dimension n = 2) is the 1-D flow
    # of its profile, constant along the layer.  Along the last axis the
    # profile goes through the real pass of each transform; along the first,
    # through a complex pass that runs in place on the transform's output.
    g3, g1 = Grid(dim=3, extent=1.2, points=48), Grid(dim=1, extent=1.2, points=48)
    eps = 4.0 * g3.spacing
    profile = standing_wave(g1, eps)
    shape = [1, 1, 1]
    shape[normal_axis] = g1.points
    layer = ScalarField(grid=g3, values=np.broadcast_to(profile.values.reshape(shape), g3.shape),
                        epsilon=eps)
    dt = 0.25 * eps**2
    cfg = SolverConfig(dt=dt, t_end=20 * dt, sample_every=5)
    flat, reference = evolve(layer, cfg), evolve(profile, cfg)
    assert len(flat) == len(reference) == 5
    for f3, f1 in zip(flat, reference):
        assert f3.time == f1.time
        assert np.max(np.abs(f3.values - f1.values.reshape(shape))) < 1e-14
    # the profile does move (its companion fold is near on 48 points), so the
    # bound above is not met by frames that merely stay put
    assert np.max(np.abs(reference[-1].values - profile.values)) > 1e-4


def test_evolve_rejects_nonconforming_horizon(wave_1d):
    with pytest.raises(SolverConfigError):
        evolve(wave_1d, SolverConfig(dt=3e-4, t_end=1e-3))
    with pytest.raises(SolverConfigError):
        evolve(wave_1d, SolverConfig(dt=1e-4, t_end=3e-4, sample_every=2))


def test_solver_config_rejects_a_horizon_that_is_not_positive():
    # every flow makes at least one step
    with pytest.raises(SolverConfigError, match="t_end must be a positive finite number"):
        SolverConfig(dt=1e-4, t_end=0.0)


@pytest.mark.parametrize("dt, t_end", [(1e-300, 1e300), (5e-324, 1.0)])
def test_step_count_rejects_a_step_ratio_past_the_float_range(dt, t_end):
    with pytest.raises(SolverConfigError, match="time-step arithmetic overflows"):
        step_count(SolverConfig(dt=dt, t_end=t_end))


def test_circle_shrinks_toward_mean_curvature_radius(grid_2d):
    # dR/dt = -1/R gives R(t) = sqrt(R0^2 - 2t)
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    cfg = SolverConfig(dt=5e-5, t_end=0.04, sample_every=100)
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
    xi = FrameBundle(wave_1d).discrepancy
    assert np.max(xi) <= 1e-8 / wave_1d.epsilon


def test_prepared_circle_discrepancy_bound_when_resolved():
    # the pointwise bound needs the layer resolved (>= 8 cells per epsilon)
    g = Grid(dim=2, extent=1.2, points=512)
    f = circle_field(g, epsilon=0.02, radius=0.35)
    xi = FrameBundle(f).discrepancy
    assert np.max(xi) <= 1e-8 / f.epsilon


def test_circle_run_discrepancy_stays_small(grid_2d):
    # at the production resolution (~4 cells per epsilon) the excursions stay
    # three orders below the peak energy density
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    b = FrameBundle(f)
    xi_max = np.max(b.discrepancy)
    dens_max = np.max(b.energy_density)
    assert xi_max <= 1e-3 * dens_max


def test_prepare_interface_rejects_steep_slopes(grid_1d):
    steep = lambda x: 1.05 * x
    with pytest.raises(InterfaceDataError):
        prepare_interface(steep, grid_1d, 0.05)


def test_sampled_lets_go_of_its_initial_field():
    # march holds the initial field until its first step; once the consumer
    # has dropped the first sample, nothing else holds it
    g = Grid(dim=2, extent=1.2, points=32)
    initial = circle_field(g, 0.1, 0.35)
    ref = weakref.ref(initial)
    frames = sampled(initial, SolverConfig(dt=1e-3, t_end=4e-3))
    del initial
    first = next(frames)
    assert first is ref()
    del first
    next(frames)
    assert ref() is None


def _whole_box_prepare(signed_distance, grid, epsilon):
    """``prepare_interface`` as it evaluated the signed distance and its slope
    probe over the whole box at once: the oracle of the block evaluation."""
    d = np.broadcast_to(signed_distance(*grid.coords()), grid.shape)
    if not np.all(np.isfinite(d)):
        raise InterfaceDataError("signed distance evaluated to non-finite values")
    band_halfwidth = 5.0 * epsilon * math.atanh(1.0 - 1e-6)
    band = np.abs(d) <= min(band_halfwidth, 0.5 * grid.extent)
    if np.any(band):
        delta = 1e-4 * grid.extent
        coords = grid.coords()
        grad_sq = np.zeros(grid.shape)
        for ax in range(grid.dim):
            shifted_plus = list(coords)
            shifted_minus = list(coords)
            shifted_plus[ax] = coords[ax] + delta
            shifted_minus[ax] = coords[ax] - delta
            g = (signed_distance(*shifted_plus) - signed_distance(*shifted_minus)) / (2 * delta)
            grad_sq += np.broadcast_to(g, grid.shape) ** 2
        worst = float(np.sqrt(np.max(grad_sq[band])))
        if worst > 1.0 + 1e-6:
            raise InterfaceDataError(
                f"|grad d| = {worst:.8f} > 1 + 1e-6 in the transition band; "
                "input is not a signed distance there"
            )
    u0 = np.clip(np.tanh(d / epsilon), -CLAMP, CLAMP)
    return ScalarField(grid=grid, values=u0, epsilon=epsilon)


def _rows_per_block(grid):
    return max(1, _BLOCK_POINTS // grid.points ** (grid.dim - 1))


GRAPH_EXTENT = 1.28


def _graph_data(eps, tilt_over_eps=0.0):
    """Excess-decay's graph (amplitude eps/2, mode 1), tilted by
    ``tilt_over_eps * eps`` as its excess-decay fit tilts it."""
    L = GRAPH_EXTENT
    modes = [sine_mode(0.5 * eps, 1, L)]
    if tilt_over_eps:
        modes.append(sine_mode(tilt_over_eps * eps * L / (2.0 * np.pi), 1, L, phase=-np.pi / 2))
    return graph_pair_distance(L, modes)


# (grid, signed distance, epsilon); the circle's 81-row blocks leave 38
# rows over and the sphere's 7-row blocks 6
PREPARED = {
    "circle-200": (Grid(dim=2, extent=1.2, points=200), circle_distance(0.35), 0.02),
    "plane-pair-256": (Grid(dim=2, extent=1.2, points=256), plane_pair_distance(1.2), 0.02),
    "graph-256": (Grid(dim=2, extent=GRAPH_EXTENT, points=256), _graph_data(0.02), 0.02),
    "graph-tilted-256": (Grid(dim=2, extent=GRAPH_EXTENT, points=256), _graph_data(0.02, 2.5),
                         0.02),
    "sphere-48": (Grid(dim=3, extent=1.2, points=48), circle_distance(0.35), 0.1),
}


@pytest.mark.parametrize("name", sorted(PREPARED))
def test_block_preparation_equals_the_whole_box_form(name):
    grid, distance, eps = PREPARED[name]
    assert grid.points > _rows_per_block(grid)  # more than one block
    new = prepare_interface(distance, grid, eps)
    assert np.array_equal(new.values, _whole_box_prepare(distance, grid, eps).values)


def test_some_prepared_box_ends_in_a_partial_block():
    partial = [name for name, (grid, _, _) in PREPARED.items()
               if grid.points % _rows_per_block(grid)]
    assert partial == ["circle-200", "sphere-48"]


# Item 12's graph data that the slope probe rejects, on excess-decay's
# grids (128^2 is one block) and on four-block 256^2 grids; and a distance
# that is non-finite only in its last rows, steep (slope 2) in every row
# before them, which is reported as non-finite, as the whole-box form did.
REJECTED = {
    "tilt-20-eps-0.04": (128, 0.04, 20.0),
    "tilt-30-eps-0.04": (128, 0.04, 30.0),
    "tilt-30-eps-0.02": (256, 0.02, 30.0),
    "tilt-20-eps-0.04-at-256": (256, 0.04, 20.0),
    "tilt-30-eps-0.04-at-256": (256, 0.04, 30.0),
}


def _raised(prepare, distance, grid, eps):
    with pytest.raises(InterfaceDataError) as info:
        prepare(distance, grid, eps)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_block_preparation_rejects_what_the_whole_box_form_rejects(name):
    points, eps, tilt_over_eps = REJECTED[name]
    grid = Grid(dim=2, extent=GRAPH_EXTENT, points=points)
    distance = _graph_data(eps, tilt_over_eps)
    expected = _raised(_whole_box_prepare, distance, grid, eps)
    assert "not a signed distance" in expected[1]
    assert _raised(prepare_interface, distance, grid, eps) == expected


def test_block_preparation_reports_a_non_finite_distance_first():
    grid = Grid(dim=2, extent=GRAPH_EXTENT, points=256)

    def distance(x, y):
        return np.where(x > 0.5, np.inf, 2.0 * y)

    expected = _raised(_whole_box_prepare, distance, grid, 0.04)
    assert expected[1] == "signed distance evaluated to non-finite values"
    assert _raised(prepare_interface, distance, grid, 0.04) == expected


def test_block_preparation_holds_a_block_of_temporaries():
    # Graph data at 256^2 (four blocks): the traced peak of the block
    # evaluation is measured at 5.09 frames (the distance, the clamped
    # profile and one block's Newton temporaries), against 17.27 frames for
    # the whole-box form, so the bound leaves a margin of 2.9 frames.
    grid, distance, eps = PREPARED["graph-256"]
    frame_bytes = 8 * grid.points**2
    peak = traced_peak(lambda: prepare_interface(distance, grid, eps))
    assert peak < 8 * frame_bytes, f"traced peak {peak / frame_bytes:.2f} frames"
    assert traced_peak(lambda: _whole_box_prepare(distance, grid, eps)) > 8 * frame_bytes


def test_maximum_principle_along_circle_run(grid_2d):
    f = circle_field(grid_2d, epsilon=0.02, radius=0.35)
    cfg = SolverConfig(dt=1e-4, t_end=0.02, sample_every=50)
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
    cfg = SolverConfig(dt=1e-4, t_end=0.01, sample_every=10)
    traj = evolve(f, cfg)
    energies = [float(np.sum(FrameBundle(frame).energy_density) * frame.grid.cell_volume)
                for frame in traj]
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
    assert not isinstance(cfg.t_end, bool) and math.isfinite(cfg.t_end) and cfg.t_end > 0
    assert isinstance(cfg.sample_every, numbers.Integral) and not isinstance(cfg.sample_every, bool)
    assert cfg.sample_every >= 1
