import numpy as np
import pytest

from acflow import (
    FrameBundle,
    Grid,
    GraphExtractionError,
    Hyperplane,
    ParabolicCylinder,
    ScalarField,
    SolverConfig,
    Trajectory,
    distance_function,
    distance_gradient_max,
    evolve,
    excess_decay_ratio,
    extract_graph,
    heat_compare,
    height_excess,
    partition_good_bad,
    prepare_interface,
    tilt_excess,
)
from acflow.diagnostics import _tilt_integrand
from acflow.experiments import Flow, default_config
from acflow.grid import window_weights
from acflow.initial_data import graph_pair_distance, graph_profile, sine_mode
from acflow.levelset import GoodBadPartition, _maximal_field, dyadic_radii, good_bad_partitions
from acflow.operators import ball_mask, from_spectrum, integrate_values, spectrum
from acflow.solver import sampled

from conftest import frames_at, released_stream, standing_wave


# --- inverse-profile distance field ----------------------------------------


def test_distance_recovers_vertical_coordinate(wave_1d):
    z = distance_function(wave_1d).values
    x = wave_1d.grid.axis()
    band = np.abs(wave_1d.values) <= 0.999
    inner = band & (np.abs(x) < 0.3)
    assert np.max(np.abs(z[inner] - x[inner])) < 1e-8


def test_distance_of_zero_field_is_zero():
    g = Grid(dim=1, extent=1.0, points=64)
    f = ScalarField(grid=g, values=np.zeros(64), epsilon=0.1)
    assert np.allclose(distance_function(f).values, 0.0)


def test_distance_gradient_bounded_for_prepared_data(wave_2d):
    assert distance_gradient_max(wave_2d) <= 1.0 + 1e-3


def test_distance_gradient_bound_along_circle_run(circle_traj_short):
    for frame in circle_traj_short.frames[:: max(1, len(circle_traj_short) // 5)]:
        assert distance_gradient_max(frame) <= 1.0 + 1e-3


# --- graph extraction --------------------------------------------------------


def flat_layer(profile: ScalarField) -> ScalarField:
    """The 2-D layer whose every column is the 1-D ``profile``: it does not
    vary along the base."""
    g = Grid(dim=2, extent=profile.grid.extent, points=profile.grid.points)
    return ScalarField(grid=g, values=np.broadcast_to(profile.values, g.shape),
                       epsilon=profile.epsilon)


def test_extracted_height_inverts_the_profile():
    wave = flat_layer(standing_wave(Grid(dim=1, extent=2.56, points=1024), 0.1))
    graph = extract_graph([wave], level=0.5)
    expected = 0.1 * np.arctanh(0.5)
    assert expected == pytest.approx(0.05493061443340549, abs=1e-12)  # oracle value
    assert graph.validity_fraction == 1.0
    assert np.max(np.abs(graph.heights - expected)) < 1e-6


def test_zero_level_of_odd_profile_is_zero(wave_2d):
    graph = extract_graph([wave_2d], level=0.0)
    assert graph.validity_fraction == 1.0
    assert np.max(np.abs(graph.heights)) < 1e-12


def test_graph_of_gentle_slope_matches_offset_geometry():
    # level sets of a layer over a gentle graph sit a profile-offset away,
    # measured along the normal: h(s) - h(-s) = 2 eps artanh(s) sqrt(1+f'^2);
    # the symmetric difference cancels the curvature term, odd in the offset
    g = Grid(dim=2, extent=1.28, points=512)
    eps = 0.02
    slope = 0.05
    mode = sine_mode(slope * 1.28 / (2 * np.pi), 1, 1.28, phase=-np.pi / 2)
    dist = graph_pair_distance(1.28, [mode])
    field = prepare_interface(dist, g, eps)
    s = 0.4
    g_lo = extract_graph([field], -s)
    g_hi = extract_graph([field], s)
    both = g_lo.valid & g_hi.valid
    assert both.mean() > 0.99
    xh = g.axis()
    _, fp, _ = graph_profile([mode], xh)
    predicted = eps * np.arctanh(s) * np.sqrt(1.0 + fp ** 2)
    measured = 0.5 * (g_hi.heights - g_lo.heights)[0]
    assert np.max(np.abs(measured - predicted)[both[0]]) < 1e-6


def test_extraction_errors_when_every_column_is_ambiguous():
    # two layers at y = -0.3 and y = 0.3, both inside the quarter box
    # |y| <= 0.64, leave no single-crossing column at all
    g = Grid(dim=1, extent=2.56, points=1024)
    f = flat_layer(ScalarField(grid=g, values=np.tanh((np.abs(g.axis()) - 0.3) / 0.05),
                               epsilon=0.05))
    with pytest.raises(GraphExtractionError):
        extract_graph([f], level=0.0)


def test_extraction_masks_multi_crossing_columns():
    # inside the quarter box |y| <= 0.5, half the columns carry one
    # crossing, half carry three (y = 0 and y = +-1/3)
    g = Grid(dim=2, extent=2.0, points=128)
    X, Y = g.dense_coords()
    vals = np.where(X < 0, np.tanh(Y / 0.1), np.tanh(np.sin(3 * np.pi * Y) / 0.3))
    f = ScalarField(grid=g, values=vals, epsilon=0.1)
    graph = extract_graph([f], level=0.0)
    single = graph.valid[0][: g.points // 2]
    multi = graph.valid[0][g.points // 2 :]
    assert np.all(single)
    assert not np.any(multi)


def test_extraction_rejects_pure_phase():
    g = Grid(dim=2, extent=2.0, points=64)
    f = ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1)
    with pytest.raises(GraphExtractionError):
        extract_graph([f], level=0.0)


@pytest.fixture(scope="module")
def rough_flow():
    """A small rough layer (excess-decay's wiggled graph on 128^2) and a
    ten-step flow of it, sampled at every step."""
    from acflow.experiments import _multiscale_rough_initial

    eps = 0.04
    initial = _multiscale_rough_initial(Grid(dim=2, extent=1.28, points=128), eps)
    dt = 0.125 * eps**2
    return initial, SolverConfig(dt=dt, t_end=10 * dt, sample_every=1)


def test_graph_of_a_stream_equals_the_graph_of_its_trajectory(rough_flow):
    initial, cfg = rough_flow
    stored = extract_graph(evolve(initial, cfg), 0.0)
    # each streamed frame is freed before the next is made; the initial
    # field is a copy, so that nothing else holds the first frame
    streamed = extract_graph(
        released_stream(sampled(initial.with_values(initial.values.copy()), cfg)), 0.0)
    assert len(stored.times) == 11
    for name in ("times", "heights", "valid"):
        assert np.array_equal(getattr(streamed, name), getattr(stored, name)), name
        assert getattr(streamed, name).dtype == getattr(stored, name).dtype
    assert streamed.base == stored.base == Grid(dim=1, extent=1.28, points=128)


def fresh_frames(grid, count):
    """Frames made one at a time, each with its own values, that nothing
    but their consumer holds."""
    return (ScalarField(grid=grid, values=np.full(grid.shape, float(t)), epsilon=0.1,
                        time=float(t)) for t in range(count))


def test_released_stream_catches_a_consumer_that_keeps_its_previous_frame():
    g = Grid(dim=1, extent=1.0, points=8)
    for frame in released_stream(fresh_frames(g, 3)):
        del frame  # let go before the next is asked for
    kept = []
    with pytest.raises(AssertionError, match="the frame at t=0 outlived"):
        for frame in released_stream(fresh_frames(g, 3)):
            kept.append(frame.values)  # the values alone keep the frame's memory
            del frame
    # a plain loop holds its variable while the next frame is made
    with pytest.raises(AssertionError, match="the frame at t=0 outlived"):
        for frame in released_stream(fresh_frames(g, 3)):
            pass
    # the last frame is checked when the stream ends, unless it may be kept
    last = []
    with pytest.raises(AssertionError, match="the frame at t=2 outlived"):
        for frame in released_stream(fresh_frames(g, 3)):
            if frame.time == 2.0:
                last.append(frame)
            del frame
    for frame in released_stream(fresh_frames(g, 3), keep_last=True):
        if frame.time == 2.0:
            last.append(frame)
        del frame
    assert [f.time for f in last] == [2.0, 2.0]


class UnreadFrame:
    """A frame on ``grid`` whose values must not be read."""

    def __init__(self, grid):
        self.grid, self.time = grid, 0.0

    @property
    def values(self):
        raise AssertionError("a column was read")


def test_graph_extraction_rejects_a_frame_over_a_1d_box(wave_1d):
    # the base of a 1-D box is one point, over which there is no graph: the
    # first frame is rejected on its grid alone
    for frame in (UnreadFrame(wave_1d.grid), wave_1d):
        with pytest.raises(GraphExtractionError, match="single-point base"):
            extract_graph(iter([frame]), 0.0)


def test_graph_extraction_rejects_a_frame_on_a_second_grid(wave_2d):
    other = standing_wave(Grid(dim=2, extent=1.2, points=128), 0.02)
    with pytest.raises(ValueError, match="not on the first frame's grid"):
        extract_graph(iter([wave_2d, other]), 0.0)
    with pytest.raises(GraphExtractionError):
        extract_graph(iter([]), 0.0)


# --- parabolic maximal function ---------------------------------------------


def parabolic_maximal(f, times, extent, point_space, point_time, radii, power=None):
    """Pointwise oracle for the parabolic maximal function at one query point.

    Sup over the given radii of ``r^-power`` (default ``m + 2`` for m spatial
    axes; no volume factor) times the mass of ``f`` over the space-time
    cylinder at the point.  ``f`` is laid out (time, *spatial) over a
    centered periodic lattice.  Balls are closed: when the point is a lattice
    point and ``r`` a whole number ``k`` of spacings, membership is decided
    exactly in integer offsets, ``i^2 + ... <= k^2``.  Time windows reaching
    past the sampled range are clipped; a window holding a single sample
    gets the time measure ``min(2 r^2, sampling interval)``.
    """
    spatial_shape = f.shape[1:]
    m = len(spatial_shape)
    power = m + 2 if power is None else power
    radii = list(radii)
    if not radii:
        raise ValueError("need at least one radius")
    if any(r <= 0 or r > 0.5 * extent for r in radii):
        raise ValueError(f"radii must lie in (0, {0.5 * extent}]; got {radii}")
    spacing = extent / spatial_shape[0]
    axes = [-0.5 * extent + spacing * np.arange(nn) for nn in spatial_shape]
    cell = spacing**m
    index = [(p + 0.5 * extent) / spacing for p in point_space]
    on_lattice = all(abs(q - round(q)) < 1e-9 for q in index)

    best = 0.0
    for r in radii:
        k = r / spacing
        exact = on_lattice and abs(k - round(k)) < 1e-9
        d2 = np.zeros(spatial_shape)
        for ax in range(m):
            shape = [1] * m
            shape[ax] = spatial_shape[ax]
            nn = spatial_shape[ax]
            if exact:
                delta = (np.arange(nn) - round(index[ax]) + nn // 2) % nn - nn // 2
            else:
                delta = axes[ax] - point_space[ax]
                delta = (delta + 0.5 * extent) % extent - 0.5 * extent
            d2 = d2 + delta.reshape(shape) ** 2
        mask = d2 <= (round(k) ** 2 if exact else r * r)
        per_frame = np.array([float(np.sum(np.where(mask, fr, 0.0))) * cell for fr in f])
        lo, hi = point_time - r * r, point_time + r * r
        slack = 1e-12 * max(1.0, abs(hi))
        inside = np.nonzero((times >= lo - slack) & (times <= hi + slack))[0]
        a, b = inside[0], inside[-1]
        if a == b:
            measure = min(2.0 * r * r, times[1] - times[0]) if len(times) > 1 else 2.0 * r * r
            mass = float(per_frame[a]) * measure
        else:
            dt = times[1] - times[0]
            mass = dt * (float(np.sum(per_frame[a : b + 1])) - 0.5 * (per_frame[a] + per_frame[b]))
        best = max(best, mass / r**power)
    return best


def assert_maximal_matches_oracle(maximal, g, times, grid, radii, power, points):
    """``maximal`` (time, *space) equals the oracle applied to ``g`` at the
    given (time index, lattice index) points, to 1e-10 relative to the
    largest sampled value."""
    x = grid.axis()
    oracle = [parabolic_maximal(g, times, grid.extent, tuple(x[j] for j in idx), times[i],
                                radii, power) for i, idx in points]
    scale = max(oracle)
    assert scale > 0
    for (i, idx), expected in zip(points, oracle):
        assert maximal[(i,) + tuple(idx)] == pytest.approx(expected, rel=1e-10,
                                                           abs=1e-10 * scale)


def spectra(grid, g):
    """The half spectrum of each frame of ``g``, the input of ``_maximal_field``."""
    return [spectrum(grid, frame) for frame in g]


def partition_maximal(traj):
    """The maximal field the partition thresholds: of each frame's tilt
    integrand against the vertical, over the dyadic radii."""
    grid = traj.grid
    tilt = [_tilt_integrand(FrameBundle(f), (0.0, 1.0)) for f in traj.frames]
    return _maximal_field(spectra(grid, tilt), traj.times, grid,
                          dyadic_radii(grid.extent, grid.spacing), power=grid.interface_dim + 2)


# radii incommensurate with the lattice spacings below, so that no lattice
# point sits on a ball boundary
ORACLE_RADII = [0.0713, 0.1517, 0.3291]
# whole numbers of spacings on every lattice below (0.02, 0.04, 0.005), with
# lattice points on each boundary, off the axes too (0.2 = 5 * 0.04 and
# 40 * 0.005, with 3^2 + 4^2 = 5^2): each is also tried alone, so that it
# decides the supremum
LATTICE_RADII = [0.08, 0.2, 0.32]
RADIUS_SETS = [ORACLE_RADII, LATTICE_RADII] + [[r] for r in LATTICE_RADII]


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 32)])
def test_maximal_field_matches_pointwise_oracle(dim, points):
    rng = np.random.default_rng(3)
    grid = Grid(dim=dim, extent=1.28, points=points)
    times = np.linspace(0.0, 0.06, 7)
    g = rng.random((len(times),) + grid.shape)
    sample = [(i, tuple(rng.integers(0, points, size=dim))) for i in (0, 2, 3, 6) for _ in range(3)]
    for radii in RADIUS_SETS:
        maximal = _maximal_field(spectra(grid, g), times, grid, radii, power=dim + 1)
        assert_maximal_matches_oracle(maximal, g, times, grid, radii, dim + 1, sample)


def test_partition_maximal_matches_pointwise_oracle(perturbed_traj_small):
    # the tilt integrand vanishes identically in one dimension (the normal is
    # always vertical), so the partition's maximal field is compared in two
    traj = perturbed_traj_small
    grid = traj.grid
    e = (0.0, 1.0)
    tilt = np.stack([_tilt_integrand(FrameBundle(f), e) for f in traj.frames])
    n = grid.points
    # points on the studied layer (vertical index n/2) and away from it
    sample = [(i, (j, k)) for i in (0, len(traj) // 2, len(traj) - 1)
              for j in (0, n // 4, n // 2 + 7) for k in (n // 2, n // 2 + 3, n // 8)]
    for radii in RADIUS_SETS:
        maximal = _maximal_field(spectra(grid, tilt), traj.times, grid, radii,
                                 power=grid.interface_dim + 2)
        assert_maximal_matches_oracle(maximal, tilt, traj.times, grid, radii,
                                      grid.interface_dim + 2, sample)
    # the partition's own field is the one over the dyadic radii: its bad
    # set at a threshold is the layer where that field reaches it
    dyadic = partition_maximal(traj)
    layer = np.abs(np.stack([f.values for f in traj.frames])) < 1.0 - 0.05
    for threshold in np.quantile(dyadic[layer], [0.5, 0.9]).tolist():
        expected = np.count_nonzero(layer & (dyadic >= threshold))
        assert partition_good_bad(traj, threshold, band=0.05).bad_points == expected > 0


def _per_radius_maximal(g, times, grid, radii, power):
    """The maximal field as it was built with a new convolution buffer per
    radius: the oracle of the one shared buffer."""
    out = np.zeros_like(g)
    dt = times[1] - times[0]
    origin = (-0.5 * grid.extent,) * grid.dim
    for r in radii:
        khat = spectrum(grid, ball_mask(grid, origin, r).astype(float))
        conv = np.empty_like(g)
        for j in range(g.shape[0]):
            conv[j] = from_spectrum(grid, spectrum(grid, g[j]) * khat) * grid.cell_volume
        for i in range(g.shape[0]):
            idx, weights = window_weights(times, times[i] - r * r, times[i] + r * r, dt)
            mass = sum(w * conv[k] for k, w in zip(idx, weights))
            np.maximum(out[i], mass / r**power, out=out[i])
    return out


def test_maximal_field_and_partition_equal_their_stacked_forms(rough_flow):
    traj = evolve(*rough_flow)
    grid = traj.grid
    radii, power = dyadic_radii(grid.extent, grid.spacing), grid.interface_dim + 2
    tilt = np.stack([_tilt_integrand(FrameBundle(f), (0.0, 1.0)) for f in traj.frames])
    oracle = _per_radius_maximal(tilt, traj.times, grid, radii, power)
    assert np.array_equal(_maximal_field(spectra(grid, tilt), traj.times, grid, radii, power),
                          oracle)
    # the bad set as it was taken from the stacked layer mask of every frame
    layer = np.abs(np.stack([f.values for f in traj.frames])) < 1.0 - 0.05
    thresholds = np.quantile(oracle[layer], [0.5, 0.9, 0.99]).tolist()
    for threshold, part in zip(thresholds, good_bad_partitions(traj, thresholds, band=0.05)):
        assert part.bad_points == np.count_nonzero(layer & (oracle >= threshold)) > 0


def test_a_replayed_flow_gives_the_maximal_field_and_partitions_of_its_trajectory(rough_flow):
    initial, cfg = rough_flow
    runs = []

    def rebuilt():
        runs.append(1)
        return initial.with_values(initial.values.copy())

    thresholds = default_config("excess-decay").params["thresholds"]
    stored = good_bad_partitions(evolve(initial, cfg), thresholds, 0.05)
    replayed = good_bad_partitions(Flow(initial.grid, cfg, initial.epsilon,
                                        lambda grid, eps: rebuilt()), thresholds, 0.05)
    assert replayed == stored  # the same bad points and bitwise the same ratios
    assert len(replayed) == len(thresholds) and any(part.bad_points for part in replayed)
    # the tilt pass and one pass for every threshold, with no grid build before them
    assert len(runs) == 2


def test_good_bad_partitions_rejects_a_one_shot_stream(rough_flow):
    with pytest.raises(ValueError, match="not an iterator"):
        good_bad_partitions(sampled(*rough_flow), [0.02], 0.05)


def test_good_bad_partitions_transforms_each_frame_once(perturbed_traj_small, monkeypatch):
    # one forward transform per frame's tilt integrand and one per ball: 12
    # here, where transforming every frame again for every radius made 42
    import acflow.levelset as levelset

    forward, calls = levelset.spectrum, []

    def counting(grid, values):
        calls.append(1)
        return forward(grid, values)

    monkeypatch.setattr(levelset, "spectrum", counting)
    traj = perturbed_traj_small
    partition_good_bad(traj, 0.02, 0.05)
    assert len(calls) == len(traj) + len(dyadic_radii(traj.grid.extent, traj.grid.spacing)) == 12


@pytest.mark.parametrize("radius", [0.04, 0.08])
def test_lone_sample_window_has_one_mass(radius):
    # r^2 is below the sampling interval, so each window holds one sample,
    # of measure min(2 r^2, dt): 0.0032 and 0.01 here
    rng = np.random.default_rng(7)
    grid = Grid(dim=2, extent=1.28, points=32)
    times = np.linspace(0.0, 0.04, 5)
    g = rng.random((len(times),) + grid.shape)
    maximal = _maximal_field(spectra(grid, g), times, grid, [radius], power=0)
    x = grid.axis()
    for i, (j, k) in [(0, (0, 0)), (2, (5, 17)), (4, (31, 16))]:
        region = ParabolicCylinder(center_space=(x[j], x[k]), center_time=times[i], radius=radius)
        mass = integrate_values(grid, frames_at(grid, times, g), lambda f: f.values, [region])[0]
        assert maximal[i, j, k] == pytest.approx(mass, rel=1e-12)


def test_maximal_of_constant_is_four_c():
    # sup over r of r^-3 * (2r * 2r^2 * c) = 4c in one base dimension
    c = 0.7
    times = np.linspace(0.0, 1.0, 201)
    f = np.full((201, 400), c)
    val = parabolic_maximal(f, times, extent=4.0, point_space=(0.0,), point_time=0.5,
                            radii=[0.1, 0.2, 0.4])
    assert val == pytest.approx(4 * c, rel=0.05)


def test_maximal_of_zero_is_zero():
    times = np.linspace(0.0, 1.0, 11)
    f = np.zeros((11, 64))
    assert parabolic_maximal(f, times, 2.0, (0.0,), 0.5, [0.2]) == 0.0


def test_maximal_spike_attained_at_smallest_radius_and_decays_away():
    times = np.linspace(0.0, 1.0, 51)
    f = np.zeros((51, 256))
    f[25, 128] = 1.0  # unit spike at x=0, t=0.5
    radii = [0.05, 0.1, 0.2, 0.4]
    extent = 2.0
    h, dt = extent / 256, 1.0 / 50
    at_spike = parabolic_maximal(f, times, extent, (0.0,), 0.5, radii)
    # mass h * min(2r^2, dt) over the smallest window, r^-3 normalized, wins
    assert at_spike == pytest.approx(h * min(2 * 0.05**2, dt) / 0.05**3, rel=1e-6)
    vals = [
        parabolic_maximal(f, times, extent, (x,), 0.5, radii)
        for x in (0.0, 0.12, 0.25, 0.45)
    ]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_maximal_dominates_each_single_radius():
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 21)
    f = rng.random((21, 64))
    radii = [0.1, 0.2, 0.4]
    combined = parabolic_maximal(f, times, 2.0, (0.3,), 0.5, radii)
    for r in radii:
        single = parabolic_maximal(f, times, 2.0, (0.3,), 0.5, [r])
        assert combined >= single - 1e-15


def test_maximal_rejects_oversized_radii():
    times = np.linspace(0.0, 1.0, 11)
    f = np.zeros((11, 64))
    with pytest.raises(ValueError):
        parabolic_maximal(f, times, 2.0, (0.0,), 0.5, [1.5])


# --- good/bad partition -------------------------------------------------------


def test_partition_of_standing_wave_has_empty_bad_set(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    dt = 2.5e-4
    cfg = SolverConfig(dt=dt, t_end=20 * dt, sample_every=5)
    traj = evolve(wave, cfg)
    for threshold in (1e-3, 1e-2, 1e-1):
        part = partition_good_bad(traj, threshold, band=0.05)
        assert part.bad_points == 0
        assert part.weak_l1_ratio == 0.0 or part.weak_l1_ratio < 1e-12


def test_partition_masks_are_disjoint_and_cover_the_layer(perturbed_traj_small):
    # the bad points lie in the layer region and the good points are the
    # rest of it: both are present here, and an empty layer has no bad point
    traj = perturbed_traj_small
    part = partition_good_bad(traj, threshold=1e-4, band=0.05)
    layer_points = np.count_nonzero(np.abs(np.stack([f.values for f in traj.frames])) < 0.95)
    assert 0 < part.bad_points < layer_points
    assert partition_good_bad(traj, threshold=1e-4, band=1.0) == GoodBadPartition(0, 0.0)


def test_partition_bad_set_empty_at_huge_threshold(perturbed_traj_small):
    part = partition_good_bad(perturbed_traj_small, threshold=1e9, band=0.05)
    assert part.bad_points == 0


def test_one_maximal_field_serves_every_threshold(perturbed_traj_small):
    traj = perturbed_traj_small
    thresholds = (3e-4, 1e-3, 3e-3)
    for threshold, shared in zip(thresholds, good_bad_partitions(traj, thresholds, band=0.05)):
        assert shared == partition_good_bad(traj, threshold, band=0.05)
    # the tilt mass is the trapezoid time integral of each frame's tilt
    # excess: read through the ratio at a tiny threshold, where the whole
    # tilted layer is bad
    grid, threshold = traj.grid, 1e-4
    weights = np.full(len(traj), traj.dt_sample)
    weights[[0, -1]] = 0.5 * traj.dt_sample
    tilt_mass = sum(w * tilt_excess(FrameBundle(frame), (0.0, 1.0))
                    for w, frame in zip(weights, traj.frames))
    bad_mass = sum(w * np.sum(np.where((np.abs(f.values) < 0.95) & (m >= threshold),
                                       f.epsilon * FrameBundle(f).grad_sq, 0.0)) * grid.cell_volume
                   for w, f, m in zip(weights, traj.frames, partition_maximal(traj)))
    part = partition_good_bad(traj, threshold, band=0.05)
    assert part.weak_l1_ratio == pytest.approx(bad_mass * threshold / tilt_mass, rel=1e-12)


def test_good_set_lipschitz_constant_shrinks_with_threshold(perturbed_traj_small):
    # smaller thresholds keep only flatter columns: the max slope of the
    # extracted graph over good columns is monotone in the threshold
    traj = perturbed_traj_small
    graph = extract_graph(traj, 0.0)
    g = traj.grid
    layer = np.abs(np.stack([f.values for f in traj.frames])) < 0.95
    maximal = partition_maximal(traj)
    slopes = []
    for threshold in (3e-4, 1e-3, 3e-3):
        good = layer & (maximal < threshold)
        # project good set: a base column is good if its crossing point is
        good_cols = np.zeros(graph.heights.shape, dtype=bool)
        axis = g.axis()
        for fi in range(len(traj)):
            idx = np.clip(np.round((graph.heights[fi] - axis[0]) / g.spacing).astype(int), 0, g.points - 1)
            cols = np.arange(g.points)
            good_cols[fi] = good[fi][cols, idx] & graph.valid[fi]
        dh = (np.roll(graph.heights, -1, axis=1) - np.roll(graph.heights, 1, axis=1)) / (2 * g.spacing)
        slopes.append(np.max(np.abs(dh[good_cols])) if np.any(good_cols) else 0.0)
    assert slopes[0] <= slopes[1] <= slopes[2]


# --- heat comparison and excess decay ----------------------------------------


def synthetic_mode_trajectory(amplitude=0.01, mode=1, eps=0.02, n=256, extent=1.28, nt=9):
    """Frames whose zero level follows the exact heat decay of one mode."""
    g = Grid(dim=2, extent=extent, points=n)
    k = 2 * np.pi * mode / extent
    X, Y = g.dense_coords()
    dt = 0.002
    frames = []
    for j in range(nt):
        t = j * dt
        a = amplitude * np.exp(-(k**2) * t)
        vals = np.clip(np.tanh((Y - a * np.cos(k * X)) / eps), -(1 - 1e-12), 1 - 1e-12)
        frames.append(ScalarField(grid=g, values=vals, epsilon=eps, time=t))
    return Trajectory(frames=tuple(frames), dt_sample=dt)


def test_heat_compare_recovers_exact_mode_decay():
    traj = synthetic_mode_trajectory()
    graph = extract_graph(traj, 0.0)
    x = np.linspace(-0.64, 0.64, 256, endpoint=False)
    h0 = 0.01 * np.cos(2 * np.pi * x / 1.28)
    err = heat_compare(graph, reference_initial=h0)
    assert err < 1e-3


def test_heat_compare_flat_graph_gives_zero(wave_2d):
    graph = extract_graph([wave_2d], 0.0)
    assert heat_compare(graph, graph.heights[0]) < 1e-8


def test_heat_compare_rejects_low_validity():
    g = Grid(dim=2, extent=1.28, points=128)
    vals = np.tanh(np.broadcast_to(g.coords()[-1], g.shape) / 0.05).copy()
    vals[: g.points // 2, :] = 1.0  # half the columns have no crossing
    f = ScalarField(grid=g, values=vals, epsilon=0.05)
    graph = extract_graph([f], 0.0)
    with pytest.raises(GraphExtractionError):
        heat_compare(graph, graph.heights[0])


def test_excess_decay_fit_recovers_gentle_tilt():
    g = Grid(dim=2, extent=1.28, points=256)
    eps = 0.02
    slope = 0.05
    dist = graph_pair_distance(1.28, [sine_mode(slope * 1.28 / (2 * np.pi), 1, 1.28,
                                                phase=-np.pi / 2)])
    field = prepare_interface(dist, g, eps)
    # short run: the mode decays ~0.2% per sample here, so the pooled fit
    # stays on the initial slope
    dt = 5e-5
    cfg = SolverConfig(dt=dt, t_end=8 * dt, sample_every=2)
    traj = evolve(field, cfg)
    t0 = traj.times[2]
    report = excess_decay_ratio(traj, theta=0.25, scale=0.2, center_time=t0)
    true_normal = np.array([-slope, 1.0]) / np.hypot(slope, 1.0)
    assert np.linalg.norm(np.asarray(report.fitted_normal) - true_normal) < 1e-3
    # both excesses are the diagnostics' own height_excess, bit for bit; at
    # scale 0.3 a quadrature of its own would differ from it in round-off
    for scale in (0.2, 0.3):
        report = excess_decay_ratio(traj, theta=0.25, scale=scale, center_time=t0)
        flat = height_excess(traj, Hyperplane.vertical(2), ParabolicCylinder((0, 0), t0, scale))
        fitted = height_excess(traj, Hyperplane(report.fitted_normal, report.fitted_offset),
                               ParabolicCylinder((0, 0), t0, 0.25 * scale))
        assert report.height_excess_unit == flat
        assert report.ratio == fitted / flat


def test_excess_decay_exact_wave_sits_at_the_layer_floor(grid_2d):
    # without genuine height variance the excess is pure layer thickness:
    # the contraction ratio sits near theta^-2 and the repulsion gate
    # reports the floor regime (verdict None)
    wave = standing_wave(grid_2d, 0.02)
    dt = 5e-5
    cfg = SolverConfig(dt=dt, t_end=40 * dt, sample_every=8)
    traj = evolve(wave, cfg)
    report = excess_decay_ratio(traj, theta=0.25, scale=0.2, center_time=traj.times[2])
    assert report.normal_deviation < 1e-6
    assert report.layer_repulsion_value < 10.0
    assert report.passes(k1=10.0) is None
    assert report.ratio > 1.0  # the theta^-2 floor, nowhere near theta/2
