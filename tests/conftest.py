import tracemalloc
import weakref

import numpy as np
import pytest

from acflow import Grid, ScalarField, Trajectory, prepare_interface
from acflow.initial_data import circle_distance, plane_pair_distance


@pytest.fixture(scope="session")
def grid_1d():
    # box size keeps the companion fold 12.8 eps away at eps = 0.05
    return Grid(dim=1, extent=2.56, points=1024)


@pytest.fixture(scope="session")
def grid_2d():
    return Grid(dim=2, extent=1.2, points=256)


def standing_wave(grid: Grid, epsilon: float) -> ScalarField:
    """Flat layer pair: studied interface through 0, companion on the seam."""
    return prepare_interface(plane_pair_distance(grid.extent), grid, epsilon)


def circle_field(grid: Grid, epsilon: float, radius: float) -> ScalarField:
    return prepare_interface(circle_distance(radius), grid, epsilon)


def held(field: ScalarField, dt: float) -> Trajectory:
    """A slice held still over two samples, at its time and ``dt`` later: a
    cylinder whose time window holds both gives it ``dt`` times the slice's
    spatial mass over the ball (trapezoid weights ``dt/2`` each)."""
    return Trajectory(frames=(field, field.with_values(field.values, field.time + dt)),
                      dt_sample=dt)


def traced_peak(call) -> int:
    """The ``tracemalloc`` peak, in bytes, of what ``call()`` allocates while
    it runs, its result included; memory held before the call is not
    counted."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def released_stream(frames, keep_last: bool = False):
    """Yield ``frames`` unchanged, and check that their consumer lets go of
    each one before the next is made.

    Once the next frame has been taken from ``frames`` (or the stream has
    ended), the frame yielded before it, and its values array, must be
    freed; otherwise an ``AssertionError`` naming that frame's time is
    raised into the consumer.  With ``keep_last`` the last frame may
    outlive the stream.  Only weak references are held here, and no frame
    is held while the next one is taken, so a source that drops its own
    reference, such as :func:`acflow.solver.sampled`, leaves the consumer
    as the only holder.
    """
    source = iter(frames)
    kept = None  # weak references to the last frame yielded and its values
    while True:
        frame = next(source, None)
        if kept is not None and any(ref() is not None for ref in kept[1:]):
            if frame is not None or not keep_last:
                raise AssertionError(f"the frame at t={kept[0]:g} outlived the request "
                                     "for the next one")
        if frame is None:
            return
        kept = (frame.time, weakref.ref(frame), weakref.ref(frame.values))
        yield frame
        del frame


def frames_at(grid: Grid, times, values=None) -> list[ScalarField]:
    """Fields at ``times``, the ``k``-th holding ``values[k]`` (zeros when
    None): samples for ``integrate_values``, whose density a test reads off
    each frame."""
    if values is None:
        values = [np.zeros(grid.shape)] * len(times)
    return [ScalarField(grid=grid, values=v, epsilon=0.1, time=float(t))
            for t, v in zip(times, values)]


class _ConstantOne:
    def value(self, grid):
        return np.ones(grid.shape)

    def gradient(self, grid):
        return np.zeros((grid.dim,) + grid.shape)

    def hessian(self, grid):
        return np.zeros((grid.dim, grid.dim) + grid.shape)


def constant_one() -> _ConstantOne:
    """The weight 1, whose gradient and Hessian vanish."""
    return _ConstantOne()


@pytest.fixture(scope="session")
def wave_1d(grid_1d):
    return standing_wave(grid_1d, epsilon=0.05)


@pytest.fixture(scope="session")
def circle_traj_short(grid_2d):
    """Short shrinking-circle run shared by the identity tests."""
    from acflow import SolverConfig, evolve

    f = circle_field(grid_2d, 0.02, 0.35)
    dt = 0.0625 * 0.02**2
    cfg = SolverConfig(dt=dt, t_end=400 * dt, sample_every=4)
    return evolve(f, cfg)


@pytest.fixture(scope="session")
def perturbed_traj_small():
    """Gently perturbed flat layer, a two-mode graph over the base axis."""
    from acflow import Grid, SolverConfig, evolve, prepare_interface
    from acflow.initial_data import graph_pair_distance, sine_mode

    g = Grid(dim=2, extent=1.28, points=256)
    eps = 0.02
    mode = sine_mode(0.01, 2, 1.28)
    dist = graph_pair_distance(1.28, [mode])
    field = prepare_interface(dist, g, eps)
    dt = 5e-5
    cfg = SolverConfig(dt=dt, t_end=100 * dt, sample_every=20)
    return evolve(field, cfg)


@pytest.fixture(scope="session")
def wave_2d(grid_2d):
    return standing_wave(grid_2d, epsilon=0.02)


def zero_crossing_radius(field: ScalarField) -> float:
    """Largest zero crossing of the central row, linearly interpolated.

    Independent radius oracle for circular interfaces: no level-set
    machinery, just bracketing on the lattice along the x-axis through the
    center.
    """
    grid = field.grid
    n_mid = grid.points // 2
    if grid.dim == 2:
        row = field.values[:, n_mid]
    elif grid.dim == 3:
        row = field.values[:, n_mid, n_mid]
    else:
        row = field.values
    x = grid.axis()
    radii = []
    for i in range(grid.points - 1):
        a, b = row[i], row[i + 1]
        if a == 0.0:
            radii.append(abs(x[i]))
        elif a * b < 0:
            radii.append(abs(x[i] - a * (x[i + 1] - x[i]) / (b - a)))
    if not radii:
        raise AssertionError("no zero crossing found")
    return max(radii)
