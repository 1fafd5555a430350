import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from acflow import Grid, ParabolicCylinder, ScalarField, Trajectory
from acflow.io import FieldFileError, read_field, write_field


def test_grid_spacing_is_extent_over_points():
    g = Grid(dim=2, extent=2.0, points=64)
    assert g.spacing == 2.0 / 64
    assert g.shape == (64, 64)
    assert g.interface_dim == 1


@pytest.mark.parametrize("dim", [0, 4])
def test_grid_rejects_bad_dimension(dim):
    with pytest.raises(ValueError):
        Grid(dim=dim, extent=1.0, points=16)


def test_grid_rejects_odd_or_tiny_point_counts():
    with pytest.raises(ValueError):
        Grid(dim=1, extent=1.0, points=17)
    with pytest.raises(ValueError):
        Grid(dim=1, extent=1.0, points=4)


def test_axis_is_centered_and_periodic():
    g = Grid(dim=1, extent=2.0, points=16)
    x = g.axis()
    assert x[0] == -1.0
    assert x[-1] == 1.0 - g.spacing
    assert 0.0 in x


def test_minimal_image_wraps_to_half_box():
    g = Grid(dim=1, extent=2.0, points=16)
    d = g.minimal_image(np.array([1.5, -1.5, 0.3]))
    assert np.allclose(d, [-0.5, 0.5, 0.3])


def test_field_rejects_nonfinite_values():
    g = Grid(dim=1, extent=1.0, points=16)
    v = np.zeros(16)
    v[3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid=g, values=v, epsilon=0.1)


def test_field_rejects_shape_mismatch():
    g = Grid(dim=2, extent=1.0, points=16)
    with pytest.raises(ValueError):
        ScalarField(grid=g, values=np.zeros(16), epsilon=0.1)


def test_field_values_are_read_only():
    g = Grid(dim=1, extent=1.0, points=16)
    f = ScalarField(grid=g, values=np.zeros(16), epsilon=0.1)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_cylinder_radius_must_fit_half_box():
    g = Grid(dim=2, extent=1.0, points=16)
    cyl = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.7)
    with pytest.raises(ValueError):
        cyl.validate_against(g)


def test_trajectory_requires_uniform_times():
    g = Grid(dim=1, extent=1.0, points=16)
    f = lambda t: ScalarField(grid=g, values=np.zeros(16), epsilon=0.1, time=t)
    with pytest.raises(ValueError):
        Trajectory(frames=(f(0.0), f(0.1), f(0.3)), dt_sample=0.1)
    traj = Trajectory(frames=(f(0.0), f(0.1), f(0.2)), dt_sample=0.1)
    assert len(traj) == 3


def test_trajectory_requires_shared_epsilon():
    g = Grid(dim=1, extent=1.0, points=16)
    a = ScalarField(grid=g, values=np.zeros(16), epsilon=0.1, time=0.0)
    b = ScalarField(grid=g, values=np.zeros(16), epsilon=0.2, time=0.1)
    with pytest.raises(ValueError):
        Trajectory(frames=(a, b), dt_sample=0.1)


def test_field_snapshot_roundtrip(tmp_path):
    g = Grid(dim=2, extent=1.5, points=32)
    rng = np.random.default_rng(7)
    f = ScalarField(grid=g, values=rng.standard_normal(g.shape), epsilon=0.03, time=0.25)
    path = tmp_path / "snap.field"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == g
    assert back.epsilon == 0.03
    assert back.time == 0.25
    assert np.array_equal(back.values, f.values)


_JSON_SCALARS = st.one_of(st.integers(-2, 40), st.integers(), st.floats(), st.none(),
                          st.booleans(), st.text(max_size=3))
_VALID_HEADER = {"dim": 1, "points_per_axis": 8, "extent": 1.0, "epsilon": 0.1, "time": 0.0}


def _snapshot(changes: dict, blob: bytes) -> bytes:
    """A 1-D snapshot on 8 points with some header values replaced (None:
    the key dropped), and ``blob`` as its values."""
    header = {**_VALID_HEADER, **changes}
    header = {k: v for k, v in header.items() if v is not None}
    return json.dumps(header).encode() + b"\n" + blob


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.binary(),
    st.builds(_snapshot, st.dictionaries(st.sampled_from(sorted(_VALID_HEADER)), _JSON_SCALARS),
              st.binary(min_size=56, max_size=72)),
))
def test_field_reader_returns_a_field_or_raises_field_file_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.field"
    path.write_bytes(data)
    try:
        field = read_field(path)
    except FieldFileError:
        return
    assert isinstance(field, ScalarField)


# --- constructors: a valid object or a ValueError ----------------------------

_NUMBERS = st.one_of(st.integers(), st.integers(-2, 40), st.floats(), st.floats(0.0, 4.0),
                     st.integers(-2, 40).map(np.int64), st.floats(0.0, 4.0).map(np.float64))
_ANYTHING = st.one_of(_NUMBERS, st.none(), st.booleans(), st.text(max_size=3),
                      st.lists(st.integers(), max_size=2), st.complex_numbers(max_magnitude=2))
_VALUES = st.one_of(
    _ANYTHING,
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_, np.complex128]),
               st.sampled_from([(8,), (8, 8), (7,), (), (0,)]),
               elements={"allow_nan": True, "allow_infinity": True}),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(dim=_ANYTHING, extent=_ANYTHING, points=_ANYTHING)
def test_grid_is_valid_or_raises_value_error(dim, extent, points):
    try:
        g = Grid(dim=dim, extent=extent, points=points)
    except ValueError:
        return
    assert not isinstance(g.dim, bool) and g.dim in (1, 2, 3)
    assert isinstance(g.points, numbers.Integral) and not isinstance(g.points, bool)
    assert g.points >= 8 and g.points % 2 == 0
    assert math.isfinite(g.extent) and g.extent > 0
    assert math.isfinite(g.cell_volume) and g.cell_volume > 0
    assert g.shape == (g.points,) * g.dim


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(grid=st.one_of(st.sampled_from([Grid(dim=1, extent=1.0, points=8),
                                       Grid(dim=2, extent=2.0, points=8)]), _ANYTHING),
       values=_VALUES, epsilon=_ANYTHING, time=_ANYTHING)
def test_scalar_field_is_valid_or_raises_value_error(grid, values, epsilon, time):
    try:
        f = ScalarField(grid=grid, values=values, epsilon=epsilon, time=time)
    except ValueError:
        return
    assert isinstance(f.grid, Grid)
    assert f.values.dtype == np.float64 and f.values.shape == grid.shape
    assert np.all(np.isfinite(f.values)) and not f.values.flags.writeable
    assert math.isfinite(f.epsilon) and f.epsilon > 0
    assert math.isfinite(f.time)

