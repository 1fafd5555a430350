"""Periodic Cartesian grids, the double-well, and the immutable
field/trajectory containers.

Everything downstream (solver, diagnostics, level-set machinery) computes on
these types.  All containers are frozen dataclasses and their numpy payloads
are marked read-only after construction, so instances can be shared freely
across threads.

Conventions:
    * The box is ``[-extent/2, extent/2)`` in every axis, periodic.
    * Arrays are indexed ``ij`` (axis 0 = x_1, ..., last axis = the vertical
      coordinate used by the graph/plane diagnostics).
    * ``interface_dim`` is one less than the ambient dimension.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Grid",
    "is_finite_number",
    "WELL_CURVATURE",
    "well",
    "well_derivative",
    "NonFiniteFieldError",
    "ScalarField",
    "ParabolicCylinder",
    "Trajectory",
    "in_window",
    "window_weights",
    "time_integral",
]


def is_finite_number(value) -> bool:
    """A finite real number: not a bool, and an integer only within the
    float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on ``[-extent/2, extent/2)^dim``.

    ``points`` is the number of lattice points per axis; it must be even so
    the real-spectral differentiation convention (Nyquist derivative zeroed)
    is well defined.
    """

    dim: int
    extent: float
    points: int

    def __post_init__(self) -> None:
        if not (_is_integer(self.dim) and self.dim in (1, 2, 3)):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        if not _is_integer(self.points):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 8:
            raise ValueError(f"points must be >= 8, got {self.points}")
        if self.points % 2 != 0:
            raise ValueError(f"points must be even, got {self.points}")
        if not (is_finite_number(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be a positive finite number, got {self.extent!r}")
        try:
            volume = self.cell_volume
        except OverflowError:  # an operand or the result is past the float range
            volume = math.inf
        if not (math.isfinite(volume) and volume > 0):
            raise ValueError(f"extent {self.extent!r} over {self.points} points gives the "
                             f"cell volume {volume:g} in {self.dim} dimensions")

    @property
    def spacing(self) -> float:
        return self.extent / self.points

    @property
    def interface_dim(self) -> int:
        """Dimension n of a hypersurface in this ambient box (dim = n + 1)."""
        return self.dim - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """Coordinates of one axis, ``-L/2 + h*arange(N)``."""
        return -0.5 * self.extent + self.spacing * np.arange(self.points)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable (sparse meshgrid) coordinate arrays, one per axis."""
        return tuple(np.meshgrid(*([self.axis()] * self.dim), indexing="ij", sparse=True))

    def dense_coords(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"))

    def minimal_image(self, delta: np.ndarray) -> np.ndarray:
        """Wrap coordinate differences into ``[-extent/2, extent/2)``."""
        L = self.extent
        return (delta + 0.5 * L) % L - 0.5 * L

    def displacement(self, center: Sequence[float]) -> tuple[np.ndarray, ...]:
        """Wrapped displacements ``x - center``, one broadcastable (sparse)
        array per axis, as :meth:`coords`."""
        return tuple(self.minimal_image(x - c) for x, c in zip(self.coords(), center))


# The double-well W(u) = (1 - u^2)^2 / 2 with wells at u = -1, +1.  This
# normalization makes tanh(x / epsilon) an exact standing wave of the
# reaction-diffusion flow and gives the wave the line energy 4/3.


def well(u: np.ndarray) -> np.ndarray:
    """``W(u) = (1 - u^2)^2 / 2``."""
    return 0.5 * (1.0 - u * u) ** 2


def well_derivative(u: np.ndarray) -> np.ndarray:
    """``W'(u) = -2 u (1 - u^2)``."""
    return -2.0 * u * (1.0 - u * u)


# max |W''| over [-1, 1], used by explicit time-step bounds.
WELL_CURVATURE = 4.0

# Total energy of the 1-d standing wave, integral of (1 - s^2) over (-1, 1).
WAVE_ENERGY = 4.0 / 3.0


class NonFiniteFieldError(ValueError):
    """Field values that are not all finite."""


@dataclass(frozen=True)
class ScalarField:
    """A scalar sample ``u`` on a grid at one instant, with its layer width."""

    grid: Grid
    values: np.ndarray
    epsilon: float
    time: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.grid, Grid):
            raise ValueError(f"grid must be a Grid, got {type(self.grid).__name__}")
        try:
            v = np.asarray(self.values)
            if v.dtype.kind == "c":
                raise TypeError("complex values")
            v = np.asarray(v, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"values must be real numbers: {exc}") from None
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteFieldError("field values must be finite")
        if not (is_finite_number(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a positive finite number, got {self.epsilon!r}")
        if not is_finite_number(self.time):
            raise ValueError(f"time must be a finite number, got {self.time!r}")
        object.__setattr__(self, "values", _freeze(v))

    def with_values(self, values: np.ndarray, time: float | None = None) -> "ScalarField":
        return ScalarField(
            grid=self.grid,
            values=values,
            epsilon=self.epsilon,
            time=self.time if time is None else time,
        )


@dataclass(frozen=True)
class ParabolicCylinder:
    """Space-time ball ``B_r(x0) x (t0 - r^2, t0 + r^2)``."""

    center_space: tuple[float, ...]
    center_time: float
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center_space", tuple(float(c) for c in self.center_space))

    @property
    def time_window(self) -> tuple[float, float]:
        r2 = self.radius**2
        return (self.center_time - r2, self.center_time + r2)

    def validate_against(self, grid: Grid) -> None:
        if len(self.center_space) != grid.dim:
            raise ValueError(
                f"cylinder center has {len(self.center_space)} coordinates, grid dim is {grid.dim}"
            )
        if self.radius > 0.5 * grid.extent:
            raise ValueError(
                f"cylinder radius {self.radius} exceeds half the box extent {0.5 * grid.extent}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time slices of one evolving field, two or more."""

    frames: tuple[ScalarField, ...]
    dt_sample: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) < 2:
            raise ValueError(f"a trajectory needs two frames or more, got {len(self.frames)}")
        g0, e0 = self.frames[0].grid, self.frames[0].epsilon
        for f in self.frames[1:]:
            if f.grid != g0 or f.epsilon != e0:
                raise ValueError("all frames must share grid and epsilon")
        if not self.dt_sample > 0:
            raise ValueError("dt_sample must be positive")
        if not np.allclose(np.diff(self.times), self.dt_sample, rtol=1e-10, atol=1e-14):
            raise ValueError("frame times must increase uniformly by dt_sample")

    @property
    def grid(self) -> Grid:
        return self.frames[0].grid

    @property
    def epsilon(self) -> float:
        return self.frames[0].epsilon

    @property
    def times(self) -> np.ndarray:
        return np.array([f.time for f in self.frames])

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[ScalarField]:
        return iter(self.frames)

    def __getitem__(self, i: int) -> ScalarField:
        return self.frames[i]

    def frame_nearest(self, t: float) -> tuple[int, ScalarField]:
        i = int(np.argmin(np.abs(self.times - t)))
        return i, self.frames[i]


def in_window(times: float | Sequence[float], lo: float, hi: float) -> np.ndarray:
    """Which sample times lie in the window ``[lo, hi]``, widened on both
    sides by ``1e-12 * max(1, |hi|)`` so that sample times carrying round-off
    count: the membership half of :func:`window_weights`."""
    times = np.asarray(times)
    slack = 1e-12 * max(1.0, abs(hi))
    return (times >= lo - slack) & (times <= hi + slack)


def window_weights(times: Sequence[float], lo: float, hi: float,
                   dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The time rule of every parabolic cylinder: the indices of the sample
    times :func:`in_window` ``[lo, hi]`` and their trapezoid weights for the
    sampling interval ``dt``.

    A window holding a single sample gets the measure ``min(hi - lo, dt)``;
    an empty window is an error.
    """
    idx = np.nonzero(in_window(times, lo, hi))[0]
    if idx.size == 0:
        raise ValueError(f"no frames inside time window [{lo}, {hi}]")
    if idx.size == 1:
        return idx, np.array([min(hi - lo, dt)])
    weights = np.full(idx.size, dt)
    weights[0] = weights[-1] = 0.5 * dt
    return idx, weights


def time_integral(times: Sequence[float], sums: Mapping[int, float] | Sequence[float],
                  window: tuple[float, float] | None = None) -> float:
    """The :func:`window_weights` integral over ``window`` (None: the whole run)
    of ``sums[k]`` at ``times[k]``, the uniform samples of one flow; fewer than
    two samples have no sampling interval and are an error."""
    if len(times) < 2:
        raise ValueError(f"a time integral needs two samples or more, got {len(times)}")
    idx, weights = window_weights(times, *(window or (times[0], times[-1])), times[1] - times[0])
    return float(np.sum(np.array([sums[k] for k in idx.tolist()]) * weights))
