"""Periodic Cartesian grids and the immutable field/trajectory containers.

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

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Grid",
    "PotentialSpec",
    "DOUBLE_WELL",
    "ScalarField",
    "ParabolicCylinder",
    "Trajectory",
]


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
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.points < 8:
            raise ValueError(f"points must be >= 8, got {self.points}")
        if self.points % 2 != 0:
            raise ValueError(f"points must be even, got {self.points}")
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")

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

    def sample(self, fn: Callable[..., np.ndarray]) -> np.ndarray:
        """Evaluate ``fn(x1, ..., xd)`` on the lattice."""
        return np.broadcast_to(fn(*self.coords()), self.shape).astype(np.float64)


@dataclass(frozen=True)
class PotentialSpec:
    """The double-well ``W(u) = (1 - u^2)^2 / 2`` with wells at u = -1, +1.

    This normalization makes ``tanh(x / epsilon)`` an exact standing wave of
    the reaction-diffusion flow and gives the wave the line energy 4/3.
    """

    well_values: tuple[float, float] = (-1.0, 1.0)

    def value(self, u: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 - u * u) ** 2

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return -2.0 * u * (1.0 - u * u)

    def second_derivative(self, u: np.ndarray) -> np.ndarray:
        return 6.0 * u * u - 2.0

    @property
    def max_curvature(self) -> float:
        """max |W''| over [-1, 1], used by explicit time-step bounds."""
        return 4.0


DOUBLE_WELL = PotentialSpec()

# Total energy of the 1-d standing wave, integral of (1 - s^2) over (-1, 1).
WAVE_ENERGY = 4.0 / 3.0


@dataclass(frozen=True)
class ScalarField:
    """A scalar sample ``u`` on a grid at one instant, with its layer width."""

    grid: Grid
    values: np.ndarray
    epsilon: float
    time: float = 0.0
    potential: PotentialSpec = field(default=DOUBLE_WELL)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "values", _freeze(v))

    def with_values(self, values: np.ndarray, time: float | None = None) -> "ScalarField":
        return ScalarField(
            grid=self.grid,
            values=values,
            epsilon=self.epsilon,
            time=self.time if time is None else time,
            potential=self.potential,
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
    """Uniformly sampled time slices of one evolving field."""

    frames: tuple[ScalarField, ...]
    dt_sample: float

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("trajectory needs at least one frame")
        object.__setattr__(self, "frames", tuple(self.frames))
        g0, e0, p0 = self.frames[0].grid, self.frames[0].epsilon, self.frames[0].potential
        for f in self.frames[1:]:
            if f.grid != g0 or f.epsilon != e0 or f.potential != p0:
                raise ValueError("all frames must share grid, epsilon and potential")
        if len(self.frames) > 1:
            if not self.dt_sample > 0:
                raise ValueError("dt_sample must be positive")
            t = self.times
            if not np.allclose(np.diff(t), self.dt_sample, rtol=1e-10, atol=1e-14):
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

    def window(self, t_lo: float, t_hi: float) -> "Trajectory":
        """Sub-trajectory of frames with ``t_lo <= t <= t_hi`` (small slack)."""
        slack = 1e-12 * max(1.0, abs(t_hi))
        keep = [f for f in self.frames if t_lo - slack <= f.time <= t_hi + slack]
        if not keep:
            raise ValueError(f"no frames inside time window [{t_lo}, {t_hi}]")
        return Trajectory(frames=tuple(keep), dt_sample=self.dt_sample)


def as_trajectory(obj: ScalarField | Trajectory | Sequence[ScalarField]) -> Trajectory:
    if isinstance(obj, Trajectory):
        return obj
    if isinstance(obj, ScalarField):
        return Trajectory(frames=(obj,), dt_sample=1.0)
    return Trajectory(frames=tuple(obj), dt_sample=obj[1].time - obj[0].time if len(obj) > 1 else 1.0)
