"""Fourier-spectral differential operators and masked quadrature.

Derivatives are exact (to round-off) for band-limited data on the periodic
grid.  Quadrature is the midpoint rule in space (a sharp cell-center
indicator for balls, first-order consistent) and the trapezoid rule over the
sampled frames inside a cylinder's time window.

Parabolic cylinders ``B_r(x0) x [t0 - r^2, t0 + r^2]`` follow one rule each
in space and time.  Balls are closed (:func:`within_radius`): a lattice point
at distance exactly ``r`` is inside, so a ball about a lattice point is
symmetric.  Time is integrated by :func:`acflow.grid.time_integral`, and
:func:`integrate_values` takes its samples, two or more, as a stream of frames.

Spectral convention.  Fields are real, so every transform is a real one:
``rfftn``/``irfftn`` over all axes, always with ``s=grid.shape``.  A half
spectrum ``u_hat`` has the full ``points`` modes on every axis but the
last, which holds the ``points // 2 + 1`` non-negative modes, Nyquist
included.  First-derivative symbols ``1j * k`` zero the Nyquist mode on
every axis: on a full axis it is index ``points // 2`` (``k = -points/2``
in ``fftfreq`` order), on the half axis it is the last column.  The
Nyquist mode of real data has no odd partner, so its derivative is not
real; zeroing it is the standard convention and matches the complex-FFT
path.  The Laplacian symbol ``-|k|^2`` is even and keeps the Nyquist mode.
The symbols are built once per grid and cached on it (:func:`symbols`).

:func:`spectrum` gives ``rfftn`` a new output array (``out=``): the real
pass over the last axis writes into it and every complex pass over another
axis runs in place on it, where ``rfftn`` alone allocates a full-size complex
array per pass.  The array is new on every call, never cached: flows on other
threads transform at the same time, and the cnab2 step keeps each step's
spectrum for the next one.  :func:`from_spectrum` keeps numpy's own
allocation: ``irfftn(..., out=)`` measured slower on the concurrent circle
flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .grid import Grid, ParabolicCylinder, ScalarField, in_window, time_integral

__all__ = [
    "Symbols",
    "symbols",
    "spectrum",
    "from_spectrum",
    "gradient_values",
    "gradient_from_hat",
    "laplacian_values",
    "laplacian_from_hat",
    "within_radius",
    "ball_mask",
    "integrate_values",
]


@dataclass(frozen=True)
class Symbols:
    """Half-spectrum Fourier symbols of one grid (see the module docstring).

    ``ik[ax]`` is ``1j * k_ax`` with the Nyquist mode zeroed, shaped to
    broadcast against a half spectrum; ``neg_k2`` is ``-|k|^2`` on the whole
    half spectrum.
    """

    ik: tuple[np.ndarray, ...]
    neg_k2: np.ndarray


def _build_symbols(grid: Grid) -> Symbols:
    n, h, last = grid.points, grid.spacing, grid.dim - 1
    ks, iks = [], []
    for ax in range(grid.dim):
        k = 2.0 * np.pi * (np.fft.rfftfreq if ax == last else np.fft.fftfreq)(n, d=h)
        k_first = k.copy()
        k_first[n // 2] = 0.0  # the Nyquist mode, on a full axis and on the half axis
        shape = [1] * grid.dim
        shape[ax] = k.size
        ks.append(k.reshape(shape))
        iks.append(_frozen(1j * k_first.reshape(shape)))
    return Symbols(ik=tuple(iks), neg_k2=_frozen(-sum(k * k for k in ks)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def symbols(grid: Grid) -> Symbols:
    """The grid's symbols, built on first use and cached on the (frozen) grid."""
    cached = grid.__dict__.get("_symbols")
    if cached is None:
        cached = _build_symbols(grid)
        object.__setattr__(grid, "_symbols", cached)
    return cached


def _axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(grid.dim))


def spectrum(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Half spectrum ``rfftn(values)`` of real lattice values, in a new array
    that every axis pass writes into (see the module docstring)."""
    out = np.empty(grid.shape[:-1] + (grid.points // 2 + 1,), dtype=complex)
    return np.fft.rfftn(values, s=grid.shape, axes=_axes(grid), out=out)


def from_spectrum(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """Real lattice values ``irfftn(u_hat)`` of a half spectrum."""
    return np.fft.irfftn(u_hat, s=grid.shape, axes=_axes(grid))


def gradient_from_hat(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """Spectral partial derivatives of the field with half spectrum ``u_hat``,
    stacked along a leading axis."""
    out = np.empty((grid.dim,) + grid.shape)
    for ax, ik in enumerate(symbols(grid).ik):
        out[ax] = from_spectrum(grid, ik * u_hat)
    return out


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral partial derivatives, stacked along a leading axis."""
    return gradient_from_hat(grid, spectrum(grid, values))


def laplacian_from_hat(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """Spectral Laplacian of the field with half spectrum ``u_hat``."""
    return from_spectrum(grid, symbols(grid).neg_k2 * u_hat)


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return laplacian_from_hat(grid, spectrum(grid, values))


def within_radius(d2: np.ndarray, radius: float) -> np.ndarray:
    """Closed-ball membership ``d2 <= r^2 (1 + 1e-12)``: the slack is far above
    the round-off of a squared lattice displacement (~1e-13 relative at 512
    points), far below the relative gap ``(h/r)^2`` of squared lattice distances."""
    return d2 <= radius**2 * (1.0 + 1e-12)


def ball_mask(grid: Grid, center: Sequence[float], radius: float) -> np.ndarray:
    """Cell-center indicator of the closed ball ``|x - center| <= radius``
    (periodic metric)."""
    d2 = sum(d**2 for d in grid.displacement(center))
    return within_radius(np.broadcast_to(d2, grid.shape), radius)


def integrate_values(
    grid: Grid,
    frames: Iterable[ScalarField],
    density_at: Callable[[ScalarField], np.ndarray],
    regions: Sequence[ParabolicCylinder],
) -> list[float]:
    """Integrate one sampled density over each parabolic cylinder.

    ``frames`` are the samples, two or more, in time order at uniform
    spacing; a sample's time is its frame's ``time``, and
    ``density_at(frame)`` gives its density.  Each frame is read once, as it
    arrives, so a generator of frames (:func:`acflow.solver.sampled`) streams a flow
    into the integral without holding it.  Space is restricted to the ball
    and time to the samples inside ``|t - t0| <= r^2``, weighted by
    :func:`acflow.grid.window_weights` (a window so thin that it holds a
    single sample gets the measure ``min(2 r^2, sampling interval)``).

    The regions share the one pass: ``density_at`` is called once for each
    sample that some region's window holds (:func:`acflow.grid.in_window`),
    as it arrives, and its value is dropped once it has been summed over
    every ball that needs it, so one slice is held at a time.  The weights
    need every sample's time, so they are applied after the last sample; a
    region whose window holds no sample raises then.
    """
    rules = []  # per region: spatial mask, time window
    for region in regions:
        region.validate_against(grid)
        rules.append((ball_mask(grid, region.center_space, region.radius), region.time_window))
    times: list[float] = []
    spatial: list[dict[int, float]] = [{} for _ in rules]  # per region: sample -> ball sum
    for k, frame in enumerate(frames):
        times.append(frame.time)
        needed = [(mask, sums) for (mask, window), sums in zip(rules, spatial)
                  if in_window(frame.time, *window)]
        if needed:
            values = density_at(frame)
            for mask, sums in needed:
                sums[k] = float(np.sum(values[mask]) * grid.cell_volume)
    return [time_integral(times, sums, window) for (_, window), sums in zip(rules, spatial)]

