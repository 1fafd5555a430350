"""Fourier-spectral differential operators and masked quadrature.

Derivatives are exact (to round-off) for band-limited data on the periodic
grid.  Quadrature is the midpoint rule in space (a sharp cell-center
indicator for balls, first-order consistent) and the trapezoid rule over the
sampled frames inside a cylinder's time window.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid, ParabolicCylinder, ScalarField, Trajectory

__all__ = [
    "Symbols",
    "symbols",
    "spectrum",
    "from_spectrum",
    "gradient",
    "gradient_values",
    "gradient_from_hat",
    "laplacian",
    "laplacian_values",
    "laplacian_from_hat",
    "ball_mask",
    "integrate",
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
    """Half spectrum ``rfftn(values)`` of real lattice values."""
    return np.fft.rfftn(values, s=grid.shape, axes=_axes(grid))


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


def gradient(field: ScalarField) -> tuple[ScalarField, ...]:
    g = gradient_values(field.grid, field.values)
    return tuple(field.with_values(g[ax]) for ax in range(field.grid.dim))


def laplacian_from_hat(grid: Grid, u_hat: np.ndarray) -> np.ndarray:
    """Spectral Laplacian of the field with half spectrum ``u_hat``."""
    return from_spectrum(grid, symbols(grid).neg_k2 * u_hat)


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return laplacian_from_hat(grid, spectrum(grid, values))


def laplacian(field: ScalarField) -> ScalarField:
    return field.with_values(laplacian_values(field.grid, field.values))


def ball_mask(grid: Grid, center: Sequence[float], radius: float) -> np.ndarray:
    """Cell-center indicator of ``|x - center| <= radius`` (periodic metric)."""
    d2 = np.zeros(grid.shape)
    for ax, x in enumerate(grid.coords()):
        d2 = d2 + grid.minimal_image(x - center[ax]) ** 2
    return d2 <= radius**2


def _box_sum(grid: Grid, values: np.ndarray, mask: np.ndarray | None) -> float:
    if mask is None:
        return float(np.sum(values) * grid.cell_volume)
    return float(np.sum(values[mask]) * grid.cell_volume)


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights for uniformly sampled times (single frame -> 1)."""
    n = len(times)
    if n == 1:
        return np.array([1.0])
    dt = times[1] - times[0]
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def integrate_values(
    grid: Grid,
    slices: Sequence[tuple[float, np.ndarray]],
    region: ParabolicCylinder | None = None,
) -> float:
    """Integrate sampled densities over a cylinder or the whole box.

    ``slices`` is a sequence of ``(time, values)`` pairs at uniform spacing.
    A single slice gives the plain spatial integral (no time measure).  With
    a region, space is restricted to the ball and time to the frames inside
    ``|t - t0| <= r^2``; a window so thin that it holds a single sample gets
    the midpoint measure ``min(2 r^2, sampling interval)``.
    """
    n_given = len(slices)
    dt_given = slices[1][0] - slices[0][0] if n_given > 1 else None
    if region is not None:
        region.validate_against(grid)
        mask = ball_mask(grid, region.center_space, region.radius)
        lo, hi = region.time_window
        slack = 1e-12 * max(1.0, abs(hi))
        slices = [(t, v) for (t, v) in slices if lo - slack <= t <= hi + slack]
        if not slices:
            raise ValueError(f"no frames inside time window [{lo}, {hi}]")
    else:
        mask = None

    spatial = np.array([_box_sum(grid, v, mask) for (_, v) in slices])
    if len(slices) == 1:
        if n_given > 1 and region is not None:
            return float(spatial[0]) * min(2.0 * region.radius**2, dt_given)
        return float(spatial[0])
    times = np.array([t for (t, _) in slices])
    return float(np.sum(spatial * _trapezoid_weights(times)))


def integrate(
    density: ScalarField | Trajectory,
    region: ParabolicCylinder | None = None,
) -> float:
    """Quadrature of a density field (spatial) or trajectory (space-time).

    Whole-box spatial quadrature is exact for trigonometric polynomials;
    masked ball quadrature is first-order in the spacing.
    """
    if isinstance(density, ScalarField):
        slices = [(density.time, density.values)]
        return integrate_values(density.grid, slices, region)
    slices = [(f.time, f.values) for f in density.frames]
    return integrate_values(density.grid, slices, region)
