"""Backward heat kernel weighting and the weighted monotonicity identity.

The kernel is normalized to the interface dimension n (ambient dimension
minus one): ``(4 pi (s-t))^(-n/2) exp(-|x-y|^2 / (4(s-t)))``, so that a flat
layer through the kernel point carries Gaussian density equal to the line
energy of the standing wave.  With nonnegative weight and non-positive
discrepancy the weighted energy is non-increasing in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import FrameBundle, TestFunction, energy_density, stress_energy
from .grid import Grid, Trajectory
from .operators import ball_mask

__all__ = [
    "KernelPoint",
    "huisken_kernel",
    "kernel_on_grid",
    "GaussianDensity",
    "gaussian_density",
    "MonotonicityResidual",
    "monotonicity_residual",
    "l2_linfty_ratio",
]

SUPPORT_RATIO = 1e-12


@dataclass(frozen=True)
class KernelPoint:
    """Terminal point (y, s) of the backward kernel; n is the interface dim."""

    y: tuple[float, ...]
    s: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", tuple(float(c) for c in self.y))
        if self.n < 0:
            raise ValueError("interface dimension must be nonnegative")


def huisken_kernel(kp: KernelPoint, x: Sequence[np.ndarray], t: float) -> np.ndarray:
    """Kernel value at positions x (a sequence of coordinate arrays)."""
    tau = kp.s - t
    if tau <= 0:
        raise ValueError(f"kernel needs t < s, got t={t} >= s={kp.s}")
    r2 = sum((np.asarray(xi) - yi) ** 2 for xi, yi in zip(x, kp.y))
    return (4.0 * math.pi * tau) ** (-kp.n / 2.0) * np.exp(-r2 / (4.0 * tau))


def kernel_on_grid(kp: KernelPoint, grid: Grid, t: float) -> np.ndarray:
    """Kernel on the lattice, with displacements wrapped to the torus.

    The Gaussian factorizes over the axes, so it is the outer product of
    one-dimensional factors: ``dim * points`` exponentials, not ``points^dim``.
    """
    tau = kp.s - t
    if tau <= 0:
        raise ValueError(f"kernel needs t < s, got t={t} >= s={kp.s}")
    out = (4.0 * math.pi * tau) ** (-kp.n / 2.0)
    for ax, x in enumerate(grid.coords()):
        out = out * np.exp(-grid.minimal_image(x - kp.y[ax]) ** 2 / (4.0 * tau))
    return out


def _support_ok(grid: Grid, tau: float) -> bool:
    # Minimal-image evaluation recenters the kernel, so the effective
    # boundary sits half a box away in every axis.
    return math.exp(-((0.5 * grid.extent) ** 2) / (4.0 * tau)) < SUPPORT_RATIO


@dataclass(frozen=True)
class GaussianDensity:
    value: float
    time: float
    support_ok: bool


def gaussian_density(
    traj: Trajectory,
    kp: KernelPoint,
    t: float,
    rho: TestFunction | None = None,
) -> GaussianDensity:
    """Kernel-weighted energy at the sampled time nearest ``t``.

    If the kernel has not decayed to ``1e-12`` of its peak at the box
    boundary, the result carries ``support_ok=False`` (a warning flag, not
    an error: mass far from the layer may still be negligible).
    """
    i, frame = traj.frame_nearest(t)
    if abs(frame.time - t) > 0.5 * traj.dt_sample + 1e-12:
        raise ValueError(f"t={t:g} is not a sample time of the trajectory")
    tau = kp.s - frame.time
    if tau <= 0:
        raise ValueError(f"kernel needs t < s, got t={frame.time} >= s={kp.s}")
    grid = traj.grid
    phi = kernel_on_grid(kp, grid, frame.time)
    weight = phi if rho is None else phi * rho.value(grid)
    dens = FrameBundle(frame).energy_density
    value = float(np.sum(weight * dens) * grid.cell_volume)
    return GaussianDensity(value=value, time=frame.time, support_ok=_support_ok(grid, tau))


@dataclass(frozen=True)
class MonotonicityResidual:
    """The four sides of the weighted monotonicity identity at one time."""

    time: float
    dvalue_dt: float
    dissipative_term: float
    discrepancy_term: float
    rho_time_term: float
    rho_tensor_term: float

    @property
    def rhs(self) -> float:
        return (
            self.dissipative_term
            + self.discrepancy_term
            + self.rho_time_term
            + self.rho_tensor_term
        )

    @property
    def residual(self) -> float:
        return abs(self.dvalue_dt - self.rhs)


def monotonicity_residual(
    traj: Trajectory,
    kp: KernelPoint,
    t: float,
    rho: TestFunction | None = None,
) -> MonotonicityResidual:
    """Centered d/dt of the kernel-weighted energy against its identity.

    The right-hand side comprises the dissipative square (with the kernel's
    drift folded into the velocity), the discrepancy term weighted by
    ``rho Phi / (2(s-t))``, the weight's time-derivative term, and the
    stress-tensor contraction against the weight's Hessian.
    """
    if len(traj) < 3:
        raise ValueError("trajectory too short for a centered time derivative")
    i, frame = traj.frame_nearest(t)
    if abs(frame.time - t) > 0.5 * traj.dt_sample + 1e-12:
        raise ValueError(f"t={t:g} is not a sample time of the trajectory")
    if i == 0 or i == len(traj) - 1:
        raise ValueError(f"t={t:g} is an endpoint; the centered derivative needs interior t")

    grid = traj.grid
    before = gaussian_density(traj, kp, traj[i - 1].time, rho)
    after = gaussian_density(traj, kp, traj[i + 1].time, rho)
    dvalue_dt = (after.value - before.value) / (2.0 * traj.dt_sample)

    eps = frame.epsilon
    tau = kp.s - frame.time
    phi = kernel_on_grid(kp, grid, frame.time)
    rho_vals = rho.value(grid) if rho is not None else np.ones(grid.shape)
    vol = grid.cell_volume

    b = FrameBundle(frame)
    resid = b.residual
    g = b.gradient
    # grad(Phi)/Phi = -(x - y) / (2 (s - t)), wrapped like the kernel itself.
    drift = np.zeros(grid.shape)
    for ax, x in enumerate(grid.coords()):
        drift = drift + grid.minimal_image(x - kp.y[ax]) * g[ax]
    drift = -drift / (2.0 * tau)
    dissipative = -eps * float(np.sum(rho_vals * phi * (-resid - drift) ** 2) * vol)

    xi = b.discrepancy
    discrepancy_term = float(np.sum(rho_vals * phi / (2.0 * tau) * xi) * vol)

    if rho is None:
        rho_time_term = 0.0
        rho_tensor_term = 0.0
    else:
        rho_time_term = float(np.sum(phi * rho.time_derivative(grid) * b.energy_density) * vol)
        T = stress_energy(b)
        hess = rho.hessian(grid)
        rho_tensor_term = float(np.sum(T * hess * phi) * vol)

    return MonotonicityResidual(
        time=frame.time,
        dvalue_dt=dvalue_dt,
        dissipative_term=dissipative,
        discrepancy_term=discrepancy_term,
        rho_time_term=rho_time_term,
        rho_tensor_term=rho_tensor_term,
    )


def l2_linfty_ratio(
    traj: Trajectory,
    radius: float,
    center: Sequence[float] | None = None,
    t0: float | None = None,
) -> float:
    """Kernel-weighted spatial height mass over the space-time height mass.

    Numerator: ``int_{B_{r/2}} w^2 Phi dmu`` at lag ``max(r^2/4, 25 h^2)``
    before the terminal time (keeping the kernel resolvable); denominator:
    ``r^{-n-2}`` times the height mass over the backward cylinder.  Pure
    phases give 0 by convention.
    """
    grid = traj.grid
    n = grid.interface_dim
    c = center if center is not None else (0.0,) * grid.dim
    terminal = t0 if t0 is not None else float(traj.times[-1]) + traj.dt_sample
    lag = max(radius**2 / 4.0, 25.0 * grid.spacing**2)
    i, frame = traj.frame_nearest(terminal - lag)
    tau = terminal - frame.time
    if tau <= 0:
        raise ValueError("no sampled time precedes the terminal time by the required lag")

    kp = KernelPoint(y=tuple(c), s=terminal, n=n)
    phi = kernel_on_grid(kp, grid, frame.time)
    w = _vertical_height(grid, c)
    dens = energy_density(frame).values
    half = ball_mask(grid, c, 0.5 * radius)
    numerator = float(np.sum((w * w * phi * dens)[half]) * grid.cell_volume)

    lo, hi = terminal - radius**2, terminal
    full = ball_mask(grid, c, radius)
    slices = []
    for f in traj.frames:
        if lo - 1e-12 <= f.time <= hi + 1e-12:
            d = energy_density(f).values
            slices.append((f.time, float(np.sum((w * w * d)[full]) * grid.cell_volume)))
    if len(slices) < 2:
        raise ValueError("trajectory does not cover the backward time window")
    times = np.array([t for t, _ in slices])
    vals = np.array([v for _, v in slices])
    dt = times[1] - times[0]
    weights = np.full(len(times), dt)
    weights[0] = weights[-1] = 0.5 * dt
    denominator = float(np.sum(vals * weights)) / radius ** (n + 2)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def _vertical_height(grid: Grid, center: Sequence[float]) -> np.ndarray:
    """Vertical coordinate relative to a center, minimal-image wrapped."""
    xv = grid.coords()[-1]
    return np.broadcast_to(grid.minimal_image(xv - center[-1]), grid.shape)
