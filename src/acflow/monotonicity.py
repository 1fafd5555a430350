"""The backward heat kernel and the monotonicity identity it weights.

The kernel is normalized to the interface dimension n (ambient dimension
minus one): ``(4 pi (s-t))^(-n/2) exp(-|x-y|^2 / (4(s-t)))``, so that a flat
layer through the kernel point carries Gaussian density equal to the line
energy of the standing wave.  With non-positive discrepancy the
kernel-weighted energy is non-increasing in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import FrameBundle, _centered_index, _sample_index, weighted_mass
from .grid import Grid, Trajectory

__all__ = [
    "KernelPoint",
    "kernel_on_grid",
    "GaussianDensity",
    "gaussian_density",
    "monotonicity_terms",
    "MonotonicityResidual",
    "monotonicity_residual",
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


def kernel_on_grid(kp: KernelPoint, grid: Grid, t: float) -> np.ndarray:
    """Kernel on the lattice, with displacements wrapped to the torus.

    The Gaussian factorizes over the axes, so it is the outer product of
    one-dimensional factors: ``dim * points`` exponentials, not ``points^dim``.
    """
    tau = kp.s - t
    if tau <= 0:
        raise ValueError(f"kernel needs t < s, got t={t} >= s={kp.s}")
    out = (4.0 * math.pi * tau) ** (-kp.n / 2.0)
    for d in grid.displacement(kp.y):
        out = out * np.exp(-d**2 / (4.0 * tau))
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


def gaussian_density(traj: Trajectory, kp: KernelPoint, t: float) -> GaussianDensity:
    """Kernel-weighted energy at the sampled time nearest ``t``.

    If the kernel has not decayed to ``1e-12`` of its peak at the box
    boundary, the result carries ``support_ok=False`` (a warning flag, not
    an error: mass far from the layer may still be negligible).
    """
    frame = traj[_sample_index(traj, t)]
    value = weighted_mass(FrameBundle(frame), kernel_on_grid(kp, frame.grid, frame.time))
    return GaussianDensity(value=value, time=frame.time,
                           support_ok=_support_ok(frame.grid, kp.s - frame.time))


def monotonicity_terms(bundle: FrameBundle, kp: KernelPoint) -> tuple[float, float, float]:
    """The kernel-weighted energy and the two right-hand terms of its time
    derivative at one slice: ``(value, dissipative, discrepancy)``.

    With the kernel ``Phi``: the dissipative square ``-eps int Phi (V -
    grad(Phi)/Phi . grad u)^2`` (``V`` the flow's velocity) and the
    discrepancy term ``int Phi xi / (2(s-t))``.  One kernel is built.
    """
    grid, eps, t = bundle.field.grid, bundle.field.epsilon, bundle.field.time
    vol = grid.cell_volume
    tau = kp.s - t
    phi = kernel_on_grid(kp, grid, t)
    g = bundle.gradient
    # grad(Phi)/Phi = -(x - y) / (2 (s - t)), wrapped like the kernel itself
    drift = -sum(d * g[ax] for ax, d in enumerate(grid.displacement(kp.y))) / (2.0 * tau)
    dissipative = -eps * float(np.sum(phi * (-bundle.residual - drift) ** 2) * vol)
    discrepancy = float(np.sum(phi / (2.0 * tau) * bundle.discrepancy) * vol)
    return weighted_mass(bundle, phi), dissipative, discrepancy


@dataclass(frozen=True)
class MonotonicityResidual:
    """The measured derivative and the two right-hand terms of the
    monotonicity identity at one time."""

    time: float
    dvalue_dt: float
    dissipative_term: float
    discrepancy_term: float


def monotonicity_residual(traj: Trajectory, kp: KernelPoint, t: float) -> MonotonicityResidual:
    """Centered d/dt of the kernel-weighted energy against its identity.

    The right-hand side is that of :func:`monotonicity_terms`.
    """
    i = _centered_index(traj, t)
    before = gaussian_density(traj, kp, traj[i - 1].time)
    after = gaussian_density(traj, kp, traj[i + 1].time)
    _, dissipative, discrepancy = monotonicity_terms(FrameBundle(traj[i]), kp)
    return MonotonicityResidual(
        time=traj[i].time,
        dvalue_dt=(after.value - before.value) / (2.0 * traj.dt_sample),
        dissipative_term=dissipative,
        discrepancy_term=discrepancy,
    )
