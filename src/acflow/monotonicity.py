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

import numpy as np

from .diagnostics import (
    FrameBundle,
    _RadialProfileFunction,
    _centered_index,
    _sample_index,
    stress_contraction,
    weighted_mass,
)
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


def gaussian_density(
    traj: Trajectory,
    kp: KernelPoint,
    t: float,
    rho: _RadialProfileFunction | None = None,
) -> GaussianDensity:
    """Kernel-weighted energy at the sampled time nearest ``t``.

    If the kernel has not decayed to ``1e-12`` of its peak at the box
    boundary, the result carries ``support_ok=False`` (a warning flag, not
    an error: mass far from the layer may still be negligible).
    """
    frame = traj[_sample_index(traj, t)]
    _, weight = _weights(kp, frame.grid, frame.time, rho)
    value = weighted_mass(FrameBundle(frame), weight)
    return GaussianDensity(value=value, time=frame.time,
                           support_ok=_support_ok(frame.grid, kp.s - frame.time))


def _weights(kp: KernelPoint, grid: Grid, t: float,
             rho: _RadialProfileFunction | None) -> tuple[np.ndarray, np.ndarray]:
    """The kernel ``Phi`` at time ``t`` and the weight ``rho Phi`` (``Phi``
    itself when ``rho`` is None)."""
    phi = kernel_on_grid(kp, grid, t)
    return phi, (phi if rho is None else phi * rho.value(grid))


def monotonicity_terms(
    bundle: FrameBundle,
    kp: KernelPoint,
    rho: _RadialProfileFunction | None = None,
) -> tuple[float, float, float, float]:
    """The kernel-weighted energy and the three right-hand terms of its
    time derivative at one slice: ``(value, dissipative, discrepancy,
    rho_tensor)``.

    With ``w = rho Phi`` (``Phi`` alone when ``rho`` is None, and then the
    tensor term is 0): the dissipative square ``-eps int w (V - grad(Phi)/Phi
    . grad u)^2`` (``V`` the flow's velocity), the discrepancy term
    ``int w xi / (2(s-t))`` and ``int Phi T : D^2 rho``.  One kernel is built.
    """
    grid, eps, t = bundle.field.grid, bundle.field.epsilon, bundle.field.time
    vol = grid.cell_volume
    tau = kp.s - t
    phi, w = _weights(kp, grid, t, rho)
    g = bundle.gradient
    # grad(Phi)/Phi = -(x - y) / (2 (s - t)), wrapped like the kernel itself
    drift = -sum(d * g[ax] for ax, d in enumerate(grid.displacement(kp.y))) / (2.0 * tau)
    dissipative = -eps * float(np.sum(w * (-bundle.residual - drift) ** 2) * vol)
    discrepancy = float(np.sum(w / (2.0 * tau) * bundle.discrepancy) * vol)
    rho_tensor = 0.0
    if rho is not None:
        rho_tensor = float(np.sum(stress_contraction(bundle, rho.hessian(grid)) * phi) * vol)
    return weighted_mass(bundle, w), dissipative, discrepancy, rho_tensor


@dataclass(frozen=True)
class MonotonicityResidual:
    """The measured derivative and the three right-hand terms of the
    weighted monotonicity identity at one time."""

    time: float
    dvalue_dt: float
    dissipative_term: float
    discrepancy_term: float
    rho_tensor_term: float

    @property
    def rhs(self) -> float:
        return self.dissipative_term + self.discrepancy_term + self.rho_tensor_term

    @property
    def residual(self) -> float:
        return abs(self.dvalue_dt - self.rhs)


def monotonicity_residual(
    traj: Trajectory,
    kp: KernelPoint,
    t: float,
    rho: _RadialProfileFunction | None = None,
) -> MonotonicityResidual:
    """Centered d/dt of the kernel-weighted energy against its identity.

    The right-hand side is that of :func:`monotonicity_terms`.
    """
    i = _centered_index(traj, t)
    before = gaussian_density(traj, kp, traj[i - 1].time, rho)
    after = gaussian_density(traj, kp, traj[i + 1].time, rho)
    _, dissipative, discrepancy, rho_tensor = monotonicity_terms(FrameBundle(traj[i]), kp, rho)
    return MonotonicityResidual(
        time=traj[i].time,
        dvalue_dt=(after.value - before.value) / (2.0 * traj.dt_sample),
        dissipative_term=dissipative,
        discrepancy_term=discrepancy,
        rho_tensor_term=rho_tensor,
    )

