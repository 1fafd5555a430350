"""Geometric-measure diagnostics of a diffuse interface.

Pointwise densities (energy, discrepancy), the directional excess
functionals (tilt and height), the squared-velocity (Willmore-type) term,
the stress-energy tensor with its divergence identity, the integral
evolution identity for weighted energies, and the inequality ratios used by
the verification harness.

All integrands carrying the unit normal ``nu = grad u / |grad u|`` treat
cells where ``|grad u|`` is below a relative floor as contributing zero;
every such integrand also carries a factor ``|grad u|^2``, so the dropped
contribution is genuinely negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .grid import Grid, ParabolicCylinder, ScalarField, Trajectory, WAVE_ENERGY
from .operators import (
    ball_mask,
    gradient_from_hat,
    gradient_values,
    integrate_values,
    laplacian_from_hat,
    spectrum,
)
from .solver import ac_residual_values

__all__ = [
    "GRADIENT_FLOOR",
    "Hyperplane",
    "FrameBundle",
    "constant_one",
    "radial_bump",
    "cylinder_cutoff",
    "energy_density",
    "discrepancy",
    "tilt_excess",
    "height_excess",
    "willmore",
    "stress_energy",
    "divergence_defect",
    "BrakkeResidual",
    "brakke_residual",
    "caccioppoli_ratio",
    "SobolevDefect",
    "sobolev_defect",
    "DecayProfile",
    "exponential_decay_profile",
    "DiagnosticsRecord",
    "diagnostics_record",
    "unit_ball_volume",
]

# Relative threshold below which the unit normal is considered undefined.
GRADIENT_FLOOR = 1e-8


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (n = 0 gives 1)."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane ``{<x, e> = offset}`` with unit normal e."""

    normal: tuple[float, ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        e = np.asarray(self.normal, dtype=float)
        norm = float(np.linalg.norm(e))
        if norm == 0:
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", tuple(e / norm))

    def signed_height(self, grid: Grid, center: Sequence[float] | None = None) -> np.ndarray:
        """``<x, e> - offset`` on the lattice.

        ``center`` only anchors the minimal-image unwrapping of the periodic
        coordinates (displacements are taken relative to it); it does not
        shift the plane.
        """
        c = center if center is not None else (0.0,) * grid.dim
        out = np.zeros(grid.shape)
        for ax, x in enumerate(grid.coords()):
            out = out + self.normal[ax] * grid.minimal_image(x - c[ax])
        shift = sum(e * ci for e, ci in zip(self.normal, c))
        return out + shift - self.offset

    @staticmethod
    def vertical(dim: int, offset: float = 0.0) -> "Hyperplane":
        """The flat reference plane with normal along the last axis."""
        e = (0.0,) * (dim - 1) + (1.0,)
        return Hyperplane(normal=e, offset=offset)


# ---------------------------------------------------------------------------
# Smooth test functions (C^2), evaluated with analytic gradient and Hessian.
# ---------------------------------------------------------------------------


def _smoothstep(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _smoothstep_d1(s: np.ndarray) -> np.ndarray:
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * s**2 * (1.0 - s) ** 2, 0.0)


def _smoothstep_d2(s: np.ndarray) -> np.ndarray:
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s), 0.0)


@dataclass(frozen=True)
class _RampProfile:
    """1 on [0, lo], quintic descent to 0 on [lo, hi]; C^2 on the line."""

    lo: float
    hi: float

    def value(self, r: np.ndarray) -> np.ndarray:
        return 1.0 - _smoothstep((r - self.lo) / (self.hi - self.lo))

    def d1(self, r: np.ndarray) -> np.ndarray:
        w = self.hi - self.lo
        return -_smoothstep_d1((r - self.lo) / w) / w

    def d2(self, r: np.ndarray) -> np.ndarray:
        w = self.hi - self.lo
        return -_smoothstep_d2((r - self.lo) / w) / w**2


class TestFunction:
    """Base for C^2 spatial test functions; time-independent by default."""

    def value(self, grid: Grid) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, grid: Grid) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, grid: Grid) -> np.ndarray:
        raise NotImplementedError

    def time_derivative(self, grid: Grid) -> np.ndarray:
        return np.zeros(grid.shape)


class _ConstantOne(TestFunction):
    def value(self, grid):
        return np.ones(grid.shape)

    def gradient(self, grid):
        return np.zeros((grid.dim,) + grid.shape)

    def hessian(self, grid):
        return np.zeros((grid.dim, grid.dim) + grid.shape)


class _RadialProfileFunction(TestFunction):
    """phi(x) = p(rho(x)) for a radial coordinate rho with known geometry."""

    profile: _RampProfile

    def _rho_and_direction(self, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return rho, unit direction field (dim, shape), tangential projector trace helper."""
        raise NotImplementedError

    def value(self, grid):
        rho, _, _ = self._rho_and_direction(grid)
        return self.profile.value(rho)

    def gradient(self, grid):
        rho, direction, _ = self._rho_and_direction(grid)
        return self.profile.d1(rho) * direction

    def hessian(self, grid):
        rho, direction, projector = self._rho_and_direction(grid)
        p1 = self.profile.d1(rho)
        p2 = self.profile.d2(rho)
        # f'' rhat x rhat + (f'/rho) (P - rhat x rhat); f' vanishes identically
        # near rho = 0, so the division is safe there.
        with np.errstate(divide="ignore", invalid="ignore"):
            radial_ratio = np.where(rho > 0, p1 / np.where(rho > 0, rho, 1.0), 0.0)
        outer = direction[:, None] * direction[None, :]
        return p2 * outer + radial_ratio * (projector - outer)


class _RadialBump(_RadialProfileFunction):
    def __init__(self, center: Sequence[float], radius: float):
        self.center = tuple(float(c) for c in center)
        self.radius = float(radius)
        self.profile = _RampProfile(lo=0.5 * radius, hi=radius)

    def _rho_and_direction(self, grid):
        disp = np.zeros((grid.dim,) + grid.shape)
        for ax, x in enumerate(grid.coords()):
            disp[ax] = grid.minimal_image(x - self.center[ax])
        rho = np.sqrt(np.sum(disp**2, axis=0))
        safe = np.where(rho > 0, rho, 1.0)
        direction = disp / safe
        projector = np.eye(grid.dim).reshape((grid.dim, grid.dim) + (1,) * grid.dim)
        return rho, direction, projector


class _CylinderCutoff(_RadialProfileFunction):
    """Cutoff in the tangential radius of a plane: 1 up to (2/3)^(1/n) R,
    vanishing beyond (5/6)^(1/n) R, monotone quintic in between."""

    def __init__(self, plane: Hyperplane, interface_dim: int, scale: float = 1.0,
                 center: Sequence[float] | None = None):
        n = interface_dim
        self.plane = plane
        self.center = center
        self.scale = float(scale)
        self.profile = _RampProfile(
            lo=(2.0 / 3.0) ** (1.0 / n) * scale,
            hi=(5.0 / 6.0) ** (1.0 / n) * scale,
        )

    def _rho_and_direction(self, grid):
        c = self.center if self.center is not None else (0.0,) * grid.dim
        e = np.asarray(self.plane.normal)
        disp = np.zeros((grid.dim,) + grid.shape)
        for ax, x in enumerate(grid.coords()):
            disp[ax] = grid.minimal_image(x - c[ax])
        along = np.tensordot(e, disp, axes=(0, 0))
        tang = disp - e.reshape((grid.dim,) + (1,) * grid.dim) * along
        rho = np.sqrt(np.sum(tang**2, axis=0))
        safe = np.where(rho > 0, rho, 1.0)
        direction = tang / safe
        eye = np.eye(grid.dim) - np.outer(e, e)
        projector = eye.reshape((grid.dim, grid.dim) + (1,) * grid.dim)
        return rho, direction, projector


def constant_one() -> TestFunction:
    return _ConstantOne()

def radial_bump(center: Sequence[float], radius: float) -> TestFunction:
    return _RadialBump(center, radius)

def cylinder_cutoff(plane: Hyperplane, interface_dim: int, scale: float = 1.0,
                    center: Sequence[float] | None = None) -> TestFunction:
    return _CylinderCutoff(plane, interface_dim, scale, center)


# ---------------------------------------------------------------------------
# Pointwise densities
# ---------------------------------------------------------------------------


class FrameBundle:
    """One time slice with its spectral derivatives and pointwise densities.

    Every quantity is computed on first use and then kept, so all consumers
    of one slice share one forward transform, one gradient and one
    Laplacian.  ``u_hat`` is the half spectrum of ``field.values`` when the
    caller already has it (the stepper hands it over).  A bundle holds
    several grid-sized arrays: keep it for one time step or one diagnostics
    row, never alongside a stored trajectory.
    """

    def __init__(self, field: ScalarField, u_hat: np.ndarray | None = None):
        self.field = field
        if u_hat is not None:
            self.u_hat = u_hat  # fills the cached property below

    @cached_property
    def u_hat(self) -> np.ndarray:
        return spectrum(self.field.grid, self.field.values)

    @cached_property
    def gradient(self) -> np.ndarray:
        return gradient_from_hat(self.field.grid, self.u_hat)

    @cached_property
    def grad_sq(self) -> np.ndarray:
        g = self.gradient
        return np.sum(g * g, axis=0)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return laplacian_from_hat(self.field.grid, self.u_hat)

    @cached_property
    def residual(self) -> np.ndarray:
        """``lap(u) - W'(u)/eps^2``, the flow's velocity."""
        return ac_residual_values(self.field, self.laplacian)

    @cached_property
    def well(self) -> np.ndarray:
        """``W(u)``."""
        return self.field.potential.value(self.field.values)

    @cached_property
    def energy_density(self) -> np.ndarray:
        """``eps |grad u|^2 / 2 + W(u)/eps``."""
        eps = self.field.epsilon
        return 0.5 * eps * self.grad_sq + self.well / eps

    @cached_property
    def discrepancy(self) -> np.ndarray:
        """``eps |grad u|^2 / 2 - W(u)/eps``; zero means equipartition."""
        eps = self.field.epsilon
        return 0.5 * eps * self.grad_sq - self.well / eps


def _bundle(obj: ScalarField | FrameBundle) -> FrameBundle:
    return obj if isinstance(obj, FrameBundle) else FrameBundle(obj)


def _bundles(obj: ScalarField | FrameBundle | Trajectory) -> tuple[Grid, Iterator[FrameBundle]]:
    """The grid and one bundle per slice, built one at a time so that only
    the current slice's arrays are held."""
    if isinstance(obj, Trajectory):
        return obj.grid, (FrameBundle(f) for f in obj.frames)
    b = _bundle(obj)
    return b.field.grid, iter((b,))


def energy_density(field: ScalarField) -> ScalarField:
    """``eps |grad u|^2 / 2 + W(u)/eps``."""
    return field.with_values(FrameBundle(field).energy_density)


def discrepancy(field: ScalarField) -> ScalarField:
    """``eps |grad u|^2 / 2 - W(u)/eps``; zero means equipartition."""
    return field.with_values(FrameBundle(field).discrepancy)


def _tilt_integrand(frame: ScalarField | FrameBundle, direction: Sequence[float]) -> np.ndarray:
    """``(1 - (nu . e)^2) eps |grad u|^2`` with the gradient floor applied."""
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    b = _bundle(frame)
    field, g, gsq = b.field, b.gradient, b.grad_sq
    gnorm = np.sqrt(gsq)
    floor = GRADIENT_FLOOR * float(np.max(gnorm))
    ge = np.tensordot(e, g, axes=(0, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_sq = np.where(gnorm > floor, (ge / np.where(gnorm > floor, gnorm, 1.0)) ** 2, 0.0)
    integrand = (1.0 - cos_sq) * field.epsilon * gsq
    return np.where(gnorm > floor, integrand, 0.0)


def _normalized(raw: float, obj: ScalarField | FrameBundle | Trajectory,
                region: ParabolicCylinder | None, spatial_power: int, parabolic_power: int) -> float:
    if region is None:
        return raw
    power = parabolic_power if isinstance(obj, Trajectory) else spatial_power
    return raw / region.radius**power


def tilt_excess(
    obj: ScalarField | FrameBundle | Trajectory,
    direction: Sequence[float],
    region: ParabolicCylinder | None = None,
) -> float:
    """Excess of the interface normal against a fixed direction.

    Spatial (single field) values are scaled by ``r^-n``, space-time values
    by ``r^-n-2``; with no region the raw box integral is returned.
    Invariant under ``e -> -e``.
    """
    grid, bundles = _bundles(obj)
    slices = [(b.field.time, _tilt_integrand(b, direction)) for b in bundles]
    raw = integrate_values(grid, slices, region)
    n = grid.interface_dim
    return _normalized(raw, obj, region, n, n + 2)


def height_excess(
    obj: ScalarField | FrameBundle | Trajectory,
    plane: Hyperplane,
    region: ParabolicCylinder | None = None,
    center: Sequence[float] | None = None,
) -> float:
    """Squared distance to a hyperplane weighted by ``eps |grad u|^2``.

    Scaled by ``r^-n-2`` (spatial) or ``r^-n-4`` (space-time); raw when no
    region is given.  ``center`` anchors the minimal-image unwrapping and
    defaults to the cylinder center.
    """
    grid, bundles = _bundles(obj)
    if center is None and region is not None:
        center = region.center_space
    h = plane.signed_height(grid, center)
    slices = [(b.field.time, h * h * b.field.epsilon * b.grad_sq) for b in bundles]
    raw = integrate_values(grid, slices, region)
    n = grid.interface_dim
    return _normalized(raw, obj, region, n + 2, n + 4)


def willmore(
    obj: ScalarField | FrameBundle | Trajectory,
    region: ParabolicCylinder | None = None,
) -> float:
    """``integral of eps (lap u - W'(u)/eps^2)^2``; the squared velocity."""
    grid, bundles = _bundles(obj)
    slices = [(b.field.time, b.field.epsilon * b.residual ** 2) for b in bundles]
    return integrate_values(grid, slices, region)


# ---------------------------------------------------------------------------
# Stress-energy tensor and integral identities
# ---------------------------------------------------------------------------


def stress_energy(frame: ScalarField | FrameBundle) -> np.ndarray:
    """``T_ij = eps du_i du_j - (eps|grad u|^2/2 + W(u)/eps) delta_ij``."""
    b = _bundle(frame)
    g = b.gradient
    T = b.field.epsilon * g[:, None] * g[None, :]
    for i in range(b.field.grid.dim):
        T[i, i] -= b.energy_density
    return T


def divergence_defect(field: ScalarField) -> float:
    """Max-norm defect of ``div T = eps (du/dt) grad u`` with du/dt from the
    flow (the epsilon balances the tensor's own epsilon scaling)."""
    grid = field.grid
    b = FrameBundle(field)
    T = stress_energy(b)
    rhs = field.epsilon * b.residual * b.gradient
    defect = 0.0
    for j in range(grid.dim):
        div_j = np.zeros(grid.shape)
        for i in range(grid.dim):
            div_j += gradient_values(grid, T[i, j])[i]
        defect = max(defect, float(np.max(np.abs(div_j - rhs[j]))))
    return defect


def _weighted_mass(field: ScalarField, weight: np.ndarray) -> float:
    return float(np.sum(weight * FrameBundle(field).energy_density) * field.grid.cell_volume)


@dataclass(frozen=True)
class BrakkeResidual:
    """Both forms of the weighted-energy evolution identity at one time."""

    time: float
    dmu_dt: float
    rhs_gradient_form: float
    rhs_tensor_form: float

    @property
    def residual_gradient_form(self) -> float:
        return abs(self.dmu_dt - self.rhs_gradient_form)

    @property
    def residual_tensor_form(self) -> float:
        return abs(self.dmu_dt - self.rhs_tensor_form)


def brakke_residual(traj: Trajectory, phi: TestFunction, t: float) -> BrakkeResidual:
    """Centered-difference d/dt of the weighted energy against its two
    integral forms (gradient-transport form and stress-tensor form).

    ``t`` must coincide with an interior sample of the trajectory.
    """
    if len(traj) < 3:
        raise ValueError("trajectory too short for a centered time derivative")
    i, frame = traj.frame_nearest(t)
    if abs(frame.time - t) > 0.5 * traj.dt_sample:
        raise ValueError(f"t={t:g} is not a sample time of the trajectory")
    if i == 0 or i == len(traj) - 1:
        raise ValueError(f"t={t:g} is an endpoint; the centered derivative needs interior t")

    grid = traj.grid
    w = phi.value(grid)
    mass_prev = _weighted_mass(traj[i - 1], w)
    mass_next = _weighted_mass(traj[i + 1], w)
    dmu_dt = (mass_next - mass_prev) / (2.0 * traj.dt_sample)

    b = FrameBundle(traj[i])
    eps = b.field.epsilon
    r = b.residual
    g = b.gradient
    grad_phi = phi.gradient(grid)
    vol = grid.cell_volume

    dissip = -eps * np.sum(w * r * r) * vol
    # transport term pairs grad(phi).grad(u) with the negative velocity
    transport = -eps * np.sum(np.sum(grad_phi * g, axis=0) * r) * vol
    rhs_gradient = dissip + transport

    T = stress_energy(b)
    hess_phi = phi.hessian(grid)
    rhs_tensor = dissip + float(np.sum(T * hess_phi) * vol)

    return BrakkeResidual(
        time=frame.time,
        dmu_dt=dmu_dt,
        rhs_gradient_form=float(rhs_gradient),
        rhs_tensor_form=float(rhs_tensor),
    )


# ---------------------------------------------------------------------------
# Inequality ratios
# ---------------------------------------------------------------------------


def caccioppoli_ratio(
    field: ScalarField,
    plane: Hyperplane,
    radius: float,
    center: Sequence[float] | None = None,
) -> float:
    """Tilt-plus-discrepancy over its height/velocity bound, all constants 1.

    The left side is the cutoff-weighted tilt excess plus absolute
    discrepancy; the right side is the three-term bound (height term, the
    height-velocity cross term, and the vertical cutoff boundary term).  The
    raw ratio is returned; callers compare it across resolutions.
    """
    grid = field.grid
    c = center if center is not None else (0.0,) * grid.dim
    e = np.asarray(plane.normal)

    disp = np.zeros((grid.dim,) + grid.shape)
    for ax, x in enumerate(grid.coords()):
        disp[ax] = grid.minimal_image(x - c[ax])
    rel = np.tensordot(e, disp, axes=(0, 0))
    height = rel + sum(ei * ci for ei, ci in zip(e, c)) - plane.offset
    tang = np.sqrt(np.maximum(np.sum(disp**2, axis=0) - rel**2, 0.0))

    phi_profile = _RampProfile(lo=0.5 * radius, hi=radius)
    psi_profile = _RampProfile(lo=0.5 * radius, hi=radius)
    phi = phi_profile.value(tang)
    psi = psi_profile.value(np.abs(height))
    psi_d1 = psi_profile.d1(np.abs(height))

    eps = field.epsilon
    b = FrameBundle(field)
    tilt = _tilt_integrand(b, plane.normal)
    gsq = b.grad_sq
    xi = b.discrepancy
    resid = b.residual
    vol = grid.cell_volume
    w2 = phi**2 * psi**2

    lhs = float(np.sum(w2 * tilt) * vol) + float(np.sum(w2 * np.abs(xi)) * vol)
    height_term = float(np.sum(w2 * height**2 * eps * gsq) * vol)
    velocity_term = float(np.sum(w2 * eps * resid**2) * vol)
    boundary_term = float(np.sum(2.0 * tilt * phi**2 * np.abs(psi_d1) * np.abs(height)) * vol)
    rhs = height_term + math.sqrt(height_term * velocity_term) + boundary_term
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@dataclass(frozen=True)
class SobolevDefect:
    """Flat-energy defect and the quantities that are supposed to bound it.

    All entries are expressed at unit scale (the working ball is rescaled to
    radius 1, so ``epsilon_scaled = epsilon / radius``).
    """

    energy_difference: float
    tilt_term: float
    discrepancy_term: float
    cross_term: float
    velocity_term: float
    radius: float
    epsilon_scaled: float

    @property
    def bundle_total(self) -> float:
        return self.tilt_term + self.discrepancy_term + self.cross_term + self.velocity_term


def sobolev_defect(
    field: ScalarField,
    radius: float,
    center: Sequence[float] | None = None,
    plane: Hyperplane | None = None,
) -> SobolevDefect:
    """``| mu(B_r)/r^n - alpha omega_n |`` with its controlling bundle.

    The bundle is measured on the tripled ball: normalized tilt excess,
    discrepancy mass, the geometric-mean cross term, and the squared-velocity
    term raised to ``n/(n-2)`` (plain for n <= 2, where the sharper exponent
    degenerates).
    """
    grid = field.grid
    n = grid.interface_dim
    c = center if center is not None else (0.0,) * grid.dim
    if plane is None:
        plane = Hyperplane.vertical(grid.dim)
    if 3.0 * radius > 0.5 * grid.extent:
        raise ValueError("tripled ball must fit inside half the box")

    b = FrameBundle(field)
    dens = b.energy_density
    inner = ball_mask(grid, c, radius)
    mu_r = float(np.sum(dens[inner]) * grid.cell_volume)
    energy_difference = abs(mu_r / radius**n - WAVE_ENERGY * unit_ball_volume(n))

    outer = ball_mask(grid, c, 3.0 * radius)
    tilt = _tilt_integrand(b, plane.normal)
    xi = b.discrepancy
    resid = b.residual
    vol = grid.cell_volume

    tilt_term = float(np.sum(tilt[outer]) * vol) / (3.0 * radius) ** n
    xi_term = float(np.sum(np.abs(xi[outer])) * vol) / radius**n
    w_term = float(np.sum(field.epsilon * resid[outer] ** 2) * vol) * radius ** (2 - n)
    cross = math.sqrt(tilt_term * w_term)
    exponent = n / (n - 2) if n > 2 else 1.0
    return SobolevDefect(
        energy_difference=energy_difference,
        tilt_term=tilt_term,
        discrepancy_term=xi_term,
        cross_term=cross,
        velocity_term=w_term**exponent,
        radius=radius,
        epsilon_scaled=field.epsilon / radius,
    )


@dataclass(frozen=True)
class DecayProfile:
    """Sups of ``|grad u|`` and ``1 - u^2`` outside a slab, raw and relative."""

    grad_sup: float
    one_minus_u2_sup: float
    grad_sup_relative: float
    one_minus_u2_sup_relative: float

    @property
    def relative(self) -> float:
        return max(self.grad_sup_relative, self.one_minus_u2_sup_relative)


def exponential_decay_profile(field: ScalarField, h: float, window: float | None = None) -> DecayProfile:
    """Tail size of the layer over ``h <= |x_vertical| <= window``.

    For a flat layer this decays at least geometrically in ``h/eps``.  The
    window (default a quarter box) keeps the periodic companion layer out of
    the sup; relative values are normalized by the box-wide sups (zero for a
    pure phase).
    """
    grid = field.grid
    if window is None:
        window = 0.25 * grid.extent
    xv = np.broadcast_to(grid.coords()[-1], grid.shape)
    mask = (np.abs(xv) >= h) & (np.abs(xv) <= window)
    gnorm = np.sqrt(FrameBundle(field).grad_sq)
    one_minus = 1.0 - field.values**2

    g_all = float(np.max(gnorm))
    o_all = float(np.max(np.abs(one_minus)))
    g_tail = float(np.max(gnorm[mask])) if np.any(mask) else 0.0
    o_tail = float(np.max(np.abs(one_minus[mask]))) if np.any(mask) else 0.0
    return DecayProfile(
        grad_sup=g_tail,
        one_minus_u2_sup=o_tail,
        grad_sup_relative=g_tail / g_all if g_all > 0 else 0.0,
        one_minus_u2_sup_relative=o_tail / o_all if o_all > 0 else 0.0,
    )


# ---------------------------------------------------------------------------
# Record rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    region_descriptor: str
    energy: float
    tilt_excess: float
    height_excess: float
    willmore: float
    discrepancy_l1: float
    discrepancy_max: float

    def __post_init__(self) -> None:
        for name in ("energy", "tilt_excess", "height_excess", "willmore"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < -1e-12:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    def as_row(self) -> dict:
        return {
            "time": self.time,
            "region_descriptor": self.region_descriptor,
            "energy": self.energy,
            "tilt_excess": self.tilt_excess,
            "height_excess": self.height_excess,
            "willmore": self.willmore,
            "discrepancy_l1": self.discrepancy_l1,
            "discrepancy_max": self.discrepancy_max,
        }


def diagnostics_record(
    frame: ScalarField | FrameBundle,
    region: ParabolicCylinder | None = None,
    plane: Hyperplane | None = None,
) -> DiagnosticsRecord:
    """One row of the standard diagnostics for a single time slice.

    Every column reads the slice's one :class:`FrameBundle` (built here
    when a plain field is given), so a row costs one gradient and one
    Laplacian.
    """
    b = _bundle(frame)
    field = b.field
    grid = field.grid
    if plane is None:
        plane = Hyperplane.vertical(grid.dim)
    direction = plane.normal
    mask = ball_mask(grid, region.center_space, region.radius) if region is not None else None
    vol = grid.cell_volume

    dens = b.energy_density
    xi = b.discrepancy
    if mask is None:
        energy = float(np.sum(dens) * vol)
        xi_l1 = float(np.sum(np.abs(xi)) * vol)
        xi_max = float(np.max(xi))
        descriptor = "box"
    else:
        energy = float(np.sum(dens[mask]) * vol)
        xi_l1 = float(np.sum(np.abs(xi[mask])) * vol)
        xi_max = float(np.max(xi[mask]))
        descriptor = (
            "ball(" + ",".join(repr(c) for c in region.center_space) + f";r={region.radius!r})"
        )
    return DiagnosticsRecord(
        time=field.time,
        region_descriptor=descriptor,
        energy=energy,
        tilt_excess=tilt_excess(b, direction, region),
        height_excess=height_excess(b, plane, region),
        willmore=willmore(b, region),
        discrepancy_l1=xi_l1,
        discrepancy_max=xi_max,
    )
