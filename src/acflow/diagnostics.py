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
from typing import Sequence

import numpy as np

from .grid import Grid, ParabolicCylinder, ScalarField, Trajectory, WAVE_ENERGY, well
from .operators import (
    ball_mask,
    from_spectrum,
    gradient_from_hat,
    integrate_values,
    laplacian_from_hat,
    spectrum,
    symbols,
)
from .solver import ac_residual_values

__all__ = [
    "GRADIENT_FLOOR",
    "Hyperplane",
    "FrameBundle",
    "radial_bump",
    "tilt_excess",
    "height_excess",
    "willmore",
    "stress_energy",
    "divergence_defect",
    "weighted_mass",
    "BrakkeWeight",
    "brakke_weight",
    "brakke_terms",
    "BrakkeResidual",
    "brakke_residual",
    "caccioppoli_ratio",
    "sobolev_defect",
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

    def signed_height(self, grid: Grid, center: Sequence[float]) -> np.ndarray:
        """``<x, e> - offset`` on the lattice.

        ``center`` only anchors the minimal-image unwrapping of the periodic
        coordinates (displacements are taken relative to it); it does not
        shift the plane.
        """
        out = np.zeros(grid.shape)
        for e, d in zip(self.normal, grid.displacement(center)):
            out = out + e * d
        shift = sum(e * ci for e, ci in zip(self.normal, center))
        return out + shift - self.offset

    @staticmethod
    def vertical(dim: int) -> "Hyperplane":
        """The flat reference plane ``{x_vertical = 0}``."""
        return Hyperplane(normal=(0.0,) * (dim - 1) + (1.0,))


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


class _RadialProfileFunction:
    """A time-independent C^2 test function phi(x) = p(rho(x)), rho the
    wrapped distance from ``center``."""

    def __init__(self, profile: _RampProfile, center: Sequence[float]):
        self.profile = profile
        self.center = tuple(float(c) for c in center)

    def _rho_and_direction(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """rho and its unit direction field (dim, *shape)."""
        disp = grid.displacement(self.center)
        rho = np.sqrt(np.broadcast_to(sum(d**2 for d in disp), grid.shape))
        safe = np.where(rho > 0, rho, 1.0)
        direction = np.stack([d / safe for d in disp])
        return rho, direction

    def value(self, grid: Grid) -> np.ndarray:
        rho, _ = self._rho_and_direction(grid)
        return self.profile.value(rho)

    def gradient(self, grid: Grid) -> np.ndarray:
        rho, direction = self._rho_and_direction(grid)
        return self.profile.d1(rho) * direction

    def hessian(self, grid: Grid) -> np.ndarray:
        rho, direction = self._rho_and_direction(grid)
        p1 = self.profile.d1(rho)
        p2 = self.profile.d2(rho)
        # f'' rhat x rhat + (f'/rho) (I - rhat x rhat); f' vanishes identically
        # near rho = 0, so the division is safe there.
        with np.errstate(divide="ignore", invalid="ignore"):
            radial_ratio = np.where(rho > 0, p1 / np.where(rho > 0, rho, 1.0), 0.0)
        outer = direction[:, None] * direction[None, :]
        identity = np.eye(grid.dim).reshape((grid.dim, grid.dim) + (1,) * grid.dim)
        return p2 * outer + radial_ratio * (identity - outer)


def radial_bump(center: Sequence[float], radius: float) -> _RadialProfileFunction:
    """1 within ``radius / 2`` of ``center``, vanishing beyond ``radius``."""
    return _RadialProfileFunction(_RampProfile(lo=0.5 * radius, hi=radius), center)


# ---------------------------------------------------------------------------
# Pointwise densities
# ---------------------------------------------------------------------------


class _cached:
    """A per-instance cache: the first read computes the value and stores
    it in the instance's ``__dict__``, which later reads find first (this
    descriptor defines no ``__set__``).  Assigning or deleting the
    attribute fills or drops that entry.

    Unlike ``functools.cached_property`` it takes no lock.  On Python
    < 3.12 that property holds one lock per attribute, shared by every
    instance, so a thread computing one bundle's gradient made every other
    thread wait for any bundle's gradient.  A bundle is read by one thread
    only, so it needs no lock.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class FrameBundle:
    """One time slice with its spectral derivatives and pointwise densities.

    Every quantity is computed on first use and then kept, so all consumers
    of one slice share one forward transform, one gradient and one
    Laplacian.  ``u_hat`` is the half spectrum of ``field.values`` when the
    caller already has it (the stepper hands it over).  A bundle holds
    several grid-sized arrays: keep it for one time step or one diagnostics
    row, never alongside a stored trajectory.

    A bundle belongs to the one thread that made it.  Its cache is its own
    and takes no lock (see :class:`_cached`), so flows stepped on separate
    threads never wait on each other's bundles.
    """

    def __init__(self, field: ScalarField, u_hat: np.ndarray | None = None):
        self.field = field
        if u_hat is not None:
            self.u_hat = u_hat  # fills the cached attribute below

    @_cached
    def u_hat(self) -> np.ndarray:
        return spectrum(self.field.grid, self.field.values)

    @_cached
    def gradient(self) -> np.ndarray:
        return gradient_from_hat(self.field.grid, self.u_hat)

    @_cached
    def grad_sq(self) -> np.ndarray:
        """``|grad u|^2``, the squares added in place in axis order."""
        g = self.gradient
        out = np.square(g[0])
        for gi in g[1:]:
            out += np.square(gi)
        return out

    @_cached
    def laplacian(self) -> np.ndarray:
        return laplacian_from_hat(self.field.grid, self.u_hat)

    @_cached
    def residual(self) -> np.ndarray:
        """``lap(u) - W'(u)/eps^2``, the flow's velocity."""
        return ac_residual_values(self.field, self.laplacian)

    @_cached
    def well(self) -> np.ndarray:
        """``W(u)``."""
        return well(self.field.values)

    @_cached
    def energy_density(self) -> np.ndarray:
        """``eps |grad u|^2 / 2 + W(u)/eps``."""
        eps = self.field.epsilon
        return 0.5 * eps * self.grad_sq + self.well / eps

    @_cached
    def discrepancy(self) -> np.ndarray:
        """``eps |grad u|^2 / 2 - W(u)/eps``; zero means equipartition."""
        eps = self.field.epsilon
        return 0.5 * eps * self.grad_sq - self.well / eps


def _gradient_terms(b: FrameBundle, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|grad u|^2`` and ``<grad u, e>`` of one slice.

    The partial derivatives are taken one at a time, so no stacked gradient
    is formed, and ``grad_sq`` is cached from that pass, bit for bit the
    stacked sum, which adds the squares in axis order.  Both sums are
    elementwise: a BLAS contraction leaves OpenBLAS's helper thread
    spinning between the steps of a flow.  A zero component of ``e`` adds
    no term, so against the vertical no all-zero ``<grad u, e>`` is held
    while the last partial is transformed; that can only turn a ``-0.0`` of
    ``<grad u, e>`` into ``+0.0``, which its square does not see.
    """
    grid = b.field.grid
    gsq = ge = 0
    for ei, ik in zip(e, symbols(grid).ik):
        gi = from_spectrum(grid, ik * b.u_hat)
        gsq = gsq + gi * gi
        if ei != 0.0:
            ge = ge + ei * gi
        del gi  # freed before the next partial is transformed
    b.grad_sq = gsq
    return gsq, ge


def _tilt_integrand(bundle: FrameBundle, direction: Sequence[float]) -> np.ndarray:
    """``(1 - (nu . e)^2) eps |grad u|^2`` with the gradient floor applied."""
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    gsq, ge = _gradient_terms(bundle, e)
    gnorm = np.sqrt(gsq)
    dead = ~(gnorm > GRADIENT_FLOOR * float(np.max(gnorm)))  # below the floor
    # formed in the array of ge, so that a row holds no grid-sized array
    # beyond |grad u|^2, ge and |grad u|
    gnorm[dead] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_sq = np.square(np.divide(ge, gnorm, out=ge), out=ge)
    del gnorm
    integrand = np.subtract(1.0, cos_sq, out=cos_sq)
    integrand *= bundle.field.epsilon
    integrand *= gsq
    integrand[dead] = 0.0
    return integrand


def tilt_excess(bundle: FrameBundle, direction: Sequence[float]) -> float:
    """Excess of the interface normal against a fixed direction: the box
    integral of one slice's tilt integrand.  Invariant under ``e -> -e``."""
    return float(np.sum(_tilt_integrand(bundle, direction)) * bundle.field.grid.cell_volume)


def height_excess(traj: Trajectory, plane: Hyperplane, region: ParabolicCylinder) -> float:
    """Squared distance to a hyperplane weighted by ``eps |grad u|^2`` over
    the parabolic cylinder ``region``, scaled by ``r^-n-4``.

    The cylinder center anchors the minimal-image unwrapping.  The slices
    are bundled one at a time, as :func:`integrate_values` reaches them.
    """
    grid = traj.grid
    h = plane.signed_height(grid, region.center_space)

    def density_at(frame: ScalarField) -> np.ndarray:
        return h * h * frame.epsilon * FrameBundle(frame).grad_sq

    raw = integrate_values(grid, traj.frames, density_at, [region])[0]
    return raw / region.radius ** (grid.interface_dim + 4)


def willmore(bundle: FrameBundle) -> float:
    """``integral of eps (lap u - W'(u)/eps^2)^2`` over the box at one slice;
    the squared velocity."""
    field = bundle.field
    return float(np.sum(field.epsilon * bundle.residual ** 2) * field.grid.cell_volume)


# ---------------------------------------------------------------------------
# Stress-energy tensor and integral identities
# ---------------------------------------------------------------------------


def stress_energy(bundle: FrameBundle) -> np.ndarray:
    """``T_ij = eps du_i du_j - (eps|grad u|^2/2 + W(u)/eps) delta_ij``."""
    g = bundle.gradient
    T = bundle.field.epsilon * g[:, None] * g[None, :]
    for i in range(bundle.field.grid.dim):
        T[i, i] -= bundle.energy_density
    return T


def divergence_defect(field: ScalarField) -> float:
    """Max-norm defect of ``div T = eps (du/dt) grad u`` with du/dt from the
    flow (the epsilon balances the tensor's own epsilon scaling)."""
    grid = field.grid
    b = FrameBundle(field)
    T = stress_energy(b)
    rhs = field.epsilon * b.residual * b.gradient
    ik = symbols(grid).ik
    defect = 0.0
    for j in range(grid.dim):
        div_j = np.zeros(grid.shape)
        for i in range(grid.dim):  # only the i-th partial of T[i, j]
            div_j += from_spectrum(grid, ik[i] * spectrum(grid, T[i, j]))
        defect = max(defect, float(np.max(np.abs(div_j - rhs[j]))))
    return defect


def weighted_mass(bundle: FrameBundle, weight: np.ndarray) -> float:
    """``integral of weight * (energy density)`` over the box."""
    return float(np.sum(weight * bundle.energy_density) * bundle.field.grid.cell_volume)


@dataclass(frozen=True, eq=False)
class BrakkeWeight:
    """A test function ``phi`` on the lattice, in the form the Brakke terms
    read.  It does not depend on the slice, so a flow builds it once.

    ``value`` is phi and ``gradient`` its partial derivatives in axis
    order.  ``quadratic`` holds the entries ``(i, j, a_ij)``, ``i <= j``, of
    ``A = D^2 phi - (tr D^2 phi / 2) I`` with the off-diagonal ones doubled,
    so that ``grad u . A grad u`` is the sum of ``a_ij d_i u d_j u``;
    ``hessian_trace`` is ``tr D^2 phi``.
    """

    value: np.ndarray
    gradient: tuple[np.ndarray, ...]
    quadratic: tuple[tuple[int, int, np.ndarray], ...]
    hessian_trace: np.ndarray


def brakke_weight(phi: _RadialProfileFunction, grid: Grid) -> BrakkeWeight:
    """The :class:`BrakkeWeight` of ``phi`` on ``grid``, from its analytic
    value, gradient and Hessian."""
    hess = phi.hessian(grid)
    trace = hess[0, 0].copy()
    for i in range(1, grid.dim):
        trace += hess[i, i]
    quadratic = tuple((i, j, hess[i, i] - 0.5 * trace if i == j else 2.0 * hess[i, j])
                      for i in range(grid.dim) for j in range(i, grid.dim))
    return BrakkeWeight(value=phi.value(grid), gradient=tuple(phi.gradient(grid)),
                        quadratic=quadratic, hessian_trace=trace)


def brakke_terms(bundle: FrameBundle, weight: BrakkeWeight) -> tuple[float, float, float]:
    """The weighted energy ``integral phi e`` and the two right-hand sides of
    its time derivative at one slice: ``(mass, gradient form, tensor
    form)``, the gradient form ``-eps int phi V^2 - eps int (grad phi .
    grad u) V`` and the tensor form ``-eps int phi V^2 + int T : D^2 phi``
    (``V`` the flow's velocity).

    The contraction is ``T : D^2 phi = eps grad u . A grad u - (W(u)/eps)
    tr D^2 phi`` with the weight's ``A``, so no energy density is formed
    for it.  Every integrand is formed elementwise in one scratch array.
    Before the mass forms the energy density, that array and the bundle's
    Laplacian, residual and stacked gradient are dropped, ``grad_sq``
    having been summed from the gradient first; the terms are the same bit
    for bit, and a later read of a dropped quantity computes it again.
    """
    eps, vol = bundle.field.epsilon, bundle.field.grid.cell_volume
    r, g = bundle.residual, bundle.gradient
    buf = weight.value * r
    dissip = -eps * float(np.sum(np.multiply(buf, r, out=buf)) * vol)
    # grad(phi).grad(u), summed in axis order, pairs with the negative velocity
    np.multiply(weight.gradient[0], g[0], out=buf)
    for dphi, gi in zip(weight.gradient[1:], g[1:]):
        buf += dphi * gi
    transport = -eps * float(np.sum(np.multiply(buf, r, out=buf)) * vol)
    quad = 0.0
    for i, j, a in weight.quadratic:
        np.multiply(a, g[i], out=buf)
        quad += float(np.sum(np.multiply(buf, g[j], out=buf)))
    trace = float(np.sum(np.multiply(bundle.well, weight.hessian_trace, out=buf)))
    tensor = (eps * quad - trace / eps) * vol
    del buf, r, g
    bundle.grad_sq  # summed from the stacked gradient before it goes
    del bundle.laplacian, bundle.residual, bundle.gradient
    return weighted_mass(bundle, weight.value), dissip + transport, dissip + tensor


def _sample_index(traj: Trajectory, t: float) -> int:
    """Index of the frame at sample time ``t`` (to half a sampling interval)."""
    i, frame = traj.frame_nearest(t)
    if abs(frame.time - t) > 0.5 * traj.dt_sample + 1e-12:
        raise ValueError(f"t={t:g} is not a sample time of the trajectory")
    return i


def _centered_index(traj: Trajectory, t: float) -> int:
    """Index of the interior frame at sample time ``t``, where a centered
    time difference is defined."""
    if len(traj) < 3:
        raise ValueError("trajectory too short for a centered time derivative")
    i = _sample_index(traj, t)
    if i == 0 or i == len(traj) - 1:
        raise ValueError(f"t={t:g} is an endpoint; the centered derivative needs interior t")
    return i


@dataclass(frozen=True)
class BrakkeResidual:
    """Both forms of the weighted-energy evolution identity at one time."""

    time: float
    dmu_dt: float
    rhs_gradient_form: float
    rhs_tensor_form: float


def brakke_residual(traj: Trajectory, phi: _RadialProfileFunction, t: float) -> BrakkeResidual:
    """Centered-difference d/dt of the weighted energy against its two
    integral forms (gradient-transport form and stress-tensor form).

    ``t`` must coincide with an interior sample of the trajectory.
    """
    i = _centered_index(traj, t)
    weight = brakke_weight(phi, traj.grid)
    mass_prev = weighted_mass(FrameBundle(traj[i - 1]), weight.value)
    mass_next = weighted_mass(FrameBundle(traj[i + 1]), weight.value)
    _, rhs_gradient, rhs_tensor = brakke_terms(FrameBundle(traj[i]), weight)
    return BrakkeResidual(
        time=traj[i].time,
        dmu_dt=(mass_next - mass_prev) / (2.0 * traj.dt_sample),
        rhs_gradient_form=rhs_gradient,
        rhs_tensor_form=rhs_tensor,
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
    disp = grid.displacement(c)
    rel = sum(e * d for e, d in zip(plane.normal, disp))
    height = plane.signed_height(grid, c)
    tang = np.sqrt(np.maximum(sum(d**2 for d in disp) - rel**2, 0.0))

    profile = _RampProfile(lo=0.5 * radius, hi=radius)
    phi = profile.value(tang)
    psi = profile.value(np.abs(height))
    psi_d1 = profile.d1(np.abs(height))

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


def sobolev_defect(field: ScalarField, radius: float,
                   center: Sequence[float] | None = None) -> float:
    """The flat-energy defect ``| mu(B_r)/r^n - alpha omega_n |``.

    The tripled ball, where the paper's bound on the defect lives, must fit
    inside half the box.
    """
    grid = field.grid
    n = grid.interface_dim
    c = center if center is not None else (0.0,) * grid.dim
    if 3.0 * radius > 0.5 * grid.extent:
        raise ValueError("tripled ball must fit inside half the box")

    dens = FrameBundle(field).energy_density
    inner = ball_mask(grid, c, radius)
    mu_r = float(np.sum(dens[inner]) * grid.cell_volume)
    return abs(mu_r / radius**n - WAVE_ENERGY * unit_ball_volume(n))


# ---------------------------------------------------------------------------
# Record rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    energy: float
    tilt_excess: float
    willmore: float
    discrepancy_l1: float
    discrepancy_max: float

    def __post_init__(self) -> None:
        for name in ("energy", "tilt_excess", "willmore"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < -1e-12:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


def diagnostics_record(field: ScalarField) -> DiagnosticsRecord:
    """One row of the standard diagnostics for a single time slice, over the
    whole box; the tilt is taken against the vertical direction.

    Every column reads the slice's one :class:`FrameBundle`, so a row costs
    one gradient, taken one derivative at a time (:func:`_gradient_terms`),
    and one Laplacian.  Each cached array is dropped after its last use
    (Willmore, then the tilt, then the energy and the discrepancy), so a
    row holds few grid-sized arrays at once.
    """
    b = FrameBundle(field)
    vol = field.grid.cell_volume
    wil = willmore(b)
    del b.laplacian, b.residual
    tilt = tilt_excess(b, Hyperplane.vertical(field.grid.dim).normal)
    del b.u_hat
    energy = float(np.sum(b.energy_density) * vol)
    del b.energy_density
    xi = b.discrepancy
    del b.grad_sq, b.well
    return DiagnosticsRecord(
        time=field.time,
        energy=energy,
        tilt_excess=tilt,
        willmore=wil,
        discrepancy_l1=float(np.sum(np.abs(xi)) * vol),
        discrepancy_max=float(np.max(xi)),
    )
