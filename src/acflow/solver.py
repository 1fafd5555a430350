"""Time integration of the reaction-diffusion flow and well-prepared data.

The flow is ``du/dt = lap(u) - W'(u)/eps^2`` with the double-well ``W`` of
:mod:`acflow.grid`.  Every run steps ``semi-implicit-cnab2``, the default
of :class:`SolverConfig`: the identity checks need its second order in
time.  The other two are kept only for the step probes of
``bench/probes.py`` and their own library tests.

``semi-implicit-cnab2``
    Crank-Nicolson on the shifted linear part ``lap - kappa/eps^2`` plus
    Adams-Bashforth 2 on the remaining nonlinearity (kappa = 1 centers the
    explicit Jacobian range).  Second order; any spectrally stationary
    state is an exact fixed point, so the time-discretization error stays
    well below the identities being checked.  Stable for ``dt <= eps^2/3``.

``semi-implicit-spectral``
    Backward-Euler diffusion, explicit reaction:
    ``(I - dt*lap) u_new = u - dt*W'(u)/eps^2``, solved exactly in Fourier
    space.  First order, with the same fixed-point property.  Stable for
    ``dt <= 0.5*eps^2``.

``explicit-rk2``
    Heun's method.  Stable for ``dt <= 1 / (dim*(pi/h)^2 + 4/eps^2)``,
    ``h`` the spacing: the linearised operator's largest rate is the
    spectral Laplacian's ``dim*(pi/h)^2`` plus ``max|W''|/eps^2``, and
    ``dt`` times it is kept at 1, half of the 2 that Heun's method allows
    on the real axis.

:func:`march` is the one time loop: it checks the step count, owns the
scheme state, and yields the initial field and then each step's
``(field, u_hat)``, passing each step's half spectrum into the next one.
A step that produces non-finite values raises :class:`FlowDivergedError`.
:func:`sampled` keeps every ``sample_every``-th of its fields, one at a
time, for a consumer that streams them; :func:`evolve` stores them as a
:class:`~acflow.grid.Trajectory`.  The flow audit of
:mod:`acflow.experiments` consumes :func:`march` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .grid import (WELL_CURVATURE, Grid, NonFiniteFieldError, ScalarField, Trajectory,
                   _is_integer, is_finite_number, well_derivative)
from .operators import from_spectrum, laplacian_values, spectrum, symbols

__all__ = [
    "SCHEMES",
    "SolverConfig",
    "SolverConfigError",
    "InterfaceDataError",
    "FlowDivergedError",
    "validate_config",
    "step_count",
    "sample_count",
    "ac_residual_values",
    "march",
    "sampled",
    "evolve",
    "prepare_interface",
]

SCHEME_SEMI_IMPLICIT = "semi-implicit-spectral"
SCHEME_CNAB2 = "semi-implicit-cnab2"
SCHEME_RK2 = "explicit-rk2"
SCHEMES = (SCHEME_SEMI_IMPLICIT, SCHEME_CNAB2, SCHEME_RK2)

# Stabilization shift for the cnab2 scheme: the explicit Jacobian W''(u) - kappa
# then spans [-3, 3] on [-1, 1], giving the Adams-Bashforth part the stability
# bound dt <= eps^2 / 3.
CNAB2_SHIFT = 1.0

CLAMP = 1.0 - 1e-12

# Points per block of axis-0 rows in which :func:`prepare_interface`
# evaluates the signed distance (32 rows of a 512-point 2-D grid).
_BLOCK_POINTS = 16384


class SolverConfigError(ValueError):
    """A solver configuration violates its scheme's step-size constraint."""


class InterfaceDataError(ValueError):
    """Signed-distance input is not 1-Lipschitz in the transition band."""


class FlowDivergedError(RuntimeError):
    """A time step produced non-finite values.

    ``step`` counts from 1 for the first step of the run, ``time`` is the
    time that step was to reach, and ``max_abs`` is max|u| of the last
    finite field, the one the step started from.
    """

    def __init__(self, step: int, time: float, max_abs: float):
        super().__init__(f"the flow diverged at step {step} (t={time:g}); "
                         f"max|u| was {max_abs:g} before that step")
        self.step = step
        self.time = time
        self.max_abs = max_abs


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = SCHEME_CNAB2
    sample_every: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.scheme, str) and self.scheme in SCHEMES):
            raise SolverConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not (is_finite_number(self.dt) and self.dt > 0):
            raise SolverConfigError(f"dt must be a positive finite number, got {self.dt!r}")
        if not (is_finite_number(self.t_end) and self.t_end >= 0):
            raise SolverConfigError(f"t_end must be a finite number >= 0, got {self.t_end!r}")
        if not (_is_integer(self.sample_every) and self.sample_every >= 1):
            raise SolverConfigError(f"sample_every must be an integer >= 1, "
                                    f"got {self.sample_every!r}")


def dt_limit(scheme: str, grid: Grid, epsilon: float) -> float:
    e2 = epsilon**2
    if scheme == SCHEME_SEMI_IMPLICIT:
        return 0.5 * e2
    if scheme == SCHEME_CNAB2:
        return e2 / 3.0
    if scheme == SCHEME_RK2:
        return e2 / (grid.dim * (math.pi / grid.spacing) ** 2 * e2 + WELL_CURVATURE)
    raise SolverConfigError(f"unknown scheme {scheme!r}")


def validate_config(config: SolverConfig, grid: Grid, epsilon: float) -> None:
    """Reject a step beyond the scheme's stability limit on this grid and epsilon."""
    limit = dt_limit(config.scheme, grid, epsilon)
    if config.dt > limit * (1 + 1e-12):
        raise SolverConfigError(
            f"dt={config.dt:g} exceeds the {config.scheme} limit {limit:g} "
            f"(epsilon={epsilon:g}, spacing={grid.spacing:g})"
        )


def step_count(config: SolverConfig) -> int:
    """Number of steps to ``t_end``, which must be a whole number of steps
    and of samples.

    ``t_end = 0`` gives 0 steps; otherwise ``t_end / dt`` must be finite,
    ``n * dt`` must match ``t_end`` to ``1e-9`` relative, and ``n`` must be
    a multiple of ``sample_every`` so that the sampled trajectory is uniform.
    """
    if config.t_end == 0:
        return 0
    ratio = config.t_end / config.dt
    if not math.isfinite(ratio):
        raise SolverConfigError(f"the time-step arithmetic overflows: t_end={config.t_end:g} "
                                f"over dt={config.dt:g} is not a finite step count")
    n_steps = round(ratio)
    if n_steps < 1 or abs(n_steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise SolverConfigError(
            f"t_end={config.t_end:g} is not a whole number of steps of dt={config.dt:g}"
        )
    if n_steps % config.sample_every != 0:
        raise SolverConfigError(
            f"step count {n_steps} is not a multiple of sample_every={config.sample_every}"
        )
    return n_steps


def sample_count(config: SolverConfig) -> int:
    """Number of fields :func:`sampled` yields: the initial one and every
    ``sample_every``-th step's."""
    return step_count(config) // config.sample_every + 1


def ac_residual_values(field: ScalarField, lap: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side ``lap(u) - W'(u)/eps^2``; equals du/dt on solutions.

    ``lap`` is the field's Laplacian, when the caller already has it.
    """
    if lap is None:
        lap = laplacian_values(field.grid, field.values)
    return lap - well_derivative(field.values) / field.epsilon**2


class _Stepper:
    """Scheme state for one run: half-spectrum symbols and the previous
    reaction term.

    :meth:`advance` returns the new field with its half spectrum (None for
    explicit-rk2).  Passing that spectrum back with the field to the next
    call lets cnab2 skip the forward transform of its input; without it the
    input is transformed afresh.
    """

    def __init__(self, field: ScalarField, config: SolverConfig):
        validate_config(config, field.grid, field.epsilon)
        self.config = config
        self.grid = field.grid
        self.eps2 = field.epsilon**2
        neg_k2 = symbols(self.grid).neg_k2
        dt = config.dt
        if config.scheme == SCHEME_SEMI_IMPLICIT:
            self._solve = 1.0 / (1.0 - dt * neg_k2)
        elif config.scheme == SCHEME_CNAB2:
            sym = neg_k2 - CNAB2_SHIFT / self.eps2
            self._num = 1.0 + 0.5 * dt * sym
            self._den = 1.0 / (1.0 - 0.5 * dt * sym)
        self._prev_reaction: np.ndarray | None = None

    def _reaction(self, u: np.ndarray) -> np.ndarray:
        return well_derivative(u) / self.eps2

    def _shifted_reaction(self, u: np.ndarray) -> np.ndarray:
        return (well_derivative(u) - CNAB2_SHIFT * u) / self.eps2

    def advance(self, field: ScalarField,
                u_hat: np.ndarray | None = None) -> tuple[ScalarField, np.ndarray | None]:
        """One step from ``field``, whose half spectrum is ``u_hat`` if given."""
        dt = self.config.dt
        u = field.values
        scheme = self.config.scheme
        new_hat = None
        if scheme == SCHEME_SEMI_IMPLICIT:
            new_hat = spectrum(self.grid, u - dt * self._reaction(u)) * self._solve
        elif scheme == SCHEME_CNAB2:
            n_k = self._shifted_reaction(u)
            n_prev = self._prev_reaction if self._prev_reaction is not None else n_k
            if u_hat is None:
                u_hat = spectrum(self.grid, u)
            rhs = self._num * u_hat - dt * spectrum(self.grid, 1.5 * n_k - 0.5 * n_prev)
            new_hat = rhs * self._den
            self._prev_reaction = n_k
        else:  # explicit-rk2 (Heun)
            f = field
            k1 = ac_residual_values(f)
            mid = f.with_values(u + dt * k1)
            k2 = ac_residual_values(mid)
            new = u + 0.5 * dt * (k1 + k2)
        if new_hat is not None:
            new_hat.flags.writeable = False
            new = from_spectrum(self.grid, new_hat)
        return field.with_values(new, time=field.time + dt), new_hat


def march(field: ScalarField,
          config: SolverConfig) -> Iterator[tuple[ScalarField, np.ndarray | None]]:
    """Yield ``(field, u_hat)`` for the initial field, then after each step.

    ``u_hat`` is the field's read-only half spectrum, or None where there is
    none (the initial field, explicit-rk2).  A step whose values are not
    all finite raises :class:`FlowDivergedError`.
    """
    n_steps = step_count(config)
    stepper = _Stepper(field, config)
    u_hat = None
    yield field, u_hat
    for k in range(1, n_steps + 1):
        try:
            # an overflow ends in non-finite values, which are reported below
            with np.errstate(over="ignore", invalid="ignore"):
                new, u_hat = stepper.advance(field, u_hat)
        except NonFiniteFieldError:
            raise FlowDivergedError(k, field.time + config.dt,
                                    float(np.max(np.abs(field.values)))) from None
        field = new
        yield field, u_hat


def sampled(field: ScalarField, config: SolverConfig) -> Iterator[ScalarField]:
    """Yield every ``sample_every``-th field of :func:`march`, the initial
    field first; the flow advances only as the fields are taken.  This
    frame lets go of the initial field once :func:`march` holds it, so it
    is freed after the first step unless the consumer keeps it."""
    flow = march(field, config)
    del field
    for i, (f, _) in enumerate(flow):
        if i % config.sample_every == 0:
            yield f


def evolve(field: ScalarField, config: SolverConfig) -> Trajectory:
    """Run to ``t_end``, storing the fields of :func:`sampled`."""
    return Trajectory(frames=tuple(sampled(field, config)),
                      dt_sample=config.dt * config.sample_every)


def prepare_interface(signed_distance: Callable[..., np.ndarray], grid: Grid,
                      epsilon: float) -> ScalarField:
    """Well-prepared data ``u0 = tanh(d/eps)`` from a signed-distance function.

    ``signed_distance`` is called with broadcastable coordinate arrays, on
    blocks of axis-0 rows of about ``_BLOCK_POINTS`` points each, so that
    the temporaries of one evaluation span a block, not the box; it must
    act pointwise, and the distance is written into one array.  Its
    gradient is probed by small central differences inside the transition
    band, block by block, once the whole distance is known to be finite;
    exceeding unit slope there (the largest over the blocks) would break
    the non-positivity of the discrepancy, so it is an error.  The profile
    is clamped at +-(1 - 1e-12) to keep the inverse-profile diagnostic
    finite.
    """
    coords = grid.coords()
    rows = max(1, _BLOCK_POINTS // grid.points ** (grid.dim - 1))
    blocks = [(slice(lo, lo + rows), (coords[0][lo:lo + rows],) + coords[1:])
              for lo in range(0, grid.points, rows)]
    d = np.empty(grid.shape)
    for at, block in blocks:
        d[at] = np.broadcast_to(signed_distance(*block), d[at].shape)
        if not np.all(np.isfinite(d[at])):
            raise InterfaceDataError("signed distance evaluated to non-finite values")

    band_halfwidth = min(5.0 * epsilon * math.atanh(1.0 - 1e-6), 0.5 * grid.extent)
    delta = 1e-4 * grid.extent
    peaks = []  # per block with band points: the largest squared slope there
    for at, block in blocks:
        band = np.abs(d[at]) <= band_halfwidth
        if not np.any(band):
            continue
        grad_sq = np.zeros(band.shape)
        for ax in range(grid.dim):
            shifted_plus = list(block)
            shifted_minus = list(block)
            shifted_plus[ax] = block[ax] + delta
            shifted_minus[ax] = block[ax] - delta
            g = (signed_distance(*shifted_plus) - signed_distance(*shifted_minus)) / (2 * delta)
            grad_sq += np.broadcast_to(g, band.shape) ** 2
        peaks.append(np.max(grad_sq[band]))
    if peaks:
        worst = float(np.sqrt(np.max(peaks)))
        if worst > 1.0 + 1e-6:
            raise InterfaceDataError(
                f"|grad d| = {worst:.8f} > 1 + 1e-6 in the transition band; "
                "input is not a signed distance there"
            )

    u0 = np.clip(np.tanh(d / epsilon), -CLAMP, CLAMP)
    return ScalarField(grid=grid, values=u0, epsilon=epsilon)
