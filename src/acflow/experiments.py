"""Scenario orchestration: configuration, streaming audits, verdicts.

Each scenario builds well-prepared data, runs the flow, evaluates a fixed
set of named checks against pinned tolerances, and emits machine-readable
reports.  Runs are deterministic given the configuration and seed.  A
scenario that runs independent flows runs them side by side, one thread per
usable CPU (:func:`_concurrently`); its reports are byte-identical to a
sequential run.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cache, partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .diagnostics import (
    DiagnosticsRecord,
    FrameBundle,
    Hyperplane,
    brakke_terms,
    brakke_weight,
    caccioppoli_ratio,
    diagnostics_record,
    divergence_defect,
    radial_bump,
    sobolev_defect,
)
from .grid import (Grid, ParabolicCylinder, ScalarField, Trajectory, WAVE_ENERGY,
                   is_finite_number, window_weights)
from .initial_data import circle_distance, graph_pair_distance, plane_pair_distance, sine_mode
from .io import write_diagnostics_csv, write_field, write_graph_csv, write_json, write_table_csv
from .levelset import (
    ExcessDecayReport,
    distance_gradient_max,
    excess_decay_ratio,
    extract_graph,
    good_bad_partitions,
    heat_compare,
)
from .monotonicity import KernelPoint, monotonicity_terms
from .operators import integrate_values
from .solver import SolverConfig, SolverConfigError, prepare_interface
from . import solver as solver_mod

__all__ = [
    "ConfigError",
    "ScenarioError",
    "ExperimentConfig",
    "CheckResult",
    "ScenarioResult",
    "SCENARIOS",
    "default_config",
    "load_config",
    "run_scenario",
    "write_reports",
    "density_ratio_profile",
    "no_cancellation_check",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every violation."""


class ScenarioError(RuntimeError):
    """A run whose flow leaves one of its checks nothing to read."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The kind of every config value: int (a JSON integer within the float
# range, not a bool), float (a finite number), str, dict (an object) or list
# (a non-empty list of finite numbers); a tuple lists alternatives.  A
# scenario's params take their kinds from its _DEFAULTS entry, which is
# also their only default.
_TOP_KINDS = {"scenario": str, "grid": dict, "epsilon": (float, list), "solver": dict,
              "params": dict, "seed": int}
# an absent grid or solver section is checked as empty, so its missing keys are named
_TOP_DEFAULTS = {"grid": {}, "solver": {}, "params": {}, "seed": 0}
_GRID_KINDS = {"dim": int, "extent": float, "points": int}
_SOLVER_KINDS = {"dt_factor": float, "t_end": float, "sample_every": int}
_SOLVER_DEFAULTS = {"sample_every": 1}
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a non-empty list of finite numbers"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A config as the loader accepted it.

    ``source`` is the JSON object :func:`_build_config` accepted, with every
    key present and every number of its declared kind; the manifest writes
    it back, and it loads to an equal config.  Every other field is read
    from it, so no config disagrees with its source.
    """

    source: dict
    scenario: str = dc_field(init=False)
    grid: Grid = dc_field(init=False)
    epsilons: tuple[float, ...] = dc_field(init=False)
    dt_factor: float = dc_field(init=False)
    t_end: float = dc_field(init=False)
    sample_every: int = dc_field(init=False)
    params: dict = dc_field(init=False)
    seed: int = dc_field(init=False)

    def __post_init__(self) -> None:
        src, eps = self.source, self.source["epsilon"]
        read = {"scenario": src["scenario"], "grid": Grid(**src["grid"]),
                "epsilons": tuple(eps) if isinstance(eps, list) else (eps,),
                **{key: src["solver"][key] for key in _SOLVER_KINDS},
                "params": src["params"], "seed": src["seed"]}
        for name, value in read.items():
            object.__setattr__(self, name, value)

    def dt_for(self, epsilon: float) -> float:
        return self.dt_factor * epsilon**2

    def solver_config(self, epsilon: float, t_end: float | None = None,
                      dt_scale: float = 1.0, sample_every: int | None = None) -> SolverConfig:
        return SolverConfig(
            dt=self.dt_for(epsilon) * dt_scale,
            t_end=self.t_end if t_end is None else t_end,
            sample_every=self.sample_every if sample_every is None else sample_every,
        )


def _fits(value, kind) -> bool:
    if kind is int:
        return isinstance(value, int) and is_finite_number(value)
    if kind is float:
        return is_finite_number(value)
    if kind is list:
        return isinstance(value, list) and bool(value) and all(map(is_finite_number, value))
    return isinstance(value, kind)


def _checked(mapping: dict, kinds: dict, where: str, problems: list[str],
             defaults: dict | None = None) -> dict:
    """The values of ``mapping`` merged over ``defaults``, numbers as floats
    where ``kinds`` asks for floats.

    Unknown keys, keys missing with no default and values of the wrong kind
    are appended to ``problems`` and left out of the result.
    """
    out = json.loads(json.dumps(defaults or {}))
    for key, value in mapping.items():
        if key not in kinds:
            problems.append(f"unknown key {key!r} in {where} (allowed: {sorted(kinds)})")
            continue
        alternatives = kinds[key] if isinstance(kinds[key], tuple) else (kinds[key],)
        fitting = [k for k in alternatives if _fits(value, k)]
        if not fitting:
            names = " or ".join(_KIND_NAMES[k] for k in alternatives)
            problems.append(f"{where}.{key} must be {names}, got {value!r}")
            out.pop(key, None)
        elif fitting[0] is float:
            out[key] = float(value)
        else:
            out[key] = [float(v) for v in value] if fitting[0] is list else value
    for key in kinds:
        if key not in mapping and key not in out:
            problems.append(f"missing key {key!r} in {where}")
    return out


def _build_config(raw: dict) -> ExperimentConfig:
    """Parse a raw config; every violation is reported in one ConfigError.

    Structural problems (unknown or missing keys, values of the wrong kind,
    an invalid grid) are collected first; when there are none, the rules
    of :func:`_validate_config` run on the built config.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    problems: list[str] = []
    top = _checked(raw, _TOP_KINDS, "config", problems, _TOP_DEFAULTS)
    grid_raw = _checked(top.get("grid", {}), _GRID_KINDS, "config.grid", problems)
    solver = _checked(top.get("solver", {}), _SOLVER_KINDS, "config.solver", problems,
                      _SOLVER_DEFAULTS)

    scenario = top.get("scenario")
    params = {}
    if "scenario" in top and scenario not in _DEFAULTS:
        problems.append(f"unknown scenario {scenario!r}; expected one of {sorted(SCENARIOS)}")
    elif scenario is not None and "params" in top:
        declared = _DEFAULTS[scenario]["params"]
        kinds = {key: list if isinstance(v, list) else type(v) for key, v in declared.items()}
        params = _checked(top["params"], kinds, "config.params", problems, declared)

    if _GRID_KINDS.keys() <= grid_raw.keys():
        try:
            Grid(**grid_raw)
        except ValueError as exc:
            problems.append(f"config.grid: {exc}")

    eps = top.get("epsilon")
    # a scenario runs every epsilon of a list when its default is one
    if (isinstance(eps, list) and scenario in _DEFAULTS
            and not isinstance(_DEFAULTS[scenario]["epsilon"], list)):
        problems.append(f"{scenario} runs one epsilon, so config.epsilon must be a number, "
                        f"got {eps!r}")
    epsilons = tuple(eps) if isinstance(eps, list) else (eps,)
    if "epsilon" in top and not all(e > 0 for e in epsilons):
        problems.append(f"epsilon values must be positive, got {eps!r}")
    if len(set(epsilons)) < len(epsilons):
        problems.append(f"epsilon values must be distinct, got {eps!r}")
    if "t_end" in solver and not solver["t_end"] > 0:
        problems.append(f"config.solver.t_end must be positive, got {solver['t_end']!r}")
    if top.get("seed", 0) < 0:  # numpy's generators take no negative seed
        problems.append(f"config.seed must be non-negative, got {top['seed']!r}")
    if problems:
        raise ConfigError("; ".join(problems))

    config = ExperimentConfig({**top, "grid": grid_raw, "solver": solver, "params": params})
    _validate_config(config)
    return config


# Scenarios built for a 2-D box: shrinking-circle checks the n = 1 radius
# law and centers its density profile at (r, 0), excess-decay prepares its
# data from a 2-D graph distance, and inequality-ratios builds 2-D grids of
# its own.  The other scenarios run in every dimension a Grid allows.
_PLANAR = frozenset({"shrinking-circle", "excess-decay", "inequality-ratios"})

# Scenarios whose identity checks read centred residuals of a flow audit
# past the burn-in (:func:`_burn_in`).
_AUDITED = frozenset({"shrinking-circle", "monotonicity-sweep"})


def _burn_in(eps: float) -> float:
    """The first ``10 eps^2`` of time, which the audited identity checks
    skip: prepared data relax onto the travelling profile over that window
    and are not yet a flow solution."""
    return 10.0 * eps**2


def _validate_config(config: ExperimentConfig) -> None:
    """Dimension, resolution, margin, time-step and burn-in rules, and the
    scenario params that would fail mid-run; every violation reported at
    once.

    Every flow of :func:`_flows` must build, its step must lie within
    cnab2's stability limit ``dt <= eps^2/3``, and its horizon must be a whole
    number of steps and of samples (:func:`solver.step_count`).  An audited
    scenario's base flows also need ``t_end - dt >= 10 eps^2 + dt/2``, so
    that the step-``dt`` audit has a centred residual past the burn-in.  A
    no-cancellation base flow that meets the step rules needs at least 4
    samples, so that :func:`no_cancellation_check` picks three distinct
    ones."""
    problems: list[str] = []
    if config.scenario in _PLANAR and config.grid.dim != 2:
        problems.append(f"{config.scenario} runs on a 2-D grid only, "
                        f"got grid.dim={config.grid.dim}")
    h, margin = config.grid.spacing, _interface_margin(config)
    for eps in config.epsilons:
        if eps < 4.0 * h:
            problems.append(f"epsilon={eps:g} violates the resolution rule "
                            f"epsilon >= 4*spacing (spacing={h:g})")
        if margin < 8.0 * eps:
            problems.append(f"interface margin {margin:g} is below 8*epsilon={8 * eps:g} "
                            f"for epsilon={eps:g}")
    flows = _flows(config, problems)
    if config.scenario in _AUDITED:
        for eps, flow in _of_kind(flows, "base").items():
            cfg = flow.config
            last = cfg.t_end - cfg.dt  # the step-dt audit's last centred residual
            # half a step of slack absorbs the round-off of the summed step times
            if last - 0.5 * cfg.dt < _burn_in(eps):
                problems.append(
                    f"t_end - dt = {last:g} is not half a step (dt={cfg.dt:g}) past the "
                    f"burn-in 10*epsilon^2 = {_burn_in(eps):g} for epsilon={eps:g}, so no "
                    f"audited step is left to check")
    for (kind, eps), flow in list(flows.items()):
        for rule in (partial(solver_mod.validate_config, grid=flow.grid, epsilon=eps),
                     solver_mod.step_count):
            try:
                rule(flow.config)
            except (SolverConfigError, OverflowError) as exc:
                problems.append(_flow_problem(config, kind, eps, exc))
                flows.pop((kind, eps), None)  # only flows that meet the rules go on
    if config.scenario == "no-cancellation":
        for eps, flow in _of_kind(flows, "base").items():
            count = solver_mod.sample_count(flow.config)
            if count < 4:
                problems.append(
                    f"the no-cancellation check reads the samples a quarter, a half and three "
                    f"quarters along each flow, so it needs at least 4, but the epsilon={eps:g} "
                    f"flow has {count}")
    problems += _param_problems(config)
    if config.scenario == "excess-decay":
        problems += _excess_decay_problems(config, _of_kind(flows, "fit"))
    if problems:
        raise ConfigError("; ".join(dict.fromkeys(problems)))


@dataclass(frozen=True)
class Flow:
    """One flow of :func:`_flows`: its grid, solver config, layer width and
    initial data ``data(grid, epsilon)``.  Only the entry runs its flow,
    each time from freshly built data: iterating it yields the samples of
    :func:`solver.sampled`, so a flow read twice keeps no frame between the
    passes; :meth:`steps` yields every step and :meth:`trajectory` stores
    the samples."""

    grid: Grid
    config: SolverConfig
    epsilon: float
    data: Callable[[Grid, float], ScalarField]

    def start(self) -> ScalarField:
        """The flow's initial field, built anew."""
        return self.data(self.grid, self.epsilon)

    # generators: the initial data is built when the first frame is taken,
    # and only the solver holds it
    def __iter__(self) -> Iterator[ScalarField]:
        yield from solver_mod.sampled(self.start(), self.config)

    def steps(self) -> Iterator[tuple[ScalarField, np.ndarray | None]]:
        """Each ``(field, u_hat)`` of :func:`solver.march`."""
        yield from solver_mod.march(self.start(), self.config)

    def trajectory(self) -> Trajectory:
        """The samples, stored by :func:`solver.evolve`."""
        return solver_mod.evolve(self.start(), self.config)


def _flows(config: ExperimentConfig, problems: list[str] | None = None,
           ) -> dict[tuple[str, float], Flow]:
    """Every flow a command runs with ``config``, by kind and epsilon.

    ``base``: each epsilon on the config grid at the config's step (what
    ``acflow simulate`` runs), from the circle of ``params.radius`` if the
    scenario declares one, else excess-decay's graph or the flat layer
    pair.  ``fine``: an audited scenario's base flow at half the step.
    ``coarse`` and ``flat``: shrinking-circle's 2-eps circle on the
    ``coarse_extent`` box and its static flat layer.  ``main``, ``fit``
    and ``rough``: excess-decay's graph, tilted graph and rough layer, on
    per-epsilon grids (points ~ 1/eps keep the layer resolution fixed),
    each keeping every ``max(1, n // target)``-th of its ``n`` steps.
    ``circle``: inequality-ratios' two epsilon-stability circles.  An entry
    that does not build raises, or, with ``problems`` given, is named there.
    """
    grid, p = config.grid, config.params
    table: dict[tuple[str, float], Flow] = {}

    def add(kind: str, eps: float, data: Callable[[Grid, float], ScalarField],
            build: Callable[[], tuple[Grid, SolverConfig]]) -> None:
        try:
            table[kind, eps] = Flow(*build(), eps, data)
        except (ValueError, OverflowError) as exc:  # SolverConfigError is a ValueError
            if problems is None:
                raise
            problems.append(_flow_problem(config, kind, eps, exc))

    if "radius" in p:
        data = partial(_circle_initial, radius=p["radius"])
    elif config.scenario == "excess-decay":
        data = partial(_perturbed_initial, amplitude_over_eps=p["amplitude_over_epsilon"],
                       mode=p["mode"])
    else:
        data = _wave_initial
    for eps in config.epsilons:
        add("base", eps, data, lambda: (grid, config.solver_config(eps)))
    eps = config.epsilons[0]
    if config.scenario in _AUDITED:
        add("fine", eps, data, lambda: (grid, config.solver_config(
            eps, dt_scale=0.5, sample_every=2 * config.sample_every)))
    if config.scenario == "shrinking-circle":
        add("coarse", 2 * eps, data, lambda: (
            Grid(dim=grid.dim, extent=p["coarse_extent"], points=grid.points),
            config.solver_config(2 * eps, dt_scale=0.5)))
        flat_dt = 0.125 * 0.05**2
        add("flat", 0.05, _wave_initial, lambda: (grid, SolverConfig(
            dt=flat_dt, t_end=576 * flat_dt, sample_every=8)))
    if config.scenario == "excess-decay":
        @cache
        def grid_for(eps: float) -> Grid:
            pts = int(round(grid.points * min(config.epsilons) / eps))
            pts = max(64, 1 << (pts - 1).bit_length())  # next power of two
            return Grid(dim=grid.dim, extent=grid.extent, points=min(pts, grid.points))

        def sampled(eps: float, horizon: Callable[[], float], target: int,
                    ) -> tuple[Grid, SolverConfig]:
            cfg = config.solver_config(eps, t_end=horizon(), sample_every=1)
            n = round(cfg.t_end / cfg.dt)  # a whole step count, or step_count says why not
            return grid_for(eps), replace(cfg, sample_every=max(1, n // target))

        eps_sorted = sorted(config.epsilons, reverse=True)
        fit_eps = [e for e in eps_sorted if e >= 0.02] or eps_sorted[:2]
        for e in config.epsilons:
            add("main", e, data, partial(sampled, e, lambda: config.t_end, 10))
        tilted = partial(data, tilt_over_eps=p["tilt_over_epsilon"])
        for e in fit_eps:  # over 32 steps of the smallest fit epsilon
            add("fit", e, tilted,
                partial(sampled, e, lambda: 32.0 * config.dt_for(min(fit_eps)), 4))
        e = eps_sorted[min(1, len(eps_sorted) - 1)]
        add("rough", e, _multiscale_rough_initial,
            partial(sampled, e, lambda: 0.1 * config.t_end, 8))
    if config.scenario == "inequality-ratios":
        circle = partial(_circle_initial, radius=p["circle_radius"])
        for points, ce in ((grid.points, eps), (2 * grid.points, eps / 2)):
            add("circle", ce, circle, lambda: (
                Grid(dim=2, extent=p["circle_extent"], points=points),
                SolverConfig(dt=0.125 * ce**2, t_end=40 * 0.125 * ce**2, sample_every=40)))
    return table


def _of_kind(flows: dict[tuple[str, float], Flow], kind: str) -> dict[float, Flow]:
    """The flows of one kind, by epsilon, in table order."""
    return {eps: flow for (k, eps), flow in flows.items() if k == kind}


def _flow_problem(config: ExperimentConfig, kind: str, eps: float, exc: Exception) -> str:
    """A flow's violation, prefixed ``<scenario> <kind> flow:`` but for ``base``."""
    text = str(exc)
    if isinstance(exc, OverflowError):  # eps**2 or (pi/spacing)**2 past the float range
        text = (f"the time-step arithmetic overflows for epsilon={eps:g} "
                f"(spacing={config.grid.spacing:g}, t_end={config.t_end:g})")
    return text if kind == "base" else f"{config.scenario} {kind} flow: {text}"


def _excess_decay_problems(config: ExperimentConfig, fits: dict[float, Flow]) -> list[str]:
    """The fit and partition params: ``theta`` in (0, 1), positive
    thresholds, ``0 < fit_scale <= extent/2`` (the fit's cylinders fit the
    box), and a ``theta * fit_scale`` time window that holds at least two
    samples of each fit flow of ``fits``, centred as the run centres it."""
    p = config.params
    theta, scale, half = p["theta"], p["fit_scale"], 0.5 * config.grid.extent
    problems = []
    if not 0.0 < theta < 1.0:
        problems.append(f"params.theta={theta:g} must lie in (0, 1)")
    if not all(t > 0 for t in p["thresholds"]):
        problems.append(f"params.thresholds must all be positive, got {p['thresholds']!r}")
    if not 0.0 < scale <= half:
        problems.append(f"params.fit_scale={scale:g} must lie in (0, extent/2 = {half:g}]")
    if problems:
        return problems
    r2 = (theta * scale) ** 2
    for eps, fit in fits.items():
        cfg = fit.config
        interval = cfg.dt * cfg.sample_every
        times = np.arange(solver_mod.sample_count(cfg)) * interval
        t0 = times[len(times) // 2]
        if len(window_weights(times, t0 - r2, t0 + r2, interval)[0]) < 2:
            problems.append(
                f"the excess-decay fit window t0 +- (theta*fit_scale)^2 = t0 +- {r2:g} holds "
                f"fewer than two samples of the epsilon={eps:g} fit flow "
                f"(sample interval {interval:g})")
    return problems


def _param_problems(config: ExperimentConfig) -> list[str]:
    """The params no run can use: a circle that is not there or that
    vanishes before ``t_end``, a kernel point before the last sample, a
    bump of radius 0 (its defect is NaN), and inequality-ratios' circle
    closer than ``_CIRCLE_MARGIN`` eps to its box edge, Sobolev balls that
    leave half their box or stress-energy grids that do not build."""
    p, scenario = config.params, config.scenario
    problems = []
    if "radius" in p and not p["radius"] > 0:
        problems.append(f"params.radius={p['radius']:g} must be positive")
    elif scenario == "shrinking-circle" and p["radius"] * p["radius"] <= 2.0 * config.t_end:
        problems.append(f"params.radius={p['radius']:g} leaves no circle at t_end={config.t_end:g}"
                        f" under the radius law R^2 = radius^2 - 2t (needs radius^2 > 2*t_end)")
    if scenario == "monotonicity-sweep" and not p["kernel_lag"] > 0:
        problems.append(f"params.kernel_lag={p['kernel_lag']:g} must be positive: the "
                        f"backward kernel sits at t_end + kernel_lag, after every sample")
    if scenario == "no-cancellation" and not all(r > 0 for r in p["bump_radii"]):
        problems.append(f"params.bump_radii must all be positive, got {p['bump_radii']!r}")
    if scenario == "inequality-ratios":
        balls = (("grid.extent", config.grid.extent, 0.5 * p["ball_radius"]),
                 ("params.circle_extent", p["circle_extent"], _CIRCLE_BALL))
        for name, extent, radius in balls:
            if not 0.0 < 3.0 * radius <= 0.5 * extent:
                problems.append(f"the tripled Sobolev ball of radius {3 * radius:g} must be "
                                f"positive and fit inside half the {name}={extent:g} box")
        circle_margin = 0.5 * p["circle_extent"] - p["circle_radius"]
        if not p["circle_radius"] > 0:
            problems.append(f"params.circle_radius={p['circle_radius']:g} must be positive")
        elif circle_margin < _CIRCLE_MARGIN * config.epsilons[0]:
            problems.append(
                f"params.circle_radius={p['circle_radius']:g} leaves {circle_margin:g} to the "
                f"edge of the params.circle_extent={p['circle_extent']:g} box, below "
                f"{_CIRCLE_MARGIN:g}*epsilon={_CIRCLE_MARGIN * config.epsilons[0]:g}: the layer "
                f"meets its periodic image and the circle loses its zero crossing")
        try:
            _stress_energy_grids(config)
        except ValueError as exc:
            problems.append(f"inequality-ratios stress-energy grid (grid.points // 8, // 4 "
                            f"or // 2): {exc}")
    return problems


def _interface_margin(config: ExperimentConfig) -> float:
    """Distance from the studied interface to the nearest box feature: the
    box edge for the circle of a scenario that declares a ``radius``, else
    the fold of the flat family's companion construction, L/4 out."""
    L = config.grid.extent
    if "radius" in config.params:
        return 0.5 * L - config.params["radius"]
    return 0.25 * L


def load_config(path: str | Path) -> ExperimentConfig:
    """The config of a JSON file; a file that cannot be read or parsed
    raises :class:`ConfigError`, as an invalid config does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {path}: {reason}") from None
    return _build_config(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _build_config(json.loads(json.dumps(raw)))


_DEFAULTS: dict[str, dict] = {
    "standing-wave": {
        "scenario": "standing-wave",
        "grid": {"dim": 1, "extent": 2.56, "points": 4096},
        "epsilon": 0.05,
        "solver": {"dt_factor": 0.125, "t_end": 0.01, "sample_every": 8},
        "params": {},
        "seed": 0,
    },
    "shrinking-circle": {
        "scenario": "shrinking-circle",
        "grid": {"dim": 2, "extent": 1.2, "points": 256},
        "epsilon": 0.02,
        "solver": {"dt_factor": 0.25, "t_end": 0.04, "sample_every": 20},
        "params": {"radius": 0.35, "coarse_extent": 1.4},
        "seed": 0,
    },
    "monotonicity-sweep": {
        "scenario": "monotonicity-sweep",
        "grid": {"dim": 2, "extent": 1.2, "points": 256},
        "epsilon": 0.02,
        "solver": {"dt_factor": 0.25, "t_end": 0.04, "sample_every": 20},
        "params": {"radius": 0.35, "kernel_lag": 0.01},
        "seed": 0,
    },
    "excess-decay": {
        "scenario": "excess-decay",
        "grid": {"dim": 2, "extent": 1.28, "points": 512},
        "epsilon": [0.04, 0.02, 0.01],
        "solver": {"dt_factor": 0.125, "t_end": 0.01, "sample_every": 10},
        "params": {
            "amplitude_over_epsilon": 0.5,
            "mode": 1,
            "theta": 0.25,
            "fit_scale": 0.2,
            "tilt_over_epsilon": 2.5,
            "k1": 10.0,
            "thresholds": [0.01, 0.02, 0.04],
            "band": 0.05,
        },
        "seed": 0,
    },
    "no-cancellation": {
        "scenario": "no-cancellation",
        "grid": {"dim": 2, "extent": 1.4, "points": 320},
        "epsilon": [0.04, 0.02],
        "solver": {"dt_factor": 0.125, "t_end": 0.02, "sample_every": 20},
        "params": {"radius": 0.35, "bump_radii": [0.15, 0.25, 0.35, 0.45, 0.55]},
        "seed": 0,
    },
    "inequality-ratios": {
        "scenario": "inequality-ratios",
        "grid": {"dim": 2, "extent": 1.28, "points": 256},
        "epsilon": 0.04,
        "solver": {"dt_factor": 0.125, "t_end": 0.001, "sample_every": 5},
        "params": {"slope": 0.05, "ball_radius": 0.2, "circle_radius": 0.35,
                   "circle_extent": 1.2},
        "seed": 0,
    },
}

SCENARIOS = tuple(sorted(_DEFAULTS))


def default_config(scenario: str) -> ExperimentConfig:
    if scenario not in _DEFAULTS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {sorted(SCENARIOS)}")
    return _build_config(_DEFAULTS[scenario])


# ---------------------------------------------------------------------------
# Checks and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    claim: str
    value: float
    tolerance: float
    comparison: str  # a key of _COMPARISONS
    passed: bool

    def __str__(self) -> str:
        """The check as ``acflow experiment`` and the acceptance gate print it."""
        return f"{self.name}: value={self.value:.6g} {self.comparison} {self.tolerance:.6g}"


_COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def check(name: str, claim: str, value: float, tolerance: float, comparison: str = "<=") -> CheckResult:
    """The verdict on ``value <comparison> tolerance``, the one way to a CheckResult."""
    compare = _COMPARISONS.get(comparison)
    if compare is None:
        raise ValueError(f"unknown comparison {comparison!r}")
    return CheckResult(name=name, claim=claim, value=float(value), tolerance=float(tolerance),
                       comparison=comparison, passed=bool(compare(value, tolerance)))


def _worst_step_ratio(values: Sequence[float]) -> float:
    """The largest ratio of a value to the one before it (``inf`` after a non-positive
    value, 0 with no step): below 1 when the values strictly decrease."""
    ratios = [b / a if a > 0 else math.inf for a, b in zip(values, values[1:])]
    return max(ratios) if ratios else 0.0


def _spread(values: Sequence[float]) -> float:
    """``max / min`` of values that are all positive, else ``inf``: how far
    apart a quantity measured at several resolutions lies."""
    return max(values) / min(values) if all(v > 0 for v in values) else math.inf


@dataclass
class ScenarioResult:
    config: ExperimentConfig
    checks: list[CheckResult]
    records: list[DiagnosticsRecord]
    payload: dict
    final_fields: list[ScalarField] = dc_field(default_factory=list)
    extra_tables: dict = dc_field(default_factory=dict)
    graphs: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# Streaming flow audit
# ---------------------------------------------------------------------------


@dataclass
class FlowAudit:
    """Per-step dissipation and identity terms over a window of steps of one
    run, the energy at the window's two ends and, unless the run kept no
    frames, its thinned trajectory."""

    dt: float
    times: np.ndarray
    end_energies: tuple[float, float]  # at the window's first and last step
    dissipation: np.ndarray  # integral of eps * residual^2 per step
    terms: np.ndarray  # (steps, k): one row of the audit's terms per step
    trajectory: Trajectory | None  # None when the run kept no frames

    def dissipation_defect(self) -> float:
        """Relative defect of energy drop against the dissipation integral."""
        first, last = self.end_energies
        drop = first - last
        idx, weights = window_weights(self.times, self.times[0], self.times[-1], self.dt)
        total = float(np.sum(self.dissipation[idx] * weights))
        return abs(total - drop) / abs(drop)

    def rate(self, values: np.ndarray) -> np.ndarray:
        """Centred time derivative of per-step ``values`` at interior steps."""
        return (values[2:] - values[:-2]) / (2.0 * self.dt)


def run_flow_audit(flow: Flow, terms: Callable[[FrameBundle], tuple[float, ...]],
                   keep_frames: bool, window: range | None = None) -> FlowAudit:
    """Run ``flow`` while recording per-step scalars at the steps of
    ``window``, by default every step ``0..n``.

    Each step's quantities come from one :class:`FrameBundle` seeded with
    the half spectrum :meth:`Flow.steps` yields, so the step's spectral
    work is shared by the dissipation, the energy and ``terms``.  The
    dissipation needs only the Laplacian.  The energy, which needs the
    gradient too, is recorded at the window's first and last step only.
    Each step's ``terms`` tuple is one row of ``FlowAudit.terms``.  The
    bundle is dropped after its step.  With ``keep_frames`` the stored
    trajectory keeps every ``sample_every``-th field from step 0, as
    :meth:`Flow.trajectory` does; without it the run holds no field past
    its step, the initial one included.

    A window ``range(a, b)`` replays steps ``0..a-1`` with no bundle (their
    samples are still kept) and stops after step ``b - 1``.  It splits the
    run at samples: ``a`` and ``b`` must be multiples of ``sample_every``,
    or ``b = n + 1``.  Windows that cover ``0..n`` join
    (:func:`join_audits`) to the audit of the whole run, bit for bit, as an
    audit only reads each step's field and spectrum.
    """
    cfg, eps, vol = flow.config, flow.epsilon, flow.grid.cell_volume
    n = solver_mod.step_count(cfg)
    window = range(n + 1) if window is None else window
    if (window.step != 1 or not 0 <= window.start < window.stop <= n + 1
            or window.start % cfg.sample_every
            or (window.stop % cfg.sample_every and window.stop != n + 1)):
        raise ValueError(f"an audit window runs over steps a..b-1 with 0 <= a < b <= {n + 1} "
                         f"and a, b multiples of sample_every={cfg.sample_every} (or b = "
                         f"{n + 1}), got {window}")
    times, dissipations, energies, rows, frames = [], [], [], [], []
    # the recording runs under the errstate march steps under: the terms of
    # a huge but finite field overflow silently, and the step after it
    # raises the typed error, as it does without the recording
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (current, u_hat) in islice(enumerate(flow.steps()), window.stop):
            if keep_frames and i % cfg.sample_every == 0:
                frames.append(current)
            if i < window.start:
                continue
            b = FrameBundle(current, u_hat)
            times.append(current.time)
            dissipations.append(float(np.sum(eps * b.residual * b.residual) * vol))
            rows.append(terms(b))
            # after the terms, which may have formed the energy density and
            # dropped what it does not read
            if i in (window.start, window.stop - 1):
                energies.append(float(np.sum(b.energy_density) * vol))
            del b  # freed before march runs the next step
    return FlowAudit(
        dt=cfg.dt,
        times=np.array(times),
        end_energies=(energies[0], energies[-1]),
        dissipation=np.array(dissipations),
        terms=np.array(rows, dtype=float),
        trajectory=(Trajectory(frames=tuple(frames), dt_sample=cfg.dt * cfg.sample_every)
                    if keep_frames else None),
    )


def join_audits(*windows: FlowAudit) -> FlowAudit:
    """The audit of consecutive step windows of one run, in step order: the
    per-step series end to end, the first window's first energy, and the
    last window's last energy and trajectory, which holds every sample up
    to its end."""
    first, last = windows[0], windows[-1]
    return FlowAudit(
        dt=first.dt,
        times=np.concatenate([w.times for w in windows]),
        end_energies=(first.end_energies[0], last.end_energies[1]),
        dissipation=np.concatenate([w.dissipation for w in windows]),
        terms=np.concatenate([w.terms for w in windows]),
        trajectory=last.trajectory,
    )


# ---------------------------------------------------------------------------
# Reusable measurements
# ---------------------------------------------------------------------------


def zero_level_radius(field: ScalarField) -> float:
    """Zero-crossing radius along the horizontal axis through the center;
    a circle that has vanished has none, and raises :class:`ScenarioError`."""
    grid = field.grid
    row = field.values[(slice(None),) + (grid.points // 2,) * (grid.dim - 1)]
    x = grid.axis()
    best = 0.0
    for i in range(grid.points - 1):
        a, b = row[i], row[i + 1]
        if a == 0.0:
            best = max(best, abs(x[i]))
        elif a * b < 0:
            best = max(best, abs(x[i] - a * (x[i + 1] - x[i]) / (b - a)))
    if best == 0.0:
        raise ScenarioError(f"the epsilon={field.epsilon:g} circle left no zero crossing on "
                            f"the central axis by t={field.time:g}: it vanished before t_end")
    return best


def density_ratio_profile(
    grid: Grid,
    frames: Iterable[ScalarField],
    center_space: Sequence[float],
    center_time: float,
    radii: Sequence[float],
) -> tuple[tuple[float, float], ...]:
    """Parabolic density ratios ``r^-n-2 * mass(P_r)``, as ``(r, ratio)``
    per radius, over the ``frames`` of one flow on ``grid``, in time order.

    The cylinder masses come from one :func:`operators.integrate_values`
    pass, which reads each frame as it arrives: a flow's
    :func:`solver.sampled` frames are integrated while it runs.  Each
    frame's energy density is computed once and only one is held at a time.
    """
    n = grid.interface_dim
    regions = [ParabolicCylinder(center_space=tuple(center_space), center_time=center_time,
                                 radius=r) for r in radii]
    masses = integrate_values(grid, frames,
                              lambda frame: FrameBundle(frame).energy_density, regions)
    return tuple((float(r), mass / r ** (n + 2)) for r, mass in zip(radii, masses))


def no_cancellation_check(frames: Iterable[ScalarField], count: int,
                          bump_radii: Sequence[float]) -> float:
    """Weak-* defect between ``alpha |grad u|`` and twice the energy density.

    Max over a family of radial bumps and the frames a quarter, a half and
    three quarters along the ``count`` samples of ``frames`` of
    ``|integral psi (alpha |grad u| - 2 dens)|``, over the mean of
    ``integral dens`` on those frames.  The frames are read in turn up to
    the last of the three, and only those three are kept: a flow's
    :func:`solver.sampled` stops there.  A ``count`` below 4 has no three
    distinct quarters, and is an error.
    """
    if count < 4:
        raise ValueError(f"the no-cancellation check reads the samples a quarter, a half and "
                         f"three quarters along, so it needs count >= 4, got count={count}")
    k = count // 4
    quarters = (k, 2 * k, 3 * k)
    kept = {i: frame for i, frame in enumerate(islice(frames, 3 * k + 1)) if i in quarters}
    picked = [kept[i] for i in quarters]
    grid = picked[0].grid
    vol = grid.cell_volume
    bumps = [radial_bump(center=(0.0,) * grid.dim, radius=r).value(grid) for r in bump_radii]
    total_mass = 0.0
    worst = 0.0
    for frame in picked:
        b = FrameBundle(frame)
        gnorm = np.sqrt(b.grad_sq)
        dens = b.energy_density
        total_mass += float(np.sum(dens) * vol)
        for psi in bumps:
            defect = float(np.sum(psi * (WAVE_ENERGY * gnorm - 2.0 * dens)) * vol)
            worst = max(worst, abs(defect))
    mean_mass = total_mass / len(picked)
    return worst / mean_mass


# ---------------------------------------------------------------------------
# Scenario implementations
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    """The CPUs this process may run on; sched_getaffinity is Linux-only."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _concurrently(*jobs: Callable[[], object]) -> list:
    """The results of the zero-argument ``jobs``, in submission order.

    The jobs run on a thread pool with one thread per usable CPU, and never
    more threads than jobs.  Independent flows overlap because numpy's
    transforms and array loops release the GIL; they share only frozen
    containers, and each job does the same arithmetic as in a sequential
    run.  The exception of the first failing job in submission order is
    re-raised unchanged, as a sequential run would raise it.  That exception,
    or an interrupt of the caller, leaves at once: the jobs that have not
    started are cancelled, and the running ones, which cannot be stopped,
    finish in the background.  The interpreter waits for them before it
    exits, so a Ctrl-C at the command line ends the process only when the
    running flows are done (a second Ctrl-C ends it at once).  A job must
    not wait on a pool of its own.
    """
    # imported here: concurrent.futures loads logging and threading, which
    # would add ~8 ms to every `import acflow`
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=max(1, min(len(jobs), _usable_cpus())))
    try:
        futures = [pool.submit(job) for job in jobs]
        results = [future.result() for future in futures]
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    return results


def _wave_initial(grid: Grid, eps: float) -> ScalarField:
    return prepare_interface(plane_pair_distance(grid.extent), grid, eps)


def _circle_initial(grid: Grid, eps: float, radius: float) -> ScalarField:
    return prepare_interface(circle_distance(radius), grid, eps)


def _last_sample(flow: Flow) -> ScalarField:
    """The last field of ``flow``, holding no earlier one."""
    for frame in flow:
        pass
    return frame


def _perturbed_initial(grid: Grid, eps: float, amplitude_over_eps: float, mode: int,
                       tilt_over_eps: float = 0.0) -> ScalarField:
    """Excess-decay's graph: a mode ``mode`` cosine of amplitude ``amplitude_over_eps * eps``
    and a mode-1 sine of slope ``tilt_over_eps * eps`` at x = 0."""
    modes = [sine_mode(amplitude_over_eps * eps, mode, grid.extent)]
    tilt = tilt_over_eps * eps
    if tilt:
        modes.append(sine_mode(tilt * grid.extent / (2.0 * np.pi), 1, grid.extent,
                               phase=-np.pi / 2))
    return prepare_interface(graph_pair_distance(grid.extent, modes), grid, eps)


def _multiscale_rough_initial(grid: Grid, eps: float) -> ScalarField:
    """Layer over a graph with localized wiggles of graded steepness.

    Five separated mode-8 features whose slopes straddle the maximal-function
    thresholds exercise the weak-L1 partition.  The profile is applied as a
    vertical offset through the folded coordinate, so the field is periodic
    without a nearest-point solve (the discrepancy sign is not needed here).
    """
    L = grid.extent
    slopes = (0.12, 0.17, 0.24, 0.34, 0.48)
    k = 2.0 * np.pi * 8 / L
    centers = np.linspace(-L / 3.0, L / 3.0, len(slopes))

    def profile(xh: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xh, dtype=float)
        for s_j, c_j in zip(slopes, centers):
            theta = 2.0 * np.pi * (xh - c_j) / L
            env = np.exp(60.0 * (np.cos(theta) - 1.0))
            out = out + (s_j / k) * np.sin(k * (xh - c_j)) * env
        return out

    xh, xv = grid.dense_coords()
    folded = plane_pair_distance(L)
    vals = np.tanh(folded(xh, xv - profile(xh)) / eps)
    vals = np.clip(vals, -solver_mod.CLAMP, solver_mod.CLAMP)
    return ScalarField(grid=grid, values=vals, epsilon=eps)


def run_standing_wave(config: ExperimentConfig) -> ScenarioResult:
    grid = config.grid
    eps = config.epsilons[0]
    # the prepared profile and its first step, which should leave it in place
    (wave, _), (after, _) = islice(_flows(config)["base", eps].steps(), 2)
    inner = np.abs(np.broadcast_to(grid.coords()[-1], grid.shape)) <= grid.extent / 8

    b = FrameBundle(wave)
    resid = b.residual
    residual_max = float(np.max(np.abs(resid[inner])))

    window = np.abs(np.broadcast_to(grid.coords()[-1], grid.shape)) <= grid.extent / 4
    dens = b.energy_density
    per_area = float(np.sum(np.where(window, dens, 0.0)) * grid.cell_volume) / grid.extent ** (
        grid.dim - 1
    )
    energy_defect = abs(per_area - WAVE_ENERGY)

    xi_max = float(np.max(b.discrepancy))

    fixed_point = float(np.max(np.abs(after.values - wave.values)))

    grad_z = distance_gradient_max(wave)

    checks = [
        check("residual_max_interior", "stationary-profile", residual_max, 1e-7),
        check("energy_vs_alpha", "line-energy", energy_defect, 1e-6),
        check("discrepancy_max", "equipartition", xi_max, 1e-8),
        check("fixed_point", "stationary-profile", fixed_point, 1e-8),
        check("distance_gradient", "inverse-profile-bound", grad_z, 1.0 + 1e-3),
    ]
    records = [diagnostics_record(wave)]
    return ScenarioResult(config=config, checks=checks, records=records,
                          payload={"per_area_energy": per_area}, final_fields=[wave])


def _fine_head_steps(flows: dict[tuple[str, float], Flow], eps: float) -> int:
    """The step ``k`` at which shrinking-circle's fine audit splits in two:
    a head window audits steps ``0..k-1`` and a tail window replays them
    and audits steps ``k..n``, so that the two windows run on two threads.

    The rule is made for exactly two threads, the only count it was
    measured on; on one the audit is not split (see
    :func:`run_shrinking_circle`), and on more it is split the same way.
    ``k`` balances the transforms of the two threads.  A cnab2 step makes
    two; the dissipation adds one (the Laplacian) and the Brakke terms two
    (the gradient).  So the tail makes ``2k + 5(n - k)``, and the head's
    thread, which then runs the base audit and the coarse and flat flows,
    ``5k + 3 n_base + 2 (n_coarse + n_flat)``, each ``n`` a flow's step
    count.  ``k`` is the balance rounded to the nearest multiple of the
    fine flow's ``sample_every``, and lies between one such interval and
    ``n``.  The default config gives 160 of 800 steps.
    """
    fine = flows["fine", eps]
    [coarse], [flat] = _of_kind(flows, "coarse").values(), _of_kind(flows, "flat").values()
    n, every = solver_mod.step_count(fine.config), fine.config.sample_every
    others = (3 * solver_mod.step_count(flows["base", eps].config)
              + 2 * (solver_mod.step_count(coarse.config) + solver_mod.step_count(flat.config)))
    return min(max(every, every * round((5 * n - others) / (8 * every))), n)


def run_shrinking_circle(config: ExperimentConfig) -> ScenarioResult:
    grid = config.grid
    eps = config.epsilons[0]
    radius = config.params["radius"]
    flows = _flows(config)
    # The fine audit, at half the step, feeds the Brakke checks.  It is the
    # longest, so with two CPUs or more it runs as two step windows
    # (_fine_head_steps), the tail submitted first; on one they would run
    # one after the other, and the tail would replay the head's steps for
    # nothing.  The base audit feeds only its dissipation defect, which
    # needs no identity terms.
    bump = radial_bump(center=(0.0,) * grid.dim, radius=0.45 * grid.extent)
    weight = brakke_weight(bump, grid)
    fine_flow = flows["fine", eps]
    n = solver_mod.step_count(fine_flow.config)
    cuts = [0, _fine_head_steps(flows, eps)] if _usable_cpus() > 1 else [0]
    windows = [range(a, b) for a, b in zip(cuts, cuts[1:] + [n + 1])]

    # first-order-in-epsilon trend: a coarser layer tracks the circle
    # worse; and the density ratio on a static flat layer, against the
    # sharp-interface value 4*alpha
    [coarse] = _of_kind(flows, "coarse").values()
    [flat] = _of_kind(flows, "flat").values()
    flat_radii = [2 * flat.epsilon, 0.15, 0.2, 0.25, 0.25 * grid.extent]

    # The flows are independent; each job keeps only what the checks read:
    # the last fine window the thinned fine trajectory, its replay's samples
    # included, and the others no frame past its use, so the head's thread
    # holds no frame.  The coarse flow, which holds the least, runs last,
    # beside the end of the tail, when the fine frames are all held.
    *fine_windows, defect_base, flat_profile, coarse_measured = _concurrently(
        *(partial(run_flow_audit, fine_flow, partial(brakke_terms, weight=weight),
                  keep_frames=w.stop == n + 1, window=w) for w in reversed(windows)),
        lambda: run_flow_audit(flows["base", eps], lambda b: (),
                               keep_frames=False).dissipation_defect(),
        lambda: density_ratio_profile(flat.grid, flat, (0.0,) * grid.dim,
                                      0.5 * flat.config.t_end, flat_radii),
        lambda: zero_level_radius(_last_sample(coarse)))
    fine = join_audits(*reversed(fine_windows))

    # mean-curvature oracle for the final radius
    exact = math.sqrt(radius**2 - 2.0 * config.t_end)
    measured = zero_level_radius(fine.trajectory[-1])
    radius_err = abs(measured - exact) / exact
    coarse_err = abs(coarse_measured - exact) / exact

    # energy dissipation identity and its refinement ratio
    defect_fine = fine.dissipation_defect()

    # Brakke identity, both forms, against the measured d/dt.  Relative to
    # the local derivative where it is genuinely nonzero (the weighted mass
    # has flat stretches while the layer crosses the bump plateau), and past
    # the burn-in.
    burn = _burn_in(eps)
    mass, rhs_grad, rhs_tensor = fine.terms.T
    rate = fine.rate(mass)
    dmass = np.abs(rate)
    res_grad = np.abs(rate - rhs_grad[1:-1])
    res_tensor = np.abs(rate - rhs_tensor[1:-1])
    peak = float(np.max(dmass))
    live = (dmass >= 0.25 * peak) & (fine.times[1:-1] >= burn)
    if not np.any(live):
        raise ScenarioError(
            f"no step past the burn-in 10*epsilon^2 = {burn:g} has a weighted-mass rate of at "
            f"least a quarter of the run's peak rate {peak:g}, so the Brakke checks have no "
            f"step to read")
    brakke_rel_grad = float(np.max(res_grad[live] / dmass[live]))
    brakke_rel_tensor = float(np.max(res_tensor[live] / dmass[live]))

    # distance-function bound along the thin trajectory
    grad_z = max(distance_gradient_max(f) for f in fine.trajectory.frames)

    # maximum principle
    u_max = max(float(np.max(np.abs(f.values))) for f in fine.trajectory.frames)

    # parabolic density ratio on the circle
    r_lo, r_hi = 2 * eps, 0.25 * grid.extent
    radii = list(np.linspace(r_lo, r_hi, 5))
    t_mid = 0.5 * config.t_end
    _, frame_mid = fine.trajectory.frame_nearest(t_mid)
    r_mid = zero_level_radius(frame_mid)
    profile = density_ratio_profile(grid, fine.trajectory, (r_mid, 0.0), t_mid, radii)
    # the profile's centre sits in the layer when |u| <= 0.9 at its lattice point
    center = tuple(int(round((c + 0.5 * grid.extent) / grid.spacing)) % grid.points
                   for c in (r_mid, 0.0))
    center_in_layer = bool(abs(frame_mid.values[center]) <= 0.9)
    flat_min = min(ratio for _, ratio in flat_profile)
    flat_defect = abs(flat_min - 4.0 * WAVE_ENERGY) / (4.0 * WAVE_ENERGY)

    checks = [
        check("radius_final_error", "mean-curvature-limit", radius_err, 0.02),
        check("radius_error_epsilon_trend", "mean-curvature-limit",
              coarse_err - radius_err, 0.0, comparison=">"),
        check("dissipation_defect_ratio", "energy-dissipation-identity",
              defect_fine / defect_base, 0.35),
        check("brakke_gradient_form", "weighted-energy-identity", brakke_rel_grad, 0.01),
        check("brakke_tensor_form", "weighted-energy-identity", brakke_rel_tensor, 0.01),
        check("distance_gradient", "inverse-profile-bound", grad_z, 1.0 + 1e-3),
        check("maximum_principle", "comparison-principle", u_max, 1.0 + 1e-6),
        check("density_ratio_lower_bound", "density-lower-bound",
              min(ratio for _, ratio in profile), 1.0, comparison=">="),
        check("density_ratio_flat", "density-lower-bound", flat_defect, 0.05),
    ]
    records = [diagnostics_record(f) for f in fine.trajectory.frames]
    payload = {
        "radius_final": measured,
        "radius_exact": exact,
        "radius_error_coarse_epsilon": coarse_err,
        "dissipation_defect_base": defect_base,
        "dissipation_defect_fine": defect_fine,
        "density_profile": profile,
        "density_profile_flat": flat_profile,
        "center_in_layer": center_in_layer,
    }
    return ScenarioResult(config=config, checks=checks, records=records, payload=payload,
                          final_fields=[fine.trajectory[-1]])


def run_monotonicity_sweep(config: ExperimentConfig) -> ScenarioResult:
    grid = config.grid
    kernel = KernelPoint(y=(0.0,) * grid.dim, s=config.t_end + config.params["kernel_lag"],
                         n=grid.interface_dim)
    eps = config.epsilons[0]
    flows, terms = _flows(config), partial(monotonicity_terms, kp=kernel)
    # the fine audit, the longer, is submitted first; only it keeps frames
    fine, base = _concurrently(
        partial(run_flow_audit, flows["fine", eps], terms, keep_frames=True),
        partial(run_flow_audit, flows["base", eps], terms, keep_frames=False))
    burn = _burn_in(eps)

    # non-increase of the kernel-weighted energy, per unit time
    values, dissipative, discrepancy = fine.terms.T
    rate = np.diff(values) / fine.dt
    worst_rise = float(np.max(rate / np.abs(values[:-1])))

    # identity residuals, past the burn-in
    def residuals(audit: FlowAudit) -> np.ndarray:
        value, dissip, discrep = audit.terms.T
        return np.abs(audit.rate(value) - (dissip + discrep)[1:-1])

    res_base = float(np.max(residuals(base)[base.times[1:-1] >= burn]))
    res_fine_series = residuals(fine)
    res_fine = float(np.max(res_fine_series[fine.times[1:-1] >= burn]))
    ratio = res_fine / res_base

    checks = [
        check("gaussian_density_monotone", "weighted-monotonicity", worst_rise, 1e-3),
        check("monotonicity_residual_ratio", "weighted-monotonicity", ratio, 0.35),
    ]
    records = [diagnostics_record(f) for f in fine.trajectory.frames]
    payload = {
        "gaussian_density_series": values.tolist(),
        "residual_max_base": res_base,
        "residual_max_fine": res_fine,
    }
    sweep_rows = [
        (fine.times[i + 1], values[i + 1], res_fine_series[i], dissipative[i + 1],
         discrepancy[i + 1])
        for i in range(len(res_fine_series))
    ]
    columns = ("t", "gaussian_density", "residual", "dissipative_term", "discrepancy_term")
    return ScenarioResult(config=config, checks=checks, records=records, payload=payload,
                          extra_tables={"monotonicity.csv": (columns, sweep_rows)})


def run_excess_decay(config: ExperimentConfig) -> ScenarioResult:
    p = config.params
    theta, fit_scale, k1 = p["theta"], p["fit_scale"], p["k1"]
    mode, a_over_eps = p["mode"], p["amplitude_over_epsilon"]
    flows = _flows(config)
    # the partition sweep runs first, on a rougher interface (steeper modes)
    # so that the maximal function exceeds the pinned thresholds somewhere.
    # The rough flow is replayed for each of the two passes, not stored, and
    # only the partitions outlive it
    thresholds = p["thresholds"]
    [rough] = _of_kind(flows, "rough").values()
    parts = good_bad_partitions(rough, thresholds, p["band"])
    weak_l1 = [part.weak_l1_ratio for part in parts]
    # a threshold whose bad set is empty measures no constant
    weak_l1_stability = _spread(weak_l1) if all(part.bad_points for part in parts) else math.inf

    # the epsilon sweep integrates each frame's diagnostics row over the
    # window (t_end/5, t_end); the rows cover the whole box, where the flat
    # periodic companion layer contributes nothing
    rows: dict[float, list[DiagnosticsRecord]] = {}
    sweep: dict[float, dict[str, float]] = {}
    finest = min(config.epsilons)
    final_frame = None  # the last frame of the finest flow, the one written
    heat_errors: dict[float, float] = {}
    final_errors: dict[float, float] = {}
    graphs = {}

    def recorded(eps: float, flow: Flow) -> Iterator[ScalarField]:
        """The main flow's frames as they pass on to its graph, each frame's
        row taken on the way and, of the finest flow, only the last frame
        kept.  No frame is held here while the flow steps to the next: the
        row count is the frame's index, where an ``enumerate`` would keep its
        last frame in its result tuple."""
        nonlocal final_frame
        rows[eps], count = [], solver_mod.sample_count(flow.config)
        for frame in flow:
            rows[eps].append(diagnostics_record(frame))
            if eps == finest and len(rows[eps]) == count:
                final_frame = frame
            yield frame
            del frame

    for eps in config.epsilons:
        main = flows["main", eps]
        g, cfg = main.grid, main.config
        amp = a_over_eps * eps
        # the flow streams: no frame but the last outlives its row and its
        # graph columns
        graph = extract_graph(recorded(eps, main), 0.0)
        idx, weights = window_weights(graph.times, config.t_end / 5, config.t_end,
                                      cfg.dt * cfg.sample_every)
        sweep[eps] = {key: float(sum(w * getattr(rows[eps][i], key)
                                     for i, w in zip(idx, weights)))
                      for key in ("tilt_excess", "discrepancy_l1", "willmore")}

        graphs[f"graph_eps_{eps:g}.csv"] = graph
        k_hat = 2.0 * np.pi * mode / g.extent
        x = g.axis()
        h0 = amp * np.cos(k_hat * x)
        heat_errors[eps] = heat_compare(graph, reference_initial=h0)

        final_graph = replace(graph, times=graph.times[-1:], heights=graph.heights[-1:],
                              valid=graph.valid[-1:])
        href = amp * math.exp(-k_hat**2 * graph.times[-1]) * np.cos(k_hat * x)
        final_errors[eps] = heat_compare(final_graph, reference_initial=href)

    eps_sorted = sorted(config.epsilons, reverse=True)
    tilt_seq = [sweep[e]["tilt_excess"] for e in eps_sorted]
    xi_seq = [sweep[e]["discrepancy_l1"] for e in eps_sorted]
    wil_seq = [sweep[e]["willmore"] for e in eps_sorted]
    heat_seq = [final_errors[e] for e in eps_sorted]

    # Excess-decay fit on the tilted variant, sweeping epsilon.  The imposed
    # tilt scales with epsilon (the theorem ties the admissible tilt to the
    # square root of the height excess, which carries the eps^2 layer floor),
    # and every epsilon runs over the same physical horizon.
    def fit_report(fit: Flow) -> ExcessDecayReport:
        # the fit's trajectory is freed when its report is made
        traj = fit.trajectory()
        return excess_decay_ratio(traj, theta=theta, scale=fit_scale,
                                  center_time=traj.times[len(traj) // 2])

    # largest epsilon first
    reports = {eps: fit_report(fit) for eps, fit in _of_kind(flows, "fit").items()}
    c_stable = _spread([r.tilt_constant for r in reports.values()])
    # conditional contraction: enforced only when the repulsion gate is open
    gate_violations = float(sum(r.passes(k1) is False for r in reports.values()))

    epsilon_mid = 0.02 if 0.02 in final_errors else eps_sorted[-1]
    checks = [
        check("tilt_excess_sweep", "excess-vanishing", _worst_step_ratio(tilt_seq), 1.0, "<"),
        check("discrepancy_sweep", "excess-vanishing", _worst_step_ratio(xi_seq), 1.0, "<"),
        check("willmore_sweep", "excess-vanishing", _worst_step_ratio(wil_seq), 1.0, "<"),
        check("heat_error_mid_epsilon", "heat-flow-blowup", final_errors[epsilon_mid], 0.05),
        check("heat_error_sweep", "heat-flow-blowup", _worst_step_ratio(heat_seq), 1.0, "<"),
        check("tilt_constant_stability", "excess-decay-fit", c_stable, 2.0),
        check("excess_decay_gate", "excess-decay-contraction", gate_violations, 0.0),
        check("weak_l1_stability", "maximal-function-weak-l1", weak_l1_stability, 2.0),
    ]
    records = [row for eps in eps_sorted for row in rows[eps]]
    payload = {
        "sweep": {repr(e): sweep[e] for e in eps_sorted},
        "heat_errors_global": {repr(e): heat_errors[e] for e in eps_sorted},
        "heat_errors_final": {repr(e): final_errors[e] for e in eps_sorted},
        "excess_decay_reports": {repr(e): asdict(r) for e, r in reports.items()},
        "weak_l1_ratios": dict(zip(map(repr, thresholds), weak_l1)),
        "k1": k1,
    }
    return ScenarioResult(config=config, checks=checks, records=records, payload=payload,
                          final_fields=[final_frame], graphs=graphs)


def run_no_cancellation(config: ExperimentConfig) -> ScenarioResult:
    bump_radii = config.params["bump_radii"]
    flows = _flows(config)
    defects = {}
    for eps in sorted(config.epsilons, reverse=True):
        base = flows["base", eps]
        # the check stops taking samples at its last pick, so the flow ends there
        defects[eps] = no_cancellation_check(base, solver_mod.sample_count(base.config),
                                             bump_radii)
    seq = list(defects.values())  # largest epsilon first
    checks = [
        check("weak_star_defect", "no-cancellation", seq[-1], 0.03),
        check("weak_star_defect_sweep", "no-cancellation", _worst_step_ratio(seq), 1.0, "<"),
    ]
    payload = {"defects": {repr(e): d for e, d in defects.items()}}
    return ScenarioResult(config=config, checks=checks, records=[], payload=payload)


def _analytic_random_field(grid: Grid, seed: int) -> ScalarField:
    """Analytic, non-band-limited periodic field for refinement studies."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(3)
    phases = rng.uniform(0, 2 * np.pi, 3)
    coords = grid.dense_coords()
    k = 2.0 * np.pi / grid.extent
    f = (
        amps[0] * np.sin(k * coords[0] + phases[0])
        + amps[1] * np.cos(2 * k * coords[-1] + phases[1])
        + amps[2] * np.sin(k * (coords[0] + coords[-1]) + phases[2])
    )
    return ScalarField(grid=grid, values=np.tanh(f), epsilon=0.5)


# The radius of inequality-ratios' Sobolev ball on the circle.
_CIRCLE_BALL = 0.15

# The least gap, in units of epsilon, between inequality-ratios' circle and
# the edge of its box.  Measured with the default steps: the epsilon circle
# loses its zero crossing at gaps up to 1.2 eps (eps 0.04 on the 1.2 box),
# 1.3 eps (eps 0.02 on the 1.2 and 1.4 boxes) and 1.4 eps (eps 0.02 on a
# 2.0 box of 256 points), and keeps it from 1.5 eps; the eps/2 circle keeps
# it from 0.75 eps.  The default gap is 6.25 eps.
_CIRCLE_MARGIN = 2.0


def _stress_energy_grids(config: ExperimentConfig) -> list[Grid]:
    """Inequality-ratios' three stress-energy grids, at an eighth, a quarter
    and half the config's points per axis."""
    return [Grid(dim=2, extent=1.0, points=config.grid.points // d) for d in (8, 4, 2)]


def run_inequality_ratios(config: ExperimentConfig) -> ScenarioResult:
    p = config.params
    slope, ball_radius = p["slope"], p["ball_radius"]
    eps = config.epsilons[0]
    L = config.grid.extent
    n_points = config.grid.points
    refine_points = 2 * n_points

    beta = math.atan(slope)
    plane = Hyperplane(normal=(0.0,) * (config.grid.dim - 2) + (math.sin(beta), math.cos(beta)))

    def tilted_ratios(points: int, epsilon: float) -> tuple[float, float]:
        g = Grid(dim=config.grid.dim, extent=L, points=points)
        wave = _wave_initial(g, epsilon)
        cacc = caccioppoli_ratio(wave, plane, radius=ball_radius)
        sob = sobolev_defect(wave, radius=ball_radius / 2)
        return cacc, sob

    cacc_a, sob_a = tilted_ratios(n_points, eps)
    cacc_b, sob_b = tilted_ratios(refine_points, eps)

    # Epsilon stability is measured on the circle: there the geometric
    # signal (curvature) is epsilon-independent, whereas on a flat tilted
    # sheet both quantities converge to zero with the layer width and a
    # stability comparison would be vacuous.
    circle_cacc, circle_sob = [], []
    for circle in _of_kind(_flows(config), "circle").values():
        slice_field = _last_sample(circle)
        r_now = zero_level_radius(slice_field)
        tangent = Hyperplane(normal=(1.0, 0.0), offset=r_now)
        circle_cacc.append(
            caccioppoli_ratio(slice_field, tangent, radius=ball_radius, center=(r_now, 0.0))
        )
        circle_sob.append(sobolev_defect(slice_field, radius=_CIRCLE_BALL, center=(r_now, 0.0)))

    # stress-energy refinement study (three grid levels)
    defects = [divergence_defect(_analytic_random_field(g, config.seed + 11))
               for g in _stress_energy_grids(config)]
    rate1 = defects[1] / defects[0]
    rate2 = defects[2] / defects[1]

    checks = [
        check("caccioppoli_grid_stability", "tilt-discrepancy-bound",
              _spread([cacc_a, cacc_b]), 2.0),
        check("caccioppoli_circle_stability", "tilt-discrepancy-bound",
              _spread(circle_cacc), 2.0),
        check("sobolev_grid_stability", "flat-energy-bound", _spread([sob_a, sob_b]), 2.0),
        check("sobolev_circle_stability", "flat-energy-bound", _spread(circle_sob), 2.0),
        check("stress_energy_rate_1", "stress-energy-divergence", rate1, 0.25),
        check("stress_energy_rate_2", "stress-energy-divergence", rate2, 0.25),
    ]
    payload = {
        "caccioppoli": {"base": cacc_a, "refined": cacc_b, "circle": circle_cacc},
        "sobolev": {"base": sob_a, "refined": sob_b, "circle": circle_sob},
        "stress_energy_defects": defects,
    }
    return ScenarioResult(config=config, checks=checks, records=[], payload=payload)


_RUNNERS = {
    "standing-wave": run_standing_wave,
    "shrinking-circle": run_shrinking_circle,
    "monotonicity-sweep": run_monotonicity_sweep,
    "excess-decay": run_excess_decay,
    "no-cancellation": run_no_cancellation,
    "inequality-ratios": run_inequality_ratios,
}


def run_scenario(config: ExperimentConfig, out_dir: str | Path | None = None) -> ScenarioResult:
    result = _RUNNERS[config.scenario](config)
    if out_dir is not None:
        write_reports(result, out_dir)
    return result


def write_reports(result: ScenarioResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario, seed = result.config.scenario, result.config.seed
    verdict = {
        "scenario": scenario,
        "seed": seed,
        "passed": result.passed,
        "checks": [asdict(c) for c in result.checks],
        "payload": result.payload,
    }
    # every output but the manifest, by file name: the manifest lists them
    writers = {
        "diagnostics.csv": partial(write_diagnostics_csv, result.records),
        "verdict.json": partial(write_json, verdict),
        **{name: partial(write_table_csv, *table) for name, table in result.extra_tables.items()},
        **{name: partial(write_graph_csv, graph) for name, graph in result.graphs.items()},
        **{f"field_{i}.field": partial(write_field, f) for i, f in enumerate(result.final_fields)},
    }
    for name, write in writers.items():
        write(out / name)
    manifest = {
        "scenario": scenario,
        "seed": seed,
        "claims": sorted({c.claim for c in result.checks}),
        "config": result.config.source,
        "outputs": sorted(writers),
    }
    write_json(manifest, out / "manifest.json")

