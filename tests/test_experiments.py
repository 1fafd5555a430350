import dataclasses
import json
import math
import os
import sys
import threading
import time
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acflow import (
    FlowDivergedError, FrameBundle, GraphExtractionError, Grid, ParabolicCylinder, ScalarField,
    SolverConfig, SolverConfigError, Trajectory, WAVE_ENERGY, brakke_residual, diagnostics_record,
    evolve, extract_graph, gaussian_density, heat_compare, monotonicity_residual,
    partition_good_bad, prepare_interface, radial_bump,
)
from acflow import experiments, solver
from acflow.cli import main as cli_main
from acflow.experiments import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    ScenarioError,
    ScenarioResult,
    _DEFAULTS,
    Flow,
    _concurrently,
    _fine_head_steps,
    _flows,
    _last_sample,
    _of_kind,
    _spread,
    _worst_step_ratio,
    check,
    config_from_dict,
    default_config,
    density_ratio_profile,
    join_audits,
    load_config,
    no_cancellation_check,
    run_flow_audit,
    run_scenario,
    run_shrinking_circle,
    write_reports,
    zero_level_radius,
)
from acflow.initial_data import circle_distance, graph_pair_distance, sine_mode
from acflow.diagnostics import brakke_terms, brakke_weight
from acflow.monotonicity import KernelPoint, monotonicity_terms
from acflow.io import read_field, write_field
from acflow.levelset import good_bad_partitions
from acflow.grid import window_weights
from acflow.operators import ball_mask, gradient_values

from conftest import (circle_field, one_frame, released_stream, standing_wave, traced_peak,
                      zero_crossing_radius)


BASE_RAW = {
    "scenario": "standing-wave",
    "grid": {"dim": 1, "extent": 2.56, "points": 512},
    "epsilon": 0.05,
    "solver": {"dt_factor": 0.125, "t_end": 0.00125, "sample_every": 2},
    "params": {},
    "seed": 0,
}


def raw_config(**updates):
    raw = json.loads(json.dumps(BASE_RAW))
    raw.update(updates)
    return raw


# A shrinking circle small enough to run in about a second: the fine audit
# makes 100 steps on 160^2 and still leaves the Brakke check frames past
# its 10 eps^2 burn-in.
SMALL_CIRCLE_RAW = {
    "scenario": "shrinking-circle",
    "grid": {"dim": 2, "extent": 1.6, "points": 160},
    "epsilon": 0.05,
    "solver": {"dt_factor": 0.25, "t_end": 0.03125, "sample_every": 5},
    "params": {"radius": 0.35},
}


def both_terms(grid, kernel, bump):
    """The Brakke terms (mass, gradient form, tensor form) and then the
    Gaussian terms (value, dissipative, discrepancy), as one audit row.
    The Gaussian terms are read first: the Brakke terms drop the bundle's
    gradient, Laplacian and residual after their last read."""
    weight = brakke_weight(bump, grid)

    def row(b):
        gaussian = monotonicity_terms(b, kernel)
        return brakke_terms(b, weight) + gaussian

    return row


def energy_terms(b):
    """The bundle's total energy, as a one-column audit row."""
    return (float(np.sum(b.energy_density) * b.field.grid.cell_volume),)


def no_terms(b):
    return ()


def flow_of(field, cfg):
    """The flow that runs ``cfg`` from ``field``."""
    return Flow(field.grid, cfg, field.epsilon, lambda grid, eps: field)


# --- configuration ----------------------------------------------------------


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(raw_config(extra_knob=1))
    with pytest.raises(ConfigError, match="config.grid"):
        config_from_dict(raw_config(grid={"dim": 1, "extent": 2.0, "points": 512, "typo": 3}))


def test_resolution_rule_violation_names_the_rule():
    bad = raw_config(grid={"dim": 1, "extent": 2.56, "points": 64})
    with pytest.raises(ConfigError, match="resolution rule"):
        config_from_dict(bad)


def test_margin_rule_violation_is_reported():
    bad = raw_config(epsilon=0.2, grid={"dim": 1, "extent": 2.56, "points": 512})
    with pytest.raises(ConfigError, match="margin"):
        config_from_dict(bad)


def test_unknown_scenario_is_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        config_from_dict(raw_config(scenario="warp-drive"))


def scenario_raw(scenario, **params):
    raw = json.loads(json.dumps(_DEFAULTS[scenario]))
    raw["params"].update(params)
    return raw


@pytest.mark.parametrize("scenario", ["shrinking-circle", "monotonicity-sweep", "no-cancellation"])
def test_margin_rule_covers_every_circle_scenario(scenario):
    # radius 0.5 leaves 0.1 (0.2 in the wider no-cancellation box) to the box
    # edge, below 8*epsilon for every one of these scenarios
    with pytest.raises(ConfigError, match="interface margin"):
        config_from_dict(scenario_raw(scenario, radius=0.5))


def test_excess_decay_builds_one_maximal_field(monkeypatch):
    # the tilt maximal field does not depend on the threshold, so one run
    # builds it once for all three thresholds
    import acflow.levelset as levelset

    calls = []
    build = levelset._maximal_field

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(levelset, "_maximal_field", counting)
    raw = scenario_raw("excess-decay")
    raw["grid"]["points"] = 128
    raw["epsilon"] = [0.04]
    result = run_scenario(config_from_dict(raw))
    assert len(result.payload["weak_l1_ratios"]) == 3
    assert len(calls) == 1


def test_params_merge_over_the_declared_defaults():
    config = config_from_dict(scenario_raw("excess-decay", k1=12))
    assert config.params["k1"] == 12.0 and isinstance(config.params["k1"], float)
    assert config.params["thresholds"] == [0.01, 0.02, 0.04]
    raw = scenario_raw("shrinking-circle")
    raw["params"] = {"radius": 0.3}
    assert config_from_dict(raw).params == {"radius": 0.3, "coarse_extent": 1.4}


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(SCENARIOS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_SCALES = st.sampled_from([-1.0, 0.5, 1e-320, 1e-160, 1e160, 1e300])


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated_configs(draw):
    """A scenario's default config with one or two keys, at any level,
    deleted, replaced by an arbitrary JSON value, or (numbers and lists of
    numbers) rescaled, by factors that reach underflow and overflow."""
    raw = json.loads(json.dumps(_DEFAULTS[draw(st.sampled_from(SCENARIOS))]))
    for _ in range(draw(st.integers(1, 2))):
        sections = [raw] + [v for v in raw.values() if isinstance(v, dict)]
        section, key = draw(st.sampled_from(
            [(s, k) for s in sections for k in sorted(s)] + [(raw, "extra")]))
        value = section.get(key)
        how = draw(st.sampled_from(["delete", "replace", "rescale", "rescale"]))
        if how == "delete":
            section.pop(key, None)
        elif how == "rescale" and _is_number(value):
            section[key] = value * draw(_SCALES)
        elif how == "rescale" and isinstance(value, list) and all(map(_is_number, value)):
            section[key] = [v * draw(_SCALES) for v in value]
        else:
            section[key] = draw(_JSON_VALUES)
    return raw


def assert_is_its_source(config):
    """``config`` is the JSON object the loader accepted: its source builds
    an equal config, survives a JSON round trip unchanged and loads back."""
    assert isinstance(config, ExperimentConfig)
    assert ExperimentConfig(config.source) == config
    assert json.loads(json.dumps(config.source, allow_nan=False)) == config.source
    assert config_from_dict(config.source) == config


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_loader_returns_a_config_or_raises_config_error(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert_is_its_source(config)


_BASE_BYTES = json.dumps(BASE_RAW).encode()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.binary(),
    st.integers(0, len(_BASE_BYTES)).map(lambda n: _BASE_BYTES[:n]),  # truncated, or whole
    st.tuples(st.integers(0, len(_BASE_BYTES) - 1), st.binary(min_size=1, max_size=2)).map(
        lambda at: _BASE_BYTES[:at[0]] + at[1] + _BASE_BYTES[at[0] + 1:]),
))
def test_config_file_loader_returns_a_config_or_raises_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_bytes(data)
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert_is_its_source(config)


# --- audit machinery ---------------------------------------------------------


def test_flow_audit_matches_evolve(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    cfg = SolverConfig(dt=2.5e-4, t_end=2.5e-3, scheme="semi-implicit-cnab2", sample_every=5)
    audit = run_flow_audit(flow_of(wave, cfg), energy_terms, keep_frames=True)
    direct = evolve(wave, cfg)
    assert len(audit.trajectory) == len(direct) == 3
    assert np.array_equal(audit.trajectory.times, direct.times)
    for a, d in zip(audit.trajectory.frames, direct.frames):
        assert np.array_equal(a.values, d.values)
    assert len(audit.times) == 11
    # stationary wave: energy flat, dissipation at round-off
    [energy] = audit.terms.T
    assert np.allclose(energy, energy[0], rtol=1e-10)
    assert audit.end_energies == (energy[0], energy[-1])
    assert np.max(audit.dissipation) < 1e-10


REAL_TRANSFORMS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
COMPLEX_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "hfft", "ihfft")


def test_audited_cnab2_step_makes_five_real_transforms(monkeypatch):
    g = Grid(dim=2, extent=1.2, points=64)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    initial = prepare_interface(circle_distance(0.35), g, eps)
    terms = both_terms(g, KernelPoint(y=(0.0, 0.0), s=0.05, n=1),
                       radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent))
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in REAL_TRANSFORMS + COMPLEX_TRANSFORMS:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))

    def transforms(n_steps):
        calls.clear()
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt, scheme="semi-implicit-cnab2")
        run_flow_audit(flow_of(initial, cfg), terms, keep_frames=True)
        return Counter(calls)

    # the difference between 3 and 2 audited steps is one audited step
    step = transforms(3)
    step.subtract(transforms(2))
    assert sum(step[name] for name in REAL_TRANSFORMS) <= 5
    assert sum(step[name] for name in COMPLEX_TRANSFORMS) == 0


@pytest.mark.parametrize("with_brakke_terms, per_step, fixed", [(False, 3, 7), (True, 5, 5)])
def test_audit_transform_count_is_linear_in_the_steps(monkeypatch, with_brakke_terms, per_step,
                                                      fixed):
    # a cnab2 step makes two real transforms and the dissipation one (the
    # Laplacian); the Brakke terms add the two of the gradient.  The fixed
    # part: the initial field's spectrum and gradient (the first energy),
    # cnab2's transform of its first input, and, without the Brakke terms,
    # the last step's gradient (the last energy).
    g = Grid(dim=2, extent=1.2, points=64)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    initial = prepare_interface(circle_distance(0.35), g, eps)
    bump = radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent)
    weight = brakke_weight(bump, g)
    terms = (lambda b: brakke_terms(b, weight)) if with_brakke_terms else no_terms
    calls = Counter()
    for name in ("rfftn", "irfftn"):
        def counting(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)

    def transforms(n_steps):
        calls.clear()
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt, scheme="semi-implicit-cnab2")
        run_flow_audit(flow_of(initial, cfg), terms, keep_frames=True)
        return calls["rfftn"] + calls["irfftn"]

    assert {transforms(n) - per_step * n for n in (1, 2, 5)} == {fixed}


def test_library_makes_no_complex_transform(monkeypatch):
    # one transform convention: every spectral path goes through the real
    # transforms of acflow.operators
    def forbidden(*args, **kwargs):
        raise AssertionError("complex FFT called")

    for name in COMPLEX_TRANSFORMS:
        monkeypatch.setattr(np.fft, name, forbidden)
    g = Grid(dim=2, extent=1.28, points=64)
    eps = 4.0 * g.spacing
    layer = prepare_interface(graph_pair_distance(g.extent, [sine_mode(0.5 * eps, 1, g.extent)]),
                              g, eps)
    dt = 0.125 * eps**2
    traj = evolve(layer, SolverConfig(dt=dt, t_end=8 * dt, scheme="semi-implicit-cnab2",
                                      sample_every=2))
    diagnostics_record(traj[-1])
    partition_good_bad(traj, 0.02, 0.05)
    graph = extract_graph(traj, 0.0)
    heat_compare(graph, graph.heights[0])


def test_library_identities_reproduce_the_audit_probe_series():
    # the audit's terms and the public identities share one implementation:
    # at an interior step they agree up to the round trip of the carried
    # spectrum through the stored field
    g = Grid(dim=2, extent=1.2, points=64)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    kernel = KernelPoint(y=(0.0, 0.0), s=0.05, n=1)
    bump = radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent)
    initial = prepare_interface(circle_distance(0.35), g, eps)
    cfg = SolverConfig(dt=dt, t_end=6 * dt, scheme="semi-implicit-cnab2")
    audit = run_flow_audit(flow_of(initial, cfg), both_terms(g, kernel, bump), keep_frames=True)
    traj = audit.trajectory
    mass, rhs_gradient, rhs_tensor, gauss, dissipative, discrepancy = audit.terms.T
    i = 3
    t = traj.times[i]

    brakke = brakke_residual(traj, bump, t)
    mono = monotonicity_residual(traj, kernel, t)
    pairs = [
        (brakke.dmu_dt, audit.rate(mass)[i - 1]),
        (brakke.rhs_gradient_form, rhs_gradient[i]),
        (brakke.rhs_tensor_form, rhs_tensor[i]),
        (gaussian_density(traj, kernel, t), gauss[i]),
        (mono.dvalue_dt, audit.rate(gauss)[i - 1]),
        (mono.dissipative_term, dissipative[i]),
        (mono.discrepancy_term, discrepancy[i]),
    ]
    for library, audited in pairs:
        assert library == pytest.approx(audited, rel=1e-12)


def test_audit_and_evolve_report_the_same_divergence(monkeypatch):
    # a step of 2 eps^2 is far beyond the explicit scheme's limit; the
    # reaction term grows u ~ 1e4, ~4e37 and then overflows, and the audit's
    # energy and dissipation stay finite on every finite field
    monkeypatch.setattr(solver, "dt_limit", lambda scheme, grid, epsilon: math.inf)
    g = Grid(dim=2, extent=1.6, points=160)
    initial = prepare_interface(circle_distance(0.35), g, 0.05)
    dt = 2 * 0.05**2
    cfg = SolverConfig(dt=dt, t_end=8 * dt, scheme="explicit-rk2")
    with pytest.raises(FlowDivergedError) as from_evolve:
        evolve(initial, cfg)
    with pytest.raises(FlowDivergedError) as from_audit:
        run_flow_audit(flow_of(initial, cfg), no_terms, keep_frames=True)
    err = from_evolve.value
    assert (err.step, err.time, err.max_abs) == (
        from_audit.value.step, from_audit.value.time, from_audit.value.max_abs)
    assert 1 < err.step < 8
    assert err.time == pytest.approx(err.step * dt)
    assert 1.0 < err.max_abs < math.inf
    assert str(err).startswith(f"the flow diverged at step {err.step} ")


@pytest.mark.parametrize("dt_factor", [1, 2, 4, 8, 16])
def test_probed_audit_reports_a_divergence_as_the_typed_error(monkeypatch, dt_factor):
    # the last finite fields are huge; their energy, dissipation and
    # identity terms overflow, and under the suite's error::RuntimeWarning filter a
    # warning from that recording would replace the typed error
    monkeypatch.setattr(solver, "dt_limit", lambda scheme, grid, epsilon: math.inf)
    g = Grid(dim=2, extent=1.6, points=160)
    initial = prepare_interface(circle_distance(0.35), g, 0.05)
    dt = dt_factor * 0.05**2
    cfg = SolverConfig(dt=dt, t_end=8 * dt, scheme="explicit-rk2")
    terms = both_terms(g, KernelPoint(y=(0.0, 0.0), s=cfg.t_end + 0.01, n=1),
                       radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent))
    with pytest.raises(FlowDivergedError):
        run_flow_audit(flow_of(initial, cfg), terms, keep_frames=True)


def test_audit_and_evolve_share_the_step_count_rule(wave_1d):
    cases = [
        (SolverConfig(dt=3e-4, t_end=1e-3, scheme="semi-implicit-cnab2"),
         "whole number of steps"),
        (SolverConfig(dt=2.5e-4, t_end=1e-3, scheme="semi-implicit-cnab2", sample_every=3),
         "not a multiple of sample_every=3"),
    ]
    for cfg, message in cases:
        with pytest.raises(SolverConfigError, match=message) as from_evolve:
            evolve(wave_1d, cfg)
        with pytest.raises(SolverConfigError, match=message) as from_audit:
            run_flow_audit(flow_of(wave_1d, cfg), no_terms, keep_frames=True)
        assert str(from_audit.value) == str(from_evolve.value)


def test_flow_audit_without_frames_records_the_same_series(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    cfg = SolverConfig(dt=2.5e-4, t_end=2.5e-3, scheme="semi-implicit-cnab2", sample_every=5)
    kept = run_flow_audit(flow_of(wave, cfg), energy_terms, keep_frames=True)
    bare = run_flow_audit(flow_of(wave, cfg), energy_terms, keep_frames=False)
    assert bare.trajectory is None
    for name in ("times", "end_energies", "dissipation", "terms"):
        assert np.array_equal(getattr(bare, name), getattr(kept, name))


def test_two_audit_windows_join_to_the_whole_audit_bit_for_bit():
    # the head audits steps 0..k-1 and the tail replays them with no bundle
    # and audits k..n, as shrinking-circle's windows do
    config = config_from_dict(SMALL_CIRCLE_RAW)
    g, eps = config.grid, config.epsilons[0]
    flows = _flows(config)
    fine = flows["fine", eps]
    weight = brakke_weight(radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent), g)
    n, every = solver.step_count(fine.config), fine.config.sample_every
    terms = partial(brakke_terms, weight=weight)
    whole = run_flow_audit(fine, terms, keep_frames=True)
    for k in (every, _fine_head_steps(flows, eps), n - every, n):
        joined = join_audits(
            run_flow_audit(fine, terms, keep_frames=False, window=range(k)),
            run_flow_audit(fine, terms, keep_frames=True, window=range(k, n + 1)))
        assert joined.dt == whole.dt
        for name in ("times", "end_energies", "dissipation", "terms"):
            assert np.array_equal(getattr(joined, name), getattr(whole, name)), (k, name)
        assert joined.trajectory.dt_sample == whole.trajectory.dt_sample
        assert len(joined.trajectory) == len(whole.trajectory) == n // every + 1
        for a, b in zip(joined.trajectory.frames, whole.trajectory.frames):
            assert a.time == b.time and np.array_equal(a.values, b.values)


def test_an_audit_window_splits_the_run_at_samples():
    config = config_from_dict(SMALL_CIRCLE_RAW)
    fine = _flows(config)["fine", config.epsilons[0]]
    n, every = solver.step_count(fine.config), fine.config.sample_every
    assert every > 1 and n % every == 0
    for window in (range(every + 1), range(1, n + 1), range(every, 2 * every - 1),
                   range(0), range(every, every), range(n + 2), range(0, n + 1, 2)):
        with pytest.raises(ValueError, match="an audit window runs over steps a..b-1"):
            run_flow_audit(fine, no_terms, keep_frames=False, window=window)
    # a window that ends at the run's end need not end on a sample
    tail = run_flow_audit(fine, no_terms, keep_frames=True, window=range(n - every, n + 1))
    assert len(tail.times) == every + 1 and len(tail.trajectory) == n // every + 1


def test_the_fine_split_balances_the_transforms_of_the_two_threads():
    # default config: fine 800 steps, base 400, coarse 200, flat 576, so
    # 2k + 5(800 - k) = 5k + 3*400 + 2*(200 + 576) at k = 156, and the
    # nearest multiple of the fine sample interval, 40, is 160
    config = default_config("shrinking-circle")
    assert _fine_head_steps(_flows(config), config.epsilons[0]) == 160
    # on the small config the other flows outweigh the fine audit, and the
    # head keeps one sample interval
    small = config_from_dict(SMALL_CIRCLE_RAW)
    flows = _flows(small)
    every = flows["fine", small.epsilons[0]].config.sample_every
    assert _fine_head_steps(flows, small.epsilons[0]) == every


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_fine_audit_splits_only_when_two_threads_can_run_it(monkeypatch, cpus):
    # on one CPU the two windows would run one after the other, and the
    # tail would replay the head's steps for nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    config = config_from_dict(SMALL_CIRCLE_RAW)
    flows = _flows(config)
    fine = flows["fine", config.epsilons[0]]
    n, k = solver.step_count(fine.config), _fine_head_steps(flows, config.epsilons[0])
    windows = []

    def recording(flow, terms, keep_frames, window=None):
        if flow.config == fine.config:
            windows.append((window, keep_frames))
        return run_flow_audit(flow, terms, keep_frames, window)

    monkeypatch.setattr(experiments, "run_flow_audit", recording)
    run_shrinking_circle(config)
    expected = ([(range(n + 1), True)] if cpus == 1
                else [(range(k, n + 1), True), (range(k), False)])
    assert sorted(windows, key=lambda w: w[0].start) == sorted(expected, key=lambda w: w[0].start)


def test_flow_audit_lets_go_of_its_initial_field():
    # the audit's march holds the initial field until its first step; the
    # audit itself keeps no reference to it past that
    g = Grid(dim=2, extent=1.2, points=32)
    cfg = SolverConfig(dt=1e-3, t_end=4e-3, scheme="semi-implicit-cnab2")
    refs, alive = [], []

    def prepared():
        field = circle_field(g, 0.1, 0.35)
        refs.append(weakref.ref(field))
        return field

    def terms(b):
        alive.append(refs[0]() is not None)
        return ()

    run_flow_audit(Flow(g, cfg, 0.1, lambda grid, eps: prepared()), terms, keep_frames=False)
    assert alive == [True, False, False, False, False]


def test_sphere_audit_keeps_both_identities_at_interface_dimension_two():
    # a 48^3 sphere of radius 0.35 with eps = 4h shrinks by R^2 = R0^2 - 4t
    # and is gone near step 13 of 40; the audit follows it through and
    # past its extinction.  Measured: the two Brakke right-hand forms
    # differ by 3.5e-6 of the run's largest right-hand side, and the
    # Gaussian value falls at every step, by at least 13.4 of itself per
    # unit time
    g = Grid(dim=3, extent=1.2, points=48)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    cfg = SolverConfig(dt=dt, t_end=40 * dt, scheme="semi-implicit-cnab2")
    initial = prepare_interface(circle_distance(0.35), g, eps)
    kernel = KernelPoint(y=(0.0, 0.0, 0.0), s=cfg.t_end + 0.01, n=g.interface_dim)
    audit = run_flow_audit(flow_of(initial, cfg), both_terms(g, kernel, radial_bump(
        center=(0.0, 0.0, 0.0), radius=0.45 * g.extent)), keep_frames=False)
    _, rhs_gradient, rhs_tensor, gauss, _, _ = audit.terms.T
    assert np.max(np.abs(rhs_gradient - rhs_tensor)) <= 1e-5 * np.max(np.abs(rhs_tensor))
    assert np.max(np.diff(gauss) / dt / gauss[:-1]) < 0.0


# --- density profile and mass comparison --------------------------------------


def per_radius_profile(traj, center_space, center_time, radii):
    """Reference oracle: the earlier profile, which held every frame's energy
    density and integrated each radius's cylinder on its own, by the
    one-region quadrature that integrate_values had then."""
    grid = traj.grid
    slices = [(f.time, FrameBundle(f).energy_density) for f in traj.frames]
    times = np.array([t for (t, _) in slices])
    dt = times[1] - times[0] if len(times) > 1 else np.inf
    entries = []
    for r in radii:
        region = ParabolicCylinder(center_space=tuple(center_space), center_time=center_time,
                                   radius=r)
        region.validate_against(grid)
        mask = ball_mask(grid, region.center_space, region.radius)
        idx, weights = window_weights(times, *region.time_window, dt)
        spatial = np.array([float(np.sum(slices[i][1][mask]) * grid.cell_volume) for i in idx])
        mass = float(spatial[0] if len(slices) == 1 else np.sum(spatial * weights))
        entries.append((float(r), mass / r ** (grid.interface_dim + 2)))
    return tuple(entries)


def flat_layer_traj():
    g = Grid(dim=2, extent=1.2, points=128)
    dt = 0.125 * 0.05**2
    cfg = SolverConfig(dt=dt, t_end=64 * dt, scheme="semi-implicit-cnab2", sample_every=8)
    return evolve(standing_wave(g, 0.05), cfg)


def test_streamed_density_profile_matches_per_radius_profile(circle_traj_short):
    flat = flat_layer_traj()
    # constant frames at exact binary times, with centre times on a sample,
    # halfway between two samples and at the first sample
    g = Grid(dim=2, extent=1.0, points=32)
    binary = Trajectory(frames=tuple(ScalarField(grid=g, values=np.full(g.shape, u),
                                                 epsilon=0.05, time=0.25 * i)
                                     for i, u in enumerate((0.95, 0.5, 0.95, 0.5, 0.95))),
                        dt_sample=0.25)
    # radius 0.005 on the circle run: a window holding one sample
    cases = [
        (circle_traj_short, (0.34, 0.0), 0.005, [0.005, 0.04, 0.1, 0.2, 0.3]),
        (circle_traj_short, (0.0, 0.3), 0.0095, [0.05, 0.15]),
        (flat, (0.0, 0.0), 0.5 * flat.times[-1], [0.1, 0.15, 0.2, 0.25, 0.3]),
        (Trajectory(frames=(flat[0],), dt_sample=0.0), (0.0, 0.0), 0.0, [0.1, 0.3]),
    ] + [(binary, (0.0, 0.0), t, [0.4]) for t in (0.125, 0.375, 0.25, 0.0)]
    for traj, center, t, radii in cases:
        profile = density_ratio_profile(traj.grid, traj, center, t, radii)
        assert profile == per_radius_profile(traj, center, t, radii)


def test_density_profile_flags_pure_phase_center(monkeypatch):
    # shrinking-circle centres its density profile on the layer of the fine
    # flow's frame nearest mid-run, and flags whether |u| <= 0.9 there; a
    # centre moved to the origin, deep inside the circle, is flagged, not an error
    config = config_from_dict(SMALL_CIRCLE_RAW)
    eps = config.epsilons[0]
    fine = _flows(config)["fine", eps]
    grid = fine.grid
    _, frame_mid = evolve(fine.start(), fine.config).frame_nearest(0.5 * config.t_end)
    x = grid.axis()
    on_layer = frame_mid.values[np.argmin(np.abs(x - zero_crossing_radius(frame_mid))),
                                grid.points // 2]
    assert abs(on_layer) <= 0.9
    assert run_shrinking_circle(config).payload["center_in_layer"] is True
    monkeypatch.setattr(experiments, "zero_level_radius", lambda field: 0.0)
    assert abs(frame_mid.values[grid.points // 2, grid.points // 2]) > 0.9
    assert run_shrinking_circle(config).payload["center_in_layer"] is False


def test_density_profile_of_a_running_flow_equals_its_stored_trajectory():
    # shrinking-circle's flat-layer profile: the frames of solver.sampled,
    # integrated while the flow runs, give the stored trajectory's profile
    # bit for bit, and the oracle's
    g = Grid(dim=2, extent=1.2, points=128)
    dt = 0.125 * 0.05**2
    cfg = SolverConfig(dt=dt, t_end=64 * dt, scheme="semi-implicit-cnab2", sample_every=8)
    wave = standing_wave(g, 0.05)
    stored = evolve(wave, cfg)
    center, t, radii = (0.0, 0.0), 0.5 * cfg.t_end, [0.1, 0.15, 0.2, 0.25, 0.3]
    streamed = density_ratio_profile(g, solver.sampled(wave, cfg), center, t, radii)
    assert streamed == density_ratio_profile(g, stored, center, t, radii)
    assert streamed == per_radius_profile(stored, center, t, radii)


def test_last_sample_is_the_stored_trajectorys_last_frame():
    # shrinking-circle's coarse circle and inequality-ratios' circles keep
    # only the flow's last field
    g = Grid(dim=2, extent=1.4, points=128)
    cfg = SolverConfig(dt=1.25e-3, t_end=25 * 1.25e-3, scheme="semi-implicit-cnab2",
                       sample_every=5)
    flow = Flow(g, cfg, 0.1, partial(circle_field, radius=0.35))
    last, stored = _last_sample(flow), evolve(flow.start(), cfg)[-1]
    assert last.time == stored.time
    assert np.array_equal(last.values, stored.values)


def test_total_variation_matches_energy_mass(wave_1d):
    # alpha * integral |grad u| = 2 * energy mass on an exact layer
    g = wave_1d.grid
    window = np.abs(g.axis()) <= 0.25 * g.extent
    grad = gradient_values(g, wave_1d.values)[0]
    tv = float(np.sum(np.abs(grad)[window]) * g.spacing)
    mass = float(np.sum(FrameBundle(wave_1d).energy_density[window]) * g.spacing)
    assert WAVE_ENERGY * tv == pytest.approx(2.0 * mass, abs=1e-8)
    assert WAVE_ENERGY * tv == pytest.approx(8.0 / 3.0, abs=1e-6)


def test_no_cancellation_defect_small_on_exact_wave(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    frames = tuple(wave.with_values(wave.values, time=0.01 * i) for i in range(5))
    traj = Trajectory(frames=frames, dt_sample=0.01)
    defect = no_cancellation_check(traj, len(traj), bump_radii=[0.9])
    # the bump curvature sees the (profile-width)^2 moment difference
    assert defect < 1e-3


def stored_no_cancellation(traj, bump_radii):
    """Reference oracle: the defect as taken from a stored trajectory before
    flows streamed, on its frames traj[k], traj[2k], traj[3k], k = len // 4."""
    grid, vol = traj.grid, traj.grid.cell_volume
    k = len(traj) // 4
    frames = (traj[k], traj[2 * k], traj[3 * k])
    total_mass, worst = 0.0, 0.0
    for frame in frames:
        b = FrameBundle(frame)
        gnorm, dens = np.sqrt(b.grad_sq), b.energy_density
        total_mass += float(np.sum(dens) * vol)
        for r in bump_radii:
            psi = radial_bump(center=(0.0,) * grid.dim, radius=r).value(grid)
            worst = max(worst, abs(float(np.sum(psi * (WAVE_ENERGY * gnorm - 2.0 * dens)) * vol)))
    return worst / (total_mass / len(frames))


@pytest.mark.parametrize("steps, sample_every", [(40, 2), (3, 1)])
def test_no_cancellation_defect_of_a_running_flow_equals_its_stored_trajectory(steps,
                                                                              sample_every):
    # the quarter-point frames picked from solver.sampled as the flow runs
    # are the stored trajectory's; with 4 samples, the fewest the check
    # reads, they are the second, the third and the last
    g = Grid(dim=2, extent=1.4, points=64)
    dt = 0.125 * 0.1**2
    cfg = SolverConfig(dt=dt, t_end=steps * dt, scheme="semi-implicit-cnab2",
                       sample_every=sample_every)
    initial = circle_field(g, 0.1, 0.35)
    stored = evolve(initial, cfg)
    assert solver.sample_count(cfg) == len(stored)
    radii = [0.15, 0.35, 0.55]
    streamed = no_cancellation_check(solver.sampled(initial, cfg), solver.sample_count(cfg), radii)
    assert streamed == no_cancellation_check(stored, len(stored), radii)
    assert streamed == stored_no_cancellation(stored, radii)


def test_no_cancellation_check_rejects_fewer_than_four_samples():
    # with 3 samples, a quarter of the count is 0 and the three quarter
    # points would all be the prepared data
    g = Grid(dim=2, extent=1.4, points=64)
    dt = 0.125 * 0.1**2
    cfg = SolverConfig(dt=dt, t_end=2 * dt, scheme="semi-implicit-cnab2")
    assert solver.sample_count(cfg) == 3
    with pytest.raises(ValueError, match="needs count >= 4, got count=3"):
        no_cancellation_check(solver.sampled(circle_field(g, 0.1, 0.35), cfg), 3, [0.15])


# --- scenario reports ---------------------------------------------------------


def test_standing_wave_scenario_writes_reports(tmp_path):
    cfg = default_config("standing-wave")
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.passed
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert {c["name"] for c in verdict["checks"]} >= {"residual_max_interior", "energy_vs_alpha"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["scenario"] == "standing-wave"
    assert "line-energy" in manifest["claims"]
    csv = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert csv[0].startswith("time,energy,")
    field = read_field(tmp_path / "field_0.field")
    assert field.grid.points == cfg.grid.points


def test_graph_csv_roundtrippable_columns(tmp_path, wave_2d):
    from acflow import extract_graph
    from acflow.io import write_graph_csv

    graph = extract_graph(one_frame(wave_2d), 0.0)
    path = tmp_path / "graph.csv"
    write_graph_csv(graph, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,h,valid"
    assert len(lines) == 1 + graph.heights.size


# --- concurrent flows -----------------------------------------------------------


def test_concurrent_circle_audits_equal_sequential_runs(monkeypatch):
    # three audits on three threads, more than this host may have cores, with
    # a short switch interval; the second config's grid is a fresh object, so
    # the threads also race to build its cached spectral symbols
    config = config_from_dict(SMALL_CIRCLE_RAW)
    g, eps = config.grid, config.epsilons[0]
    scales = (1.0, 0.5, 0.25)
    terms = both_terms(g, KernelPoint(y=(0.0, 0.0), s=config.t_end + 0.01, n=1),
                       radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent))

    def base_at(config, scale):
        """The base flow at ``scale`` times its step."""
        return dataclasses.replace(_flows(config)["base", eps], config=config.solver_config(
            eps, dt_scale=scale, sample_every=round(config.sample_every / scale)))

    sequential = {scale: run_flow_audit(base_at(config, scale), terms, keep_frames=True)
                  for scale in scales}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(len(scales))))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        fresh = config_from_dict(SMALL_CIRCLE_RAW)
        jobs = [partial(run_flow_audit, base_at(fresh, scale), terms, keep_frames=True)
                for scale in scales]
        concurrent = dict(zip(scales, _concurrently(*jobs)))
    finally:
        sys.setswitchinterval(interval)
    assert list(concurrent) == list(scales)
    for scale in scales:
        a, b = concurrent[scale], sequential[scale]
        assert a.dt == b.dt
        for name in ("times", "end_energies", "dissipation", "terms"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.trajectory.times, b.trajectory.times)
        assert len(a.trajectory) == len(b.trajectory)
        for fa, fb in zip(a.trajectory.frames, b.trajectory.frames):
            assert np.array_equal(fa.values, fb.values)


def test_shrinking_circle_reports_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    config = config_from_dict(SMALL_CIRCLE_RAW)
    write_reports(run_shrinking_circle(config), tmp_path / "threads")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    write_reports(run_shrinking_circle(config), tmp_path / "one")
    names = sorted(p.name for p in (tmp_path / "threads").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in names:
        assert (tmp_path / "threads" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_shrinking_circle_holds_no_frame_past_its_checks(monkeypatch):
    # On one worker the four flows run one after another, so the traced peak
    # is the fine audit's thinned trajectory, which the checks read, plus
    # the working set of one flow at a time: measured at 6.75 MiB (6.80
    # while the flows held their initial fields), the 11 fine frames of
    # 160^2 being 2.15 MiB of it, i.e. a margin of 16.4 frames.  A flat
    # layer that held its 73 frames peaked at 20.1 MiB.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = config_from_dict(SMALL_CIRCLE_RAW)
    frame_bytes = 8 * config.grid.points ** config.grid.dim
    fine_frames = solver.sample_count(_flows(config)["fine", config.epsilons[0]].config)
    peak = traced_peak(lambda: run_shrinking_circle(config))
    assert peak < (fine_frames + 40) * frame_bytes, f"traced peak {peak / 2**20:.2f} MiB"


def test_excess_decay_holds_no_main_frame_past_its_row(monkeypatch):
    # The main flows stream: each frame gives its diagnostics row and its
    # graph columns as it arrives, and only the last is kept.  The traced
    # peak is taken from the end of each main flow's preparation (whose own
    # transient peak is not counted) up to the first excess fit, so it
    # covers the finest main flow, its graph and the first fit flow.
    # Measured: 10.1 frames of the finest (256^2) main grid, the working set
    # of one step and one row (12.9 while the flow held its latest sample
    # and the graph its frame and window through the steps, 17.1 while a
    # row formed the stacked gradient).  The same code holding the main
    # flow's 11 samples peaked at 22.8 frames, and before the flows
    # streamed the peak was 24.4 frames, so the bound leaves a margin of
    # 9.9 frames.
    import tracemalloc
    import acflow.experiments as experiments

    config = config_from_dict(small_raw("excess-decay"))
    finest = min(config.epsilons)
    main = {(flow.grid, flow.config) for flow in _of_kind(_flows(config), "main").values()}
    frame_bytes = 8 * _flows(config)["main", finest].grid.points ** 2
    start, peaks = experiments.Flow.start, []

    class FirstFit(Exception):
        pass

    def prepared(flow):
        field = start(flow)
        if (flow.grid, flow.config) in main:
            tracemalloc.reset_peak()
        return field

    def first_fit(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise FirstFit

    monkeypatch.setattr(experiments.Flow, "start", prepared)
    monkeypatch.setattr(experiments, "excess_decay_ratio", first_fit)
    tracemalloc.start()
    try:
        with pytest.raises(FirstFit):
            run_scenario(config)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 20 * frame_bytes, f"traced peak {peaks[0] / frame_bytes:.1f} frames"


def test_excess_decay_main_flows_hold_no_sample_past_the_next(monkeypatch):
    # Each main flow's sample gives its row and its graph columns and is
    # freed before the flow steps on to the next sample; only the finest
    # flow's last sample, the field written, outlives its stream.
    config = config_from_dict(small_raw("excess-decay"))
    finest = min(config.epsilons)
    main = {(flow.grid, flow.config): eps for eps, flow in _of_kind(_flows(config), "main").items()}
    streamed, plain = [], solver.sampled

    def checked(field, cfg):
        eps = main.get((field.grid, cfg))
        if eps is None:  # the fit and rough flows
            return plain(field, cfg)
        streamed.append(eps)
        return released_stream(plain(field, cfg), keep_last=eps == finest)

    monkeypatch.setattr(solver, "sampled", checked)
    result = run_scenario(config)
    assert sorted(streamed) == sorted(config.epsilons)
    [final] = result.final_fields
    assert (final.epsilon, final.time) == (finest, pytest.approx(config.t_end))


def test_excess_decay_rough_phase_stores_no_rough_frame():
    # The rough flow is replayed for the tilt pass and once more for the
    # partitions rather than stored.  What the phase holds is the maximal field's
    # three stacks of the 11 rough frames (the tilt integrands' half
    # spectra, one convolution buffer and the maximal field) and one
    # step's and one row's working set: measured at 38.1-38.9 frames of
    # the 256^2 rough grid.  The same phase on a stored trajectory
    # (solver.evolve) peaked at 49.1-49.9 frames, so the bound leaves a
    # margin of 5.1 frames either way.
    config = config_from_dict(small_raw("excess-decay"))
    [rough] = _of_kind(_flows(config), "rough").values()
    frame_bytes = 8 * rough.grid.points ** rough.grid.dim
    p = config.params
    peak = traced_peak(lambda: good_bad_partitions(rough, p["thresholds"], p["band"]))
    assert peak < 44 * frame_bytes, f"traced peak {peak / frame_bytes:.1f} frames"


def test_a_circle_with_no_live_step_past_the_burn_in_is_a_scenario_error(monkeypatch):
    import acflow.experiments as experiments

    config = config_from_dict(SMALL_CIRCLE_RAW)
    # a burn-in past t_end leaves no step for the Brakke checks
    monkeypatch.setattr(experiments, "_burn_in", lambda eps: 1.0)
    with pytest.raises(ScenarioError, match="burn-in 10\\*epsilon\\^2 = 1 .* a quarter of the "
                                            "run's peak rate"):
        run_shrinking_circle(config)


@pytest.mark.parametrize("error", [
    GraphExtractionError("no column has a single crossing of level 0.0 inside the window"),
    ScenarioError("no step past the burn-in"),
])
def test_cli_reports_a_failed_run_as_one_error_line(tmp_path, capsys, monkeypatch, error):
    import acflow.experiments as experiments

    def fail(config):
        raise error

    monkeypatch.setitem(experiments._RUNNERS, "standing-wave", fail)
    code = cli_main(["experiment", "standing-wave", "--out", str(tmp_path / "exp")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {error}\n"
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("case", [
    "missing config", "config not JSON", "missing field", "header without epsilon",
    "truncated values", "NaN value", "simulate into a file", "diagnose into a file",
    "experiment into a file", "experiment below a file",
])
def test_cli_reports_an_unreadable_input_as_one_error_line(tmp_path, capsys, monkeypatch, case):
    # every input the command cannot use is one stderr line and exit 2, and
    # an --out that is a file, or lies below one, is rejected before any flow runs
    import acflow.cli as cli

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(solver, "sampled", no_flow)
    monkeypatch.setattr(cli, "run_scenario", no_flow)
    snapshot = tmp_path / "u.field"
    write_field(ScalarField(grid=Grid(dim=1, extent=1.0, points=8), values=np.zeros(8),
                            epsilon=0.1), snapshot)
    header, blob = snapshot.read_bytes().split(b"\n", 1)
    without_epsilon = json.dumps({k: v for k, v in json.loads(header).items() if k != "epsilon"})
    bad, taken = tmp_path / "bad", tmp_path / "taken"
    taken.write_text("")
    files = {
        "config not JSON": b'{"scenario": ',
        "header without epsilon": without_epsilon.encode() + b"\n" + blob,
        "truncated values": header + b"\n" + blob[:-3],
        "NaN value": header + b"\n" + np.array([np.nan] + [0.0] * 7).astype("<f8").tobytes(),
    }
    if case in files:
        bad.write_bytes(files[case])
    argv = {
        "missing config": ["experiment", "--config", str(tmp_path / "missing.json")],
        "config not JSON": ["experiment", "--config", str(bad)],
        "missing field": ["diagnose", str(tmp_path / "missing.field")],
        "simulate into a file": ["simulate", "standing-wave", "--out", str(taken)],
        "diagnose into a file": ["diagnose", str(snapshot), "--out", str(taken)],
        "experiment into a file": ["experiment", "standing-wave", "--out", str(taken)],
        "experiment below a file": ["experiment", "standing-wave", "--out", str(taken / "run")],
    }.get(case, ["diagnose", str(bad)])
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert taken.is_file()


def test_a_value_at_its_tolerance_fails_an_open_check_as_a_non_positive_spread_does():
    assert check("c", "claim", 1.0, 1.0, "<=").passed and check("c", "claim", 1.0, 1.0, ">=").passed
    assert not check("c", "claim", 1.0, 1.0, "<").passed
    assert not check("c", "claim", 1.0, 1.0, ">").passed
    # a spread with a non-positive value is infinite, and fails
    assert _spread([0.5, 0.0, 1.0]) == _spread([-1.0, -2.0]) == math.inf
    assert not check("s", "claim", _spread([0.0, 1.0]), 2.0).passed
    assert (_spread([0.7]), _spread([0.5, 1.0, 0.75])) == (1.0, 2.0)


def test_a_constant_sweep_fails_and_prints_its_open_comparison(capsys, monkeypatch):
    import acflow.experiments as experiments

    assert _worst_step_ratio([0.5, 0.5, 0.5]) == 1.0
    assert (_worst_step_ratio([0.5, 0.25]), _worst_step_ratio([0.0, 0.5])) == (0.5, math.inf)
    sweep = check("tilt_excess_sweep", "excess-vanishing", _worst_step_ratio([0.5, 0.5]), 1.0, "<")
    monkeypatch.setitem(experiments._RUNNERS, "excess-decay", lambda config: ScenarioResult(
        config=config, checks=[sweep], records=[], payload={}))
    assert cli_main(["experiment", "excess-decay"]) == 1
    assert capsys.readouterr().out == ("[FAIL] tilt_excess_sweep: value=1 < 1\n"
                                       "scenario excess-decay: FAIL\n")


def test_concurrently_returns_results_in_submission_order(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def late(value):
        time.sleep(0.05)
        return value

    assert _concurrently(lambda: late(1), lambda: 2, lambda: 3) == [1, 2, 3]


def test_concurrently_reraises_the_first_failure_unchanged(monkeypatch):
    first, second = FlowDivergedError(3, 0.1, 2.0), ValueError("later job")

    def fail_late():
        time.sleep(0.05)
        raise first

    def fail_now():
        raise second

    # the first job in submission order decides, even when another fails sooner
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(FlowDivergedError) as caught:
        _concurrently(fail_late, fail_now)
    assert caught.value is first

    # one worker: the job queued behind a running one is cancelled
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ran = []
    with pytest.raises(ValueError) as caught:
        _concurrently(fail_now, lambda: time.sleep(0.2), lambda: ran.append(True))
    assert caught.value is second
    assert ran == []


def test_concurrently_does_not_wait_for_running_jobs_after_a_failure(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release, finished = threading.Event(), []

    def fail_now():
        raise ValueError("fails at once")

    def running():
        release.wait(timeout=10)
        finished.append(True)

    with pytest.raises(ValueError):
        _concurrently(fail_now, running)
    # the failure left while the other job was still running
    assert finished == []
    release.set()


def test_concurrently_without_sched_getaffinity_uses_the_cpu_count(monkeypatch):
    # sched_getaffinity exists on Linux only; elsewhere the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    threads = []

    def job(value):
        threads.append(threading.get_ident())
        return value

    assert _concurrently(*(lambda v=v: job(v) for v in range(4))) == [0, 1, 2, 3]
    assert len(set(threads)) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _concurrently(lambda: 1, lambda: 2) == [1, 2]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_default_manifest_loads_back_to_its_config(tmp_path, scenario):
    # the manifest writes the config the loader accepted, so --config reads it back
    config = default_config(scenario)
    write_reports(ScenarioResult(config=config, checks=[], records=[], payload={}), tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json.loads((tmp_path / "manifest.json").read_text())["config"]))
    assert load_config(path) == config


def test_a_seeded_run_reproduces_from_its_manifest(tmp_path, capsys):
    # inequality-ratios draws its random fields from the seed
    first, again, path = tmp_path / "first", tmp_path / "again", tmp_path / "config.json"
    assert cli_main(["experiment", "inequality-ratios", "--seed", "5", "--out", str(first)]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert config["seed"] == 5
    path.write_text(json.dumps(config))
    assert cli_main(["experiment", "--config", str(path), "--out", str(again)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:len(out) // 2] == out[len(out) // 2:]
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_reports_are_bit_identical_across_runs(tmp_path):
    cfg = default_config("standing-wave")
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=a)
    run_scenario(cfg, out_dir=b)
    for name in ("verdict.json", "manifest.json", "diagnostics.csv", "field_0.field"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# --- command line --------------------------------------------------------------


def test_cli_experiment_pass_and_reports(tmp_path, capsys):
    code = cli_main(["experiment", "standing-wave", "--out", str(tmp_path / "exp")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert (tmp_path / "exp" / "verdict.json").exists()


def test_cli_experiment_fails_on_unresolved_layer(tmp_path, capsys):
    # legal per validation (5 cells per eps, margins fine) but far too coarse
    # for the standing-wave tolerances: the scenario must report failure
    raw = raw_config(grid={"dim": 1, "extent": 2.56, "points": 256},
                     solver={"dt_factor": 0.125, "t_end": 0.00125, "sample_every": 2})
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_rejects_invalid_config(tmp_path, capsys):
    raw = raw_config(grid={"dim": 1, "extent": 2.56, "points": 64})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    err = capsys.readouterr().err
    assert code == 2
    assert "resolution rule" in err


def _without(section, *keys):
    def mutate(raw):
        target = raw if section is None else raw[section]
        for key in keys:
            del target[key]
    return mutate


def _with(section, **values):
    def mutate(raw):
        (raw if section is None else raw[section]).update(values)
    return mutate


def _short_circle(scenario):
    """A small circle whose t_end leaves no audited step past the 10 eps^2
    burn-in (t_end - dt = 0.011875 < 0.025)."""
    return _with(None, scenario=scenario, grid={"dim": 2, "extent": 1.6, "points": 160},
                 epsilon=0.05, solver={"dt_factor": 0.25, "t_end": 0.0125, "sample_every": 5},
                 params={"radius": 0.35})


def _small_excess_decay(**params):
    """Excess-decay on 256^2 with epsilon [0.04, 0.02], which loads with the
    default params."""
    raw = scenario_raw("excess-decay", **params)
    raw.update(grid={"dim": 2, "extent": 1.28, "points": 256}, epsilon=[0.04, 0.02])
    return _with(None, **raw)


_SHORT_CIRCLE_ERROR = ("t_end - dt = 0.011875 is not half a step (dt=0.000625) past the burn-in "
                       "10*epsilon^2 = 0.025 for epsilon=0.05")


@pytest.mark.parametrize("mutations, expected", [
    ([_without(None, "epsilon")], ["missing key 'epsilon'"]),
    ([_with("grid", points=513)], ["points must be even"]),
    ([_without("grid", "extent"), _without("solver", "t_end")],
     ["missing key 'extent' in config.grid", "missing key 't_end' in config.solver"]),
    ([_with("solver", dt_factor=1.0)], ["exceeds the semi-implicit-cnab2 limit"]),
    ([_with("solver", t_end=0.0013)], ["not a whole number of steps"]),
    ([_with("solver", dt_factor=1.0, t_end=0.0013),
      _with(None, scenario="no-cancellation", epsilon=[0.05, 0.04])],
     ["limit", "epsilon=0.05", "epsilon=0.04", "whole number"]),
    ([_without(None, "epsilon"), _with("grid", points=513), _without("solver", "t_end")],
     ["'epsilon'", "points must be even", "'t_end'"]),
    ([_with("solver", sample_every=3)], ["step count 4 is not a multiple of sample_every=3"]),
    ([_with("solver", t_end=None)], ["config.solver.t_end must be a finite number, got None"]),
    ([_with("solver", t_end=float("nan"))], ["config.solver.t_end must be a finite number"]),
    ([_with(None, params=[1, 2])], ["config.params must be an object, got [1, 2]"]),
    ([_with("solver", sample_every=2.5)], ["config.solver.sample_every must be an integer"]),
    ([_with(None, seed=1.7)], ["config.seed must be an integer, got 1.7"]),
    ([_with("grid", points=512.0)], ["config.grid.points must be an integer, got 512.0"]),
    ([_with("grid", points=10**400)], ["config.grid.points must be an integer"]),
    ([_with(None, epsilon=1e200)], ["margin", "time-step arithmetic overflows for epsilon=1e+200"]),
    ([_with("solver", t_end=1e308)], ["time-step arithmetic overflows"]),
    ([_with(None, **scenario_raw("shrinking-circle")),
      _with(None, grid={"dim": 1, "extent": 2.56, "points": 1024}, epsilon=0.05,
            solver={"dt_factor": 0.25, "t_end": 0.005, "sample_every": 4})],
     ["shrinking-circle runs on a 2-D grid only, got grid.dim=1"]),
    ([_with(None, **scenario_raw("excess-decay")),
      _with(None, grid={"dim": 1, "extent": 2.56, "points": 1024})],
     ["excess-decay runs on a 2-D grid only, got grid.dim=1"]),
    ([_with(None, **scenario_raw("inequality-ratios")),
      _with(None, grid={"dim": 3, "extent": 1.28, "points": 256})],
     ["inequality-ratios runs on a 2-D grid only, got grid.dim=3"]),
    ([_with(None, **scenario_raw("excess-decay", window=[0.002]))],
     ["unknown key 'window' in config.params"]),
    ([_with("solver", dt=1e-4)], ["unknown key 'dt' in config.solver"]),
    ([_with("solver", scheme="semi-implicit-cnab2")], ["unknown key 'scheme' in config.solver"]),
    ([_short_circle("shrinking-circle")], [_SHORT_CIRCLE_ERROR]),
    ([_short_circle("monotonicity-sweep")], [_SHORT_CIRCLE_ERROR]),
    ([_without("solver", "dt_factor")], ["missing key 'dt_factor' in config.solver"]),
    ([_small_excess_decay(theta=1.5)], ["params.theta=1.5 must lie in (0, 1)"]),
    ([_small_excess_decay(thresholds=[-0.01, 0.02])],
     ["params.thresholds must all be positive, got [-0.01, 0.02]"]),
    ([_small_excess_decay(fit_scale=0.7)], ["params.fit_scale=0.7 must lie in (0, extent/2 = 0.64]"]),
    ([_small_excess_decay(fit_scale=0.0)], ["params.fit_scale=0 must lie in (0, extent/2 = 0.64]"]),
    # (0.25 * 0.005)^2 is far below either fit flow's sample interval of 4e-4
    ([_small_excess_decay(fit_scale=0.005)],
     ["t0 +- 1.5625e-06 holds fewer than two samples of the epsilon=0.04 fit flow "
      "(sample interval 0.0004)", "epsilon=0.02 fit flow"]),
    ([_small_excess_decay(theta=1.5, thresholds=[0.0], fit_scale=0.7)],
     ["params.theta=1.5", "params.thresholds", "params.fit_scale=0.7"]),
    # the main flows take whole steps to t_end = 0.009, but the fit horizon,
    # 32 steps of eps 0.02, is 14.2 steps of eps 0.03
    ([_small_excess_decay(), _with(None, epsilon=[0.03, 0.02]), _with("solver", t_end=0.009)],
     ["excess-decay fit flow: t_end=0.0016 is not a whole number of steps of dt=0.0001125"]),
    # a scenario that runs one epsilon takes no list
    ([_with(None, epsilon=[0.05, 0.04])],
     ["standing-wave runs one epsilon, so config.epsilon must be a number, got [0.05, 0.04]"]),
    # params that used to fail mid-run, each after some of its flows had run
    ([_with(None, **scenario_raw("inequality-ratios")), _with("grid", points=136)],
     ["inequality-ratios stress-energy grid (grid.points // 8, // 4 or // 2): "
      "points must be even, got 17"]),
    ([_with(None, **scenario_raw("inequality-ratios", ball_radius=0.5))],
     ["the tripled Sobolev ball of radius 0.75 must be positive and fit inside half the "
      "grid.extent=1.28 box"]),
    ([_with(None, **scenario_raw("inequality-ratios", circle_extent=0.8))],
     ["the tripled Sobolev ball of radius 0.45 must be positive and fit inside half the "
      "params.circle_extent=0.8 box"]),
    ([_with(None, **scenario_raw("inequality-ratios", circle_radius=0.0))],
     ["params.circle_radius=0 must be positive"]),
    # a gap of 1 eps = 0.04 to the edge of the 1.2 box: the circle's layer
    # meets its periodic image and loses its zero crossing
    ([_with(None, **scenario_raw("inequality-ratios", circle_radius=0.56))],
     ["params.circle_radius=0.56 leaves 0.04 to the edge of the params.circle_extent=1.2 box, "
      "below 2*epsilon=0.08"]),
    ([_with(None, **scenario_raw("shrinking-circle", radius=-0.1))],
     ["params.radius=-0.1 must be positive"]),
    ([_with(None, **scenario_raw("shrinking-circle", radius=0.2))],
     ["params.radius=0.2 leaves no circle at t_end=0.04"]),
    ([_with(None, **scenario_raw("monotonicity-sweep", kernel_lag=-1.0))],
     ["params.kernel_lag=-1 must be positive"]),
    ([_with(None, **scenario_raw("no-cancellation", bump_radii=[0.0, 0.2]))],
     ["params.bump_radii must all be positive, got [0.0, 0.2]"]),
    # sampled every 100 steps, the epsilon=0.04 flow keeps 2 samples, and the
    # check would read its first frame three times; the epsilon=0.02 flow
    # keeps 5
    ([_with(None, **scenario_raw("no-cancellation")), _with("solver", sample_every=100)],
     ["needs at least 4, but the epsilon=0.04 flow has 2"]),
    # a repeated epsilon would run its flows twice, and each sweep would
    # compare a value with itself
    ([_small_excess_decay(), _with(None, epsilon=[0.04, 0.04])],
     ["epsilon values must be distinct, got [0.04, 0.04]"]),
    ([_with(None, **scenario_raw("no-cancellation")), _with(None, epsilon=[0.04, 0.04])],
     ["epsilon values must be distinct, got [0.04, 0.04]"]),
])
def test_cli_reports_every_config_error_at_load(tmp_path, capsys, mutations, expected):
    raw = raw_config()
    for mutate in mutations:
        mutate(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:")
    assert len(err.strip().splitlines()) == 1
    for text in expected:
        assert text in err
    assert not (tmp_path / "exp").exists()


def test_cli_reports_data_the_probe_rejects(tmp_path, capsys):
    # a mode-3 graph is not a distance in the band; the first preparation
    # (eps 0.04 on 128^2) fails
    path = tmp_path / "mode3.json"
    path.write_text(json.dumps(scenario_raw("excess-decay", mode=3)))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:")
    assert len(err.strip().splitlines()) == 1
    assert "not a signed distance" in err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("scenario, params, expected", [
    ("shrinking-circle", {"radius": "0.35"}, "config.params.radius must be a finite number"),
    ("shrinking-circle", {"raduis": 0.3},
     "unknown key 'raduis' in config.params (allowed: ['coarse_extent', 'radius'])"),
    ("excess-decay", {"mode": 1.5}, "config.params.mode must be an integer, got 1.5"),
])
def test_cli_rejects_malformed_scenario_params(tmp_path, capsys, scenario, params, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario_raw(scenario, **params)))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and len(err.strip().splitlines()) == 1
    assert expected in err
    assert not (tmp_path / "exp").exists()


def test_cli_simulate_reports_a_solver_config_error(tmp_path, capsys):
    # 4 steps cannot be sampled every 3: the solver's own rule, met at load time
    raw = raw_config(solver={"dt_factor": 0.125, "t_end": 0.00125, "sample_every": 3})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and "sample_every=3" in err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("scenario", ["standing-wave", "excess-decay"])
def test_cli_rejects_a_horizon_of_no_time(tmp_path, capsys, monkeypatch, scenario):
    # with t_end 0, standing-wave's fixed-point check has no step to take
    # and excess-decay's sweep window (t_end/5, t_end] has no measure
    def no_flow(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(solver, "march", no_flow)
    raw = scenario_raw(scenario)
    raw["solver"]["t_end"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: config.solver.t_end must be "
                                       "positive, got 0.0\n")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("seed, expected", [
    (-12, "config.seed must be non-negative, got -12"),
    (10**400, "config.seed must be an integer, got 1000"),
], ids=["negative", "past-the-float-range"])
@pytest.mark.parametrize("form", ["--seed", "config file"])
def test_cli_rejects_a_seed_the_generators_cannot_take(tmp_path, capsys, monkeypatch, form,
                                                       seed, expected):
    # inequality-ratios seeds numpy's generator with seed + 11, which takes
    # no negative seed; the loader rejects it before any flow runs
    def no_flow(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(solver, "march", no_flow)
    args = ["experiment", "inequality-ratios", "--out", str(tmp_path / "exp")]
    if form == "--seed":
        args += ["--seed", str(seed)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_DEFAULTS["inequality-ratios"], "seed": seed}))
        args += ["--config", str(path)]
    code = cli_main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {expected}")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "exp").exists()


def test_a_vanished_circle_has_no_radius():
    grid = Grid(dim=2, extent=1.6, points=64)
    gone = ScalarField(grid=grid, values=-np.ones(grid.shape), epsilon=0.1, time=0.03)
    with pytest.raises(ScenarioError, match="epsilon=0.1 circle left no zero crossing on the "
                                            "central axis by t=0.03: it vanished before t_end"):
        zero_level_radius(gone)


def test_cli_reports_a_vanished_circle(tmp_path, capsys):
    # radius^2 = 0.0676 > 2 t_end meets the sharp radius law, but the coarse
    # 2-eps circle is gone by t_end
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_CIRCLE_RAW, "params": {"radius": 0.26}}))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the epsilon=0.1 circle left no zero crossing on the central axis by t=0.03125: "
        "it vanished before t_end\n")
    assert not (tmp_path / "exp").exists()


def test_cli_reports_a_diverged_flow(tmp_path, capsys, monkeypatch):
    # a cnab2 step of 2 eps^2, six times its limit, diverges at step 12 on the
    # small circle; no-cancellation's circle has no radius law to bound the
    # horizon, so its 20 steps run past that
    monkeypatch.setattr(solver, "dt_limit", lambda scheme, grid, epsilon: math.inf)
    raw = json.loads(json.dumps(SMALL_CIRCLE_RAW))
    raw["scenario"] = "no-cancellation"
    raw["solver"] = {"dt_factor": 2.0, "t_end": 0.1}
    path = tmp_path / "diverges.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the flow diverged at step ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "sim").exists()


def test_cli_simulate_and_diagnose_roundtrip(tmp_path, capsys):
    raw = raw_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    assert code == 0
    assert (tmp_path / "sim" / "diagnostics.csv").exists()
    code = cli_main(["diagnose", str(tmp_path / "sim" / "final.field")])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy:" in out


# --- flow table -------------------------------------------------------------------


def small_raw(scenario):
    """A config of ``scenario`` that runs in a few seconds."""
    if scenario == "excess-decay":
        raw = raw_config()
        _small_excess_decay()(raw)
        return raw
    return {
        "standing-wave": BASE_RAW,
        "shrinking-circle": SMALL_CIRCLE_RAW,
        "monotonicity-sweep": {**SMALL_CIRCLE_RAW, "scenario": "monotonicity-sweep"},
        "no-cancellation": {"scenario": "no-cancellation",
                            "grid": {"dim": 2, "extent": 1.4, "points": 160}, "epsilon": [0.04],
                            "solver": {"dt_factor": 0.125, "t_end": 0.004, "sample_every": 4}},
        "inequality-ratios": {"scenario": "inequality-ratios",
                              "grid": {"dim": 2, "extent": 1.28, "points": 128}, "epsilon": 0.04,
                              "solver": {"dt_factor": 0.125, "t_end": 0.001, "sample_every": 5}},
    }[scenario]


class ReadParams(dict):
    """Params that record the keys read from them."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_flow_a_scenario_runs_is_in_its_flow_table(monkeypatch, tmp_path, scenario):
    # the loader checks the table, so a flow outside it would go unchecked;
    # standing-wave's single step of its base flow is in the table too.  A
    # run matches its entry in grid, step, layer width and initial values,
    # and starts from the very field its own entry built: an entry that
    # lends its data to another's run, even equal data, is caught
    config = config_from_dict(small_raw(scenario))
    flows = _flows(config)
    starts = {key: flow.start().values for key, flow in flows.items()}
    ran, march, start, started = [], solver.march, Flow.start, []

    def recording_start(flow):
        field = start(flow)
        started.append((flow.config, weakref.ref(field)))
        return field

    def recording(field, cfg):
        own = any(c == cfg and ref() is field for c, ref in started)
        ran.append((field.epsilon, field.grid, cfg, field.values, own))
        return march(field, cfg)

    def entries(run):
        eps, grid, cfg, values, _ = run
        return {key for key, flow in flows.items()
                if (flow.epsilon, flow.grid, flow.config) == (eps, grid, cfg)
                and np.array_equal(starts[key], values)}

    monkeypatch.setattr(Flow, "start", recording_start)
    monkeypatch.setattr(solver, "march", recording)
    params = ReadParams(config.params)
    run_scenario(ExperimentConfig({**config.source, "params": params}))
    matched = [entries(run) for run in ran]
    assert all(matched), "a flow outside the table ran"
    assert all(own for *_, own in ran), "a flow ran from another entry's initial field"
    assert {key for key in flows if key[0] != "base"} <= set().union(*matched)
    # every declared param feeds the run
    assert params.read == set(config.params)
    # acflow simulate runs the first epsilon's base flow
    ran.clear()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_raw(scenario)))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    assert [entries(run) for run in ran] == [{("base", config.epsilons[0])}]
    assert all(own for *_, own in ran)


_CIRCLE_128 = dict(grid={"dim": 2, "extent": 1.2, "points": 128}, epsilon=0.04)


@pytest.mark.parametrize("raw, expected", [
    # the coarse 2-eps flow takes 25 steps, which 2 does not divide
    ({**scenario_raw("shrinking-circle", radius=0.25), **_CIRCLE_128,
      "solver": {"dt_factor": 0.25, "t_end": 0.02, "sample_every": 2}},
     ["shrinking-circle coarse flow: step count 25 is not a multiple of sample_every=2"]),
    # the rough flow's horizon, t_end/10, is 5.5 steps
    ({**scenario_raw("excess-decay"), "grid": {"dim": 2, "extent": 1.28, "points": 256},
      "epsilon": [0.02], "solver": {"dt_factor": 0.125, "t_end": 0.00275, "sample_every": 1}},
     ["excess-decay rough flow: t_end=0.000275 is not a whole number of steps of dt=5e-05"]),
    # 51 steps at eps 0.04 cannot keep every 5th; t_end/10 is 20.4 steps at eps 0.02
    ({**scenario_raw("excess-decay"),
      "solver": {"dt_factor": 0.125, "t_end": 0.0102, "sample_every": 1}},
     ["excess-decay main flow: step count 51 is not a multiple of sample_every=5",
      "excess-decay rough flow: t_end=0.00102 is not a whole number of steps of dt=5e-05"]),
])
def test_loader_rejects_a_hidden_flow_that_breaks_its_step_rules(tmp_path, capsys, monkeypatch,
                                                                 raw, expected):
    def no_flow(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(solver, "march", no_flow)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and len(err.strip().splitlines()) == 1
    for text in expected:
        assert text in err
    assert not (tmp_path / "exp").exists()
