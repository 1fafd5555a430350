import json
import math
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acflow import (
    FlowDivergedError, FrameBundle, Grid, ParabolicCylinder, SolverConfig, SolverConfigError,
    Trajectory, WAVE_ENERGY, brakke_residual, diagnostics_record, evolve, extract_graph,
    gaussian_density, heat_compare, monotonicity_residual, partition_good_bad,
    prepare_interface, radial_bump,
)
from acflow import solver
from acflow.cli import main as cli_main
from acflow.experiments import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    _DEFAULTS,
    _brakke_probe,
    _circle_audit_jobs,
    _concurrently,
    _gaussian_probe,
    config_from_dict,
    default_config,
    density_ratio_profile,
    initial_field,
    no_cancellation_check,
    run_flow_audit,
    run_scenario,
    run_shrinking_circle,
    write_reports,
)
from acflow.initial_data import circle_distance, graph_pair_distance, sine_mode
from acflow.monotonicity import KernelPoint
from acflow.io import read_field
from acflow.grid import window_weights
from acflow.operators import ball_mask, gradient_values

from conftest import standing_wave


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


def both_probes(grid, kernel, bump):
    """The Brakke and the Gaussian probe in one."""
    brakke, gaussian = _brakke_probe(grid, bump), _gaussian_probe(kernel)
    return lambda b: {**brakke(b), **gaussian(b)}


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
    assert config_from_dict(raw).params == {"radius": 0.3, "coarse_extent": 1.4,
                                            "kernel_lag": 0.01}


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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_loader_returns_a_config_or_raises_config_error(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


# --- audit machinery ---------------------------------------------------------


def test_flow_audit_matches_evolve(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    cfg = SolverConfig(dt=2.5e-4, t_end=2.5e-3, scheme="semi-implicit-cnab2", sample_every=5)
    vol = grid_1d.cell_volume
    audit = run_flow_audit(wave, cfg, lambda b: {"energy": float(np.sum(b.energy_density) * vol)})
    direct = evolve(wave, cfg)
    assert len(audit.trajectory) == len(direct) == 3
    assert np.array_equal(audit.trajectory.times, direct.times)
    for a, d in zip(audit.trajectory.frames, direct.frames):
        assert np.array_equal(a.values, d.values)
    assert len(audit.times) == 11
    # stationary wave: energy flat, dissipation at round-off
    energy = audit.series["energy"]
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
    probe = both_probes(g, KernelPoint(y=(0.0, 0.0), s=0.05, n=1),
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
        run_flow_audit(initial, cfg, probe)
        return Counter(calls)

    # the difference between 3 and 2 audited steps is one audited step
    step = transforms(3)
    step.subtract(transforms(2))
    assert sum(step[name] for name in REAL_TRANSFORMS) <= 5
    assert sum(step[name] for name in COMPLEX_TRANSFORMS) == 0


@pytest.mark.parametrize("with_brakke_probe, per_step, fixed", [(False, 3, 7), (True, 5, 5)])
def test_audit_transform_count_is_linear_in_the_steps(monkeypatch, with_brakke_probe, per_step,
                                                      fixed):
    # a cnab2 step makes two real transforms and the dissipation one (the
    # Laplacian); the Brakke probe adds the two of the gradient.  The fixed
    # part: the initial field's spectrum and gradient (the first energy),
    # cnab2's transform of its first input, and, without the probe, the
    # last step's gradient (the last energy).
    g = Grid(dim=2, extent=1.2, points=64)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    initial = prepare_interface(circle_distance(0.35), g, eps)
    probe = (_brakke_probe(g, radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent))
             if with_brakke_probe else None)
    calls = Counter()
    for name in ("rfftn", "irfftn"):
        def counting(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)

    def transforms(n_steps):
        calls.clear()
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt, scheme="semi-implicit-cnab2")
        run_flow_audit(initial, cfg, probe)
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
    heat_compare(extract_graph(traj, 0.0))


def test_library_identities_reproduce_the_audit_probe_series():
    # the audit probe and the public identities share one implementation:
    # at an interior step they agree up to the round trip of the carried
    # spectrum through the stored field
    g = Grid(dim=2, extent=1.2, points=64)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    kernel = KernelPoint(y=(0.0, 0.0), s=0.05, n=1)
    bump = radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent)
    initial = prepare_interface(circle_distance(0.35), g, eps)
    cfg = SolverConfig(dt=dt, t_end=6 * dt, scheme="semi-implicit-cnab2")
    audit = run_flow_audit(initial, cfg, both_probes(g, kernel, bump))
    traj, series = audit.trajectory, audit.series
    i = 3
    t = traj.times[i]

    def centered(name):
        return (series[name][i + 1] - series[name][i - 1]) / (2.0 * dt)

    brakke = brakke_residual(traj, bump, t)
    mono = monotonicity_residual(traj, kernel, t)
    pairs = [
        (brakke.dmu_dt, centered("brakke_mass")),
        (brakke.rhs_gradient_form, series["brakke_rhs_gradient"][i]),
        (brakke.rhs_tensor_form, series["brakke_rhs_tensor"][i]),
        (gaussian_density(traj, kernel, t).value, series["gauss"][i]),
        (mono.dvalue_dt, centered("gauss")),
        (mono.dissipative_term, series["gauss_dissipative"][i]),
        (mono.discrepancy_term, series["gauss_discrepancy"][i]),
    ]
    for library, probe in pairs:
        assert library == pytest.approx(probe, rel=1e-12)
    assert mono.rho_tensor_term == 0.0


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
        run_flow_audit(initial, cfg)
    err = from_evolve.value
    assert (err.step, err.time, err.max_abs) == (
        from_audit.value.step, from_audit.value.time, from_audit.value.max_abs)
    assert 1 < err.step < 8
    assert err.time == pytest.approx(err.step * dt)
    assert 1.0 < err.max_abs < math.inf
    assert str(err).startswith(f"the flow diverged at step {err.step} ")


@pytest.mark.parametrize("dt_factor", [1, 2, 4, 8, 16])
def test_probed_audit_reports_a_divergence_as_the_typed_error(monkeypatch, dt_factor):
    # the last finite fields are huge; their energy, dissipation and probe
    # terms overflow, and under the suite's error::RuntimeWarning filter a
    # warning from that recording would replace the typed error
    monkeypatch.setattr(solver, "dt_limit", lambda scheme, grid, epsilon: math.inf)
    g = Grid(dim=2, extent=1.6, points=160)
    initial = prepare_interface(circle_distance(0.35), g, 0.05)
    dt = dt_factor * 0.05**2
    cfg = SolverConfig(dt=dt, t_end=8 * dt, scheme="explicit-rk2")
    probe = both_probes(g, KernelPoint(y=(0.0, 0.0), s=cfg.t_end + 0.01, n=1),
                        radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent))
    with pytest.raises(FlowDivergedError):
        run_flow_audit(initial, cfg, probe)


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
            run_flow_audit(wave_1d, cfg)
        assert str(from_audit.value) == str(from_evolve.value)


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
    # radius 0.005 on the circle run: a window holding one sample
    cases = [
        (circle_traj_short, (0.34, 0.0), 0.005, [0.005, 0.04, 0.1, 0.2, 0.3]),
        (circle_traj_short, (0.0, 0.3), 0.0095, [0.05, 0.15]),
        (flat, (0.0, 0.0), 0.5 * flat.times[-1], [0.1, 0.15, 0.2, 0.25, 0.3]),
        (Trajectory(frames=(flat[0],), dt_sample=0.0), (0.0, 0.0), 0.0, [0.1, 0.3]),
    ]
    for traj, center, t, radii in cases:
        profile = density_ratio_profile(traj, center, t, radii)
        assert profile.entries == per_radius_profile(traj, center, t, radii)


def test_density_profile_flags_pure_phase_center(circle_traj_short):
    # center deep inside the +1 phase: flagged, not an error
    prof = density_ratio_profile(circle_traj_short, (0.0, 0.0), 0.01, [0.1, 0.2])
    assert not prof.center_in_layer
    prof_on = density_ratio_profile(circle_traj_short, (0.34, 0.0), 0.005, [0.1])
    assert prof_on.center_in_layer


def test_total_variation_matches_energy_mass(wave_1d):
    # alpha * integral |grad u| = 2 * energy mass on an exact layer
    g = wave_1d.grid
    window = np.abs(g.axis()) <= 0.25 * g.extent
    grad = gradient_values(g, wave_1d.values)[0]
    tv = float(np.sum(np.abs(grad)[window]) * g.spacing)
    from acflow import energy_density

    mass = float(np.sum(energy_density(wave_1d).values[window]) * g.spacing)
    assert WAVE_ENERGY * tv == pytest.approx(2.0 * mass, abs=1e-8)
    assert WAVE_ENERGY * tv == pytest.approx(8.0 / 3.0, abs=1e-6)


def test_no_cancellation_defect_small_on_exact_wave(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    frames = tuple(wave.with_values(wave.values, time=0.01 * i) for i in range(5))
    traj = Trajectory(frames=frames, dt_sample=0.01)
    defect = no_cancellation_check(traj, bump_radii=[0.9], bump_times=[0.02])
    # the bump curvature sees the (profile-width)^2 moment difference
    assert defect < 1e-3


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
    assert csv[0].startswith("time,region_descriptor,energy")
    field = read_field(tmp_path / "field_0.field")
    assert field.grid.points == cfg.grid.points


def test_graph_csv_roundtrippable_columns(tmp_path, wave_2d):
    from acflow import extract_graph
    from acflow.io import write_graph_csv

    graph = extract_graph(wave_2d, 0.0)
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
    initial = initial_field(config, eps)
    probe = both_probes(g, KernelPoint(y=(0.0, 0.0), s=config.t_end + 0.01, n=1),
                        radial_bump(center=(0.0, 0.0), radius=0.45 * g.extent))
    sequential = {
        scale: run_flow_audit(initial, config.solver_config(
            eps, dt_scale=scale, sample_every=round(config.sample_every / scale)), probe)
        for scale in scales
    }
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(len(scales))))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        jobs = _circle_audit_jobs(config_from_dict(SMALL_CIRCLE_RAW), dict.fromkeys(scales, probe))
        concurrent = dict(zip(scales, _concurrently(*jobs)))
    finally:
        sys.setswitchinterval(interval)
    assert list(concurrent) == list(scales)
    for scale in scales:
        a, b = concurrent[scale], sequential[scale]
        assert a.dt == b.dt
        for name in ("times", "end_energies", "dissipation"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.series.keys() == b.series.keys()
        for name in a.series:
            assert np.array_equal(a.series[name], b.series[name])
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


@pytest.mark.parametrize("mutations, expected", [
    ([_without(None, "epsilon")], ["missing key 'epsilon'"]),
    ([_with("grid", points=513)], ["points must be even"]),
    ([_without("grid", "extent"), _without("solver", "t_end")],
     ["missing key 'extent' in config.grid", "missing key 't_end' in config.solver"]),
    ([_with("solver", dt_factor=1.0)], ["exceeds the semi-implicit-cnab2 limit"]),
    ([_with("solver", t_end=0.0013)], ["not a whole number of steps"]),
    ([_with("solver", dt_factor=1.0, t_end=0.0013), _with(None, epsilon=[0.05, 0.04])],
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
    ([_without("solver", "dt_factor")], ["missing key 'dt_factor' in config.solver"]),
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
     "unknown key 'raduis' in config.params (allowed: ['coarse_extent', 'kernel_lag', 'radius'])"),
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


def test_cli_reports_a_diverged_flow(tmp_path, capsys, monkeypatch):
    # the oversized explicit step of test_audit_and_evolve_report_the_same_divergence
    monkeypatch.setattr(solver, "dt_limit", lambda scheme, grid, epsilon: math.inf)
    raw = json.loads(json.dumps(SMALL_CIRCLE_RAW))
    raw["solver"] = {"dt_factor": 2.0, "t_end": 0.04, "scheme": "explicit-rk2"}
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
