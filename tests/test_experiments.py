import json
from collections import Counter

import numpy as np
import pytest

from acflow import (
    Grid, SolverConfig, SolverConfigError, Trajectory, WAVE_ENERGY, evolve, prepare_interface,
    radial_bump,
)
from acflow.cli import main as cli_main
from acflow.experiments import (
    ConfigError,
    _circle_probes,
    config_from_dict,
    default_config,
    density_ratio_profile,
    no_cancellation_check,
    run_flow_audit,
    run_scenario,
)
from acflow.initial_data import circle_distance
from acflow.monotonicity import KernelPoint
from acflow.io import read_field
from acflow.operators import gradient_values

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


def test_dt_and_dt_factor_are_exclusive():
    raw = raw_config()
    raw["solver"] = {"dt": 1e-4, "dt_factor": 0.1, "t_end": 0.001}
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(raw)
    raw["solver"] = {"t_end": 0.001}
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(raw)


def test_unknown_scenario_is_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        config_from_dict(raw_config(scenario="warp-drive"))


# --- audit machinery ---------------------------------------------------------


def test_flow_audit_matches_evolve(grid_1d):
    wave = standing_wave(grid_1d, 0.05)
    cfg = SolverConfig(dt=2.5e-4, t_end=2.5e-3, scheme="semi-implicit-cnab2", sample_every=5)
    audit = run_flow_audit(wave, cfg)
    direct = evolve(wave, cfg)
    assert len(audit.trajectory) == len(direct)
    assert np.allclose(audit.trajectory[-1].values, direct[-1].values)
    assert len(audit.times) == 11
    # stationary wave: energy flat, dissipation at round-off
    assert np.allclose(audit.energy, audit.energy[0], rtol=1e-10)
    assert np.max(audit.dissipation) < 1e-10


REAL_TRANSFORMS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
COMPLEX_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "hfft", "ihfft")


def test_audited_cnab2_step_makes_five_real_transforms(monkeypatch):
    g = Grid(dim=2, extent=1.2, points=64)
    eps = 4.0 * g.spacing
    dt = 0.25 * eps**2
    initial = prepare_interface(circle_distance(0.35), g, eps)
    probe = _circle_probes(g, eps, KernelPoint(y=(0.0, 0.0), s=0.05, n=1),
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


def test_audit_and_evolve_share_the_step_count_rule(wave_1d):
    cfg = SolverConfig(dt=3e-4, t_end=1e-3, scheme="semi-implicit-cnab2")
    with pytest.raises(SolverConfigError, match="whole number of steps") as from_evolve:
        evolve(wave_1d, cfg)
    with pytest.raises(SolverConfigError, match="whole number of steps") as from_audit:
        run_flow_audit(wave_1d, cfg)
    assert str(from_audit.value) == str(from_evolve.value)


# --- density profile and mass comparison --------------------------------------


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


def test_cli_simulate_reports_a_solver_config_error(tmp_path, capsys):
    # 4 steps cannot be sampled every 3: the solver's own rule, met at run time
    raw = raw_config(solver={"dt_factor": 0.125, "t_end": 0.00125, "sample_every": 3})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and "sample_every=3" in err


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
