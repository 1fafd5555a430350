"""Acceptance gate: every headline claim checked at its pinned tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line with the
measured values.  Scenario runs are shared across criteria through session
fixtures: each scenario runs once per session, through the code that
`acflow experiment` runs.  Monotonicity-sweep (criterion 5) runs on the
shrinking-circle default config, every other scenario on its own.
"""

import numpy as np
import pytest

from acflow import SolverConfig, evolve, partition_good_bad
from acflow.experiments import (
    default_config,
    run_monotonicity_sweep,
    run_scenario,
)

from conftest import standing_wave


# --- shared scenario runs ----------------------------------------------------


@pytest.fixture(scope="session")
def circle_bundle():
    cfg = default_config("shrinking-circle")
    return {"circle": run_scenario(cfg), "mono": run_monotonicity_sweep(cfg)}


@pytest.fixture(scope="session")
def excess_result():
    return run_scenario(default_config("excess-decay"))


@pytest.fixture(scope="session")
def nocancel_result():
    return run_scenario(default_config("no-cancellation"))


@pytest.fixture(scope="session")
def inequality_result():
    return run_scenario(default_config("inequality-ratios"))


@pytest.fixture(scope="session")
def standing_result():
    return run_scenario(default_config("standing-wave"))


def get(result, name):
    for c in result.checks:
        if c.name == name:
            return c
    raise KeyError(f"{result.scenario} has no check {name!r}")


def report(number, title, ok, detail):
    print(f"ACCEPTANCE {number:>2} {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({title}): {detail}"


# --- criteria ---------------------------------------------------------------


def test_criterion_01_standing_wave_exactness(standing_result):
    r = get(standing_result, "residual_max_interior")
    e = get(standing_result, "energy_vs_alpha")
    d = get(standing_result, "discrepancy_max")
    ok = r.passed and e.passed and d.passed
    report(1, "standing-wave exactness", ok,
           f"residual={r.value:.2e}<=1e-7, energy defect={e.value:.2e}<=1e-6, "
           f"discrepancy={d.value:.2e}<=1e-8")


def test_criterion_02_energy_dissipation_identity(circle_bundle):
    c = get(circle_bundle["circle"], "dissipation_defect_ratio")
    report(2, "energy dissipation identity refinement", c.passed,
           f"defect ratio under dt halving = {c.value:.3f} <= 0.35")


def test_criterion_03_brakke_identity_both_forms(circle_bundle):
    g = get(circle_bundle["circle"], "brakke_gradient_form")
    t = get(circle_bundle["circle"], "brakke_tensor_form")
    ok = g.passed and t.passed
    report(3, "weighted-energy identity, both forms", ok,
           f"gradient form {g.value:.2%}, tensor form {t.value:.2%}, both <= 1%")


def test_criterion_04_stress_energy_refinement(inequality_result):
    r1 = get(inequality_result, "stress_energy_rate_1")
    r2 = get(inequality_result, "stress_energy_rate_2")
    ok = r1.value <= 0.25 and r2.value <= 0.25
    report(4, "stress-energy divergence refinement", ok,
           f"defect rates per doubling {r1.value:.2e}, {r2.value:.2e} <= 0.25")


def test_criterion_05_weighted_monotonicity(circle_bundle):
    mono = circle_bundle["mono"]
    m = get(mono, "gaussian_density_monotone")
    r = get(mono, "monotonicity_residual_ratio")
    ok = m.passed and r.passed
    report(5, "weighted monotonicity", ok,
           f"worst density rise {m.value:.2e} <= 1e-3/time, residual ratio {r.value:.3f} <= 0.35")


def test_criterion_06_circle_vs_mean_curvature(circle_bundle):
    circle = circle_bundle["circle"]
    e = get(circle, "radius_final_error")
    trend = get(circle, "radius_error_epsilon_trend")
    ok = e.passed and trend.value > 0
    report(6, "shrinking circle vs mean-curvature radius", ok,
           f"radius error {e.value:.3%} <= 2%, coarser-layer error larger by {trend.value:.3%}")


def test_criterion_07_excess_convergence_sweep(excess_result):
    t = get(excess_result, "tilt_excess_sweep")
    x = get(excess_result, "discrepancy_sweep")
    w = get(excess_result, "willmore_sweep")
    ok = t.passed and x.passed and w.passed
    report(7, "excess convergence sweep", ok,
           f"worst step ratios tilt={t.value:.3f}, discrepancy={x.value:.3f}, "
           f"velocity={w.value:.3f}, all < 1")


def test_criterion_08_heat_flow_blowup(excess_result):
    e = get(excess_result, "heat_error_mid_epsilon")
    s = get(excess_result, "heat_error_sweep")
    ok = e.passed and s.passed
    report(8, "heat-flow comparison of the graph", ok,
           f"final-time relative L2 error {e.value:.2%} <= 5%, sweep ratio {s.value:.3f} < 1")


def test_criterion_09_excess_decay_shape(excess_result):
    c = get(excess_result, "tilt_constant_stability")
    gate = get(excess_result, "excess_decay_gate")
    reports = excess_result.payload["excess_decay_reports"]
    layers = {k: v["layer_repulsion_value"] for k, v in reports.items()}
    ok = c.passed and gate.passed
    report(9, "excess decay fit and tilt constant", ok,
           f"tilt-constant stability {c.value:.3f} <= 2, contraction gate violations "
           f"{gate.value:.0f} (layer values {layers}, threshold {excess_result.payload['k1']})")


def test_criterion_10_inequality_ratio_stability(inequality_result):
    names = [
        "caccioppoli_grid_stability",
        "caccioppoli_circle_stability",
        "sobolev_grid_stability",
        "sobolev_circle_stability",
    ]
    checks = [get(inequality_result, n) for n in names]
    ok = all(c.passed for c in checks)
    report(10, "inequality ratios stable under refinement", ok,
           ", ".join(f"{c.name}={c.value:.3f}" for c in checks) + " all <= 2")


def test_criterion_11_distance_function_bound(standing_result, circle_bundle):
    w = get(standing_result, "distance_gradient")
    c = get(circle_bundle["circle"], "distance_gradient")
    ok = w.passed and c.passed
    report(11, "inverse-profile gradient bound", ok,
           f"max |grad z| = {w.value:.6f} (flat), {c.value:.6f} (circle run), both <= 1.001")


def test_criterion_12_weak_l1_partition(excess_result, grid_2d):
    stability = get(excess_result, "weak_l1_stability")
    # exact layer: the bad set must be empty at every threshold
    wave = standing_wave(grid_2d, 0.02)
    dt = 5e-5
    traj = evolve(wave, SolverConfig(dt=dt, t_end=20 * dt, scheme="semi-implicit-cnab2",
                                     sample_every=5))
    empty = all(
        not np.any(partition_good_bad(traj, l, 0.05).bad) for l in (0.01, 0.02, 0.04)
    )
    ok = stability.passed and empty
    ratios = excess_result.payload["weak_l1_ratios"]
    report(12, "maximal-function weak-L1 partition", ok,
           f"measured constants {ratios} stable within {stability.value:.3f} <= 2; "
           f"exact-layer bad set empty: {empty}")


def test_criterion_13_no_cancellation(nocancel_result):
    d = get(nocancel_result, "weak_star_defect")
    s = get(nocancel_result, "weak_star_defect_sweep")
    ok = d.passed and s.passed
    defects = nocancel_result.payload["defects"]
    report(13, "no cancellation of the variation measure", ok,
           f"defects by layer width {defects}; finest {d.value:.2%} <= 3%, ratio {s.value:.3f} < 1")


def test_criterion_14_density_lower_bound(circle_bundle):
    circle = circle_bundle["circle"]
    flat = get(circle, "density_ratio_flat")
    low = get(circle, "density_ratio_lower_bound")
    ok = flat.passed and low.passed
    report(14, "parabolic density lower bound", ok,
           f"flat-layer min ratio within {flat.value:.2%} of 16/3 (<= 5%), "
           f"circle min ratio {low.value:.3f} >= 1")
