"""Acceptance gate: every headline claim, read from the verdicts.

Each criterion's test prints one `ACCEPTANCE <n> <title>: PASS/FAIL` line
with the checks it reads, each as `acflow experiment` prints it: the
check's value, comparison and tolerance all come from its `CheckResult`,
so the gate states no tolerance of its own.  Every scenario runs once per
session, on its default config and through the code that `acflow
experiment` runs.
"""

import pytest

from acflow import SolverConfig, evolve
from acflow.experiments import SCENARIOS, default_config, run_scenario
from acflow.levelset import good_bad_partitions

from conftest import standing_wave


WAVE, CIRCLE, MONO = "standing-wave", "shrinking-circle", "monotonicity-sweep"
EXCESS, NOCANCEL, RATIOS = "excess-decay", "no-cancellation", "inequality-ratios"

# number -> (test name, title, the (scenario, check) pairs it reads, the
# (scenario, payload key) pairs it prints)
CRITERIA = {
    1: ("standing_wave_exactness", "standing-wave exactness",
        [(WAVE, "residual_max_interior"), (WAVE, "energy_vs_alpha"), (WAVE, "discrepancy_max")],
        []),
    2: ("energy_dissipation_identity", "energy dissipation identity refinement",
        [(CIRCLE, "dissipation_defect_ratio")], []),
    3: ("brakke_identity_both_forms", "weighted-energy identity, both forms",
        [(CIRCLE, "brakke_gradient_form"), (CIRCLE, "brakke_tensor_form")], []),
    4: ("stress_energy_refinement", "stress-energy divergence refinement",
        [(RATIOS, "stress_energy_rate_1"), (RATIOS, "stress_energy_rate_2")], []),
    5: ("weighted_monotonicity", "weighted monotonicity",
        [(MONO, "gaussian_density_monotone"), (MONO, "monotonicity_residual_ratio")], []),
    6: ("circle_vs_mean_curvature", "shrinking circle vs mean-curvature radius",
        [(CIRCLE, "radius_final_error"), (CIRCLE, "radius_error_epsilon_trend")], []),
    7: ("excess_convergence_sweep", "excess convergence sweep",
        [(EXCESS, "tilt_excess_sweep"), (EXCESS, "discrepancy_sweep"), (EXCESS, "willmore_sweep")],
        []),
    8: ("heat_flow_blowup", "heat-flow comparison of the graph",
        [(EXCESS, "heat_error_mid_epsilon"), (EXCESS, "heat_error_sweep")], []),
    9: ("excess_decay_shape", "excess decay fit and tilt constant",
        [(EXCESS, "tilt_constant_stability"), (EXCESS, "excess_decay_gate")], []),
    10: ("inequality_ratio_stability", "inequality ratios stable under refinement",
         [(RATIOS, "caccioppoli_grid_stability"), (RATIOS, "caccioppoli_circle_stability"),
          (RATIOS, "sobolev_grid_stability"), (RATIOS, "sobolev_circle_stability")], []),
    11: ("distance_function_bound", "inverse-profile gradient bound",
         [(WAVE, "distance_gradient"), (CIRCLE, "distance_gradient")], []),
    12: ("weak_l1_partition", "maximal-function weak-L1 partition",
         [(EXCESS, "weak_l1_stability")], [(EXCESS, "weak_l1_ratios")]),
    13: ("no_cancellation", "no cancellation of the variation measure",
         [(NOCANCEL, "weak_star_defect"), (NOCANCEL, "weak_star_defect_sweep")],
         [(NOCANCEL, "defects")]),
    14: ("density_lower_bound", "parabolic density lower bound",
         [(CIRCLE, "density_ratio_flat"), (CIRCLE, "density_ratio_lower_bound")], []),
}

# the checks that serve no criterion
CRITERION_FREE = {(WAVE, "fixed_point"), (CIRCLE, "maximum_principle")}


@pytest.fixture(scope="session")
def results():
    return {scenario: run_scenario(default_config(scenario)) for scenario in SCENARIOS}


def criterion_test(number):
    """The test of one criterion, named ``test_criterion_<nn>_<name>``: it
    prints the criterion's ACCEPTANCE line and fails when one of its checks does."""
    def test(results, grid_2d):
        _, title, pairs, keys = CRITERIA[number]
        checks = {(s, c.name): c for s, result in results.items() for c in result.checks}
        ok = all(checks[pair].passed for pair in pairs)
        details = [f"{scenario} {checks[scenario, name]}" for scenario, name in pairs]
        details += [f"{key}={results[scenario].payload[key]}" for scenario, key in keys]
        if number == 12:  # and an exact layer's bad set is empty at excess-decay's thresholds
            p, dt = default_config(EXCESS).params, 5e-5
            traj = evolve(standing_wave(grid_2d, 0.02), SolverConfig(
                dt=dt, t_end=20 * dt, scheme="semi-implicit-cnab2", sample_every=5))
            parts = good_bad_partitions(traj, p["thresholds"], p["band"])
            empty = all(part.bad_points == 0 for part in parts)
            ok = ok and empty
            details.append(f"exact-layer bad set empty: {empty}")
        print(f"ACCEPTANCE {number:>2} {title}: {'PASS' if ok else 'FAIL'} ({'; '.join(details)})")
        assert ok, f"criterion {number} ({title}): {'; '.join(details)}"

    test.__name__ = test.__qualname__ = f"test_criterion_{number:02d}_{CRITERIA[number][0]}"
    return test


globals().update((test.__name__, test) for test in map(criterion_test, CRITERIA))


def test_every_check_serves_a_criterion_or_is_declared_criterion_free(results):
    held = {(scenario, c.name) for scenario, result in results.items() for c in result.checks}
    mapped = {pair for _, _, pairs, _ in CRITERIA.values() for pair in pairs}
    assert held - mapped - CRITERION_FREE == set(), "checks that serve no declared criterion"
    assert mapped | CRITERION_FREE <= held, "the map names checks no verdict has"
