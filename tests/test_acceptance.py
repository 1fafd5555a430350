"""Acceptance gate: every headline claim, read from the verdicts.

Each criterion's test prints one `ACCEPTANCE <n> <title>: PASS/FAIL` line
with the checks that state its number (`CheckResult.criterion`), each as
`acflow experiment` prints it: the check's value, comparison and tolerance
all come from its `CheckResult`, so the gate states no tolerance of its
own.  Every scenario runs once per session, on its default config and
through the code that `acflow experiment` runs.
"""

import re
from pathlib import Path

import pytest

from acflow import SolverConfig, evolve
from acflow.experiments import SCENARIOS, default_config, run_scenario
from acflow.levelset import good_bad_partitions

from conftest import standing_wave


WAVE, CIRCLE, MONO = "standing-wave", "shrinking-circle", "monotonicity-sweep"
EXCESS, NOCANCEL, RATIOS = "excess-decay", "no-cancellation", "inequality-ratios"

# the order in which a criterion's line lists its checks, by scenario; within
# one, in verdict order
ORDER = (WAVE, CIRCLE, MONO, EXCESS, NOCANCEL, RATIOS)

# number -> (test name, title, the (scenario, payload key) pairs it prints)
CRITERIA = {
    1: ("standing_wave_exactness", "standing-wave exactness", []),
    2: ("energy_dissipation_identity", "energy dissipation identity refinement", []),
    3: ("brakke_identity_both_forms", "weighted-energy identity, both forms", []),
    4: ("stress_energy_refinement", "stress-energy divergence refinement", []),
    5: ("weighted_monotonicity", "weighted monotonicity", []),
    6: ("circle_vs_mean_curvature", "shrinking circle vs mean-curvature radius", []),
    7: ("excess_convergence_sweep", "excess convergence sweep", []),
    8: ("heat_flow_blowup", "heat-flow comparison of the graph", []),
    9: ("excess_decay_shape", "excess decay fit and tilt constant", []),
    10: ("inequality_ratio_stability", "inequality ratios stable under refinement", []),
    11: ("distance_function_bound", "inverse-profile gradient bound", []),
    12: ("weak_l1_partition", "maximal-function weak-L1 partition", [(EXCESS, "weak_l1_ratios")]),
    13: ("no_cancellation", "no cancellation of the variation measure", [(NOCANCEL, "defects")]),
    14: ("density_lower_bound", "parabolic density lower bound", []),
}


@pytest.fixture(scope="session")
def results():
    return {scenario: run_scenario(default_config(scenario))
            for scenario in sorted(SCENARIOS, key=ORDER.index)}


def served(results, number):
    """The (scenario, check) pairs whose check states criterion ``number``."""
    return [(s, c) for s, result in results.items() for c in result.checks
            if c.criterion == number]


def criterion_test(number):
    """The test of one criterion, named ``test_criterion_<nn>_<name>``: it
    prints the criterion's ACCEPTANCE line and fails when one of its checks does."""
    def test(results, grid_2d):
        _, title, keys = CRITERIA[number]
        checks = served(results, number)
        ok = all(c.passed for _, c in checks)
        details = [f"{scenario} {c}" for scenario, c in checks]
        details += [f"{key}={results[scenario].payload[key]}" for scenario, key in keys]
        if number == 12:  # and an exact layer's bad set is empty at excess-decay's thresholds
            p, dt = default_config(EXCESS).params, 5e-5
            traj = evolve(standing_wave(grid_2d, 0.02),
                          SolverConfig(dt=dt, t_end=20 * dt, sample_every=5))
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
    stated = {(s, c.name): c.criterion for s, result in results.items() for c in result.checks}
    # every criterion has a check, and no check states another number
    assert set(stated.values()) == set(CRITERIA) | {None}
    # the checks that serve no criterion
    free = {pair for pair, n in stated.items() if n is None}
    assert free == {(WAVE, "fixed_point"), (CIRCLE, "maximum_principle")}


def test_readme_criterion_table_agrees_with_the_gate_and_the_verdicts(results):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| ([^|\n]+) \| ([^|\n]+) \|$", readme, re.M)
    table = {int(n): (title, re.findall(r"`([\w-]+) (\w+)`", pairs)) for n, title, pairs in rows}
    assert table == {n: (title, [(s, c.name) for s, c in served(results, n)])
                     for n, (_, title, _) in CRITERIA.items()}
