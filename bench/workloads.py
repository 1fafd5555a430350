"""The two benchmark workloads and the checks that decide each verdict.

Every workload has a ``setup()`` (import acflow and build the config) and a
``run(config, workdir, seed)`` that does the work, writes its outputs under
``workdir`` and returns ``{check name: {"value": float, "passed": bool}}``.
Module attributes are looked up at call time, so a traced run reaches the
wrappers installed by :mod:`tracing`.
"""

from __future__ import annotations

import json
from pathlib import Path


class ScenarioWorkload:
    """``acflow experiment <scenario> --out <dir> --seed <seed>`` with the
    scenario's default config; the checks are read back from verdict.json."""

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario

    def setup(self):
        from acflow import experiments

        return experiments.default_config(self.scenario)

    def run(self, config, workdir: Path, seed: int) -> dict:
        """``config`` only stands for set-up: the CLI builds its own."""
        from acflow import cli

        out = workdir / "out"
        cli.main(["experiment", self.scenario, "--out", str(out), "--seed", str(seed)])
        verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
        return {c["name"]: {"value": c["value"], "passed": bool(c["passed"])}
                for c in verdict["checks"]}


WORKLOADS = {
    "circle-audit": ScenarioWorkload("shrinking-circle"),
    "excess-decay": ScenarioWorkload("excess-decay"),
}
