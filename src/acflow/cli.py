"""Command-line entry points: simulate, diagnose, experiment.

``experiment <scenario>`` runs one verification scenario and exits 0 iff
every check passes.  ``simulate`` evolves the scenario's initial data and
writes snapshots plus the diagnostics table.  ``diagnose`` computes one
diagnostics row for a stored snapshot.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .diagnostics import diagnostics_record
from .experiments import (
    SCENARIOS,
    ConfigError,
    ScenarioError,
    default_config,
    initial_field,
    load_config,
    run_scenario,
)
from .io import read_field, write_diagnostics_csv, write_field
from .levelset import GraphExtractionError
from .solver import FlowDivergedError, InterfaceDataError, SolverConfigError, sampled
from . import experiments


def _resolve_config(args) -> "experiments.ExperimentConfig":
    if args.config is not None:
        config = load_config(args.config)
    else:
        scenario = getattr(args, "scenario", None)
        if scenario is None:
            raise ConfigError("either --config or a scenario name is required")
        config = default_config(scenario)
    if getattr(args, "scenario", None) and config.scenario != args.scenario:
        raise ConfigError(
            f"config file is for scenario {config.scenario!r}, not {args.scenario!r}"
        )
    if args.seed is not None:
        import dataclasses

        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    eps = config.epsilons[0]
    _, cfg = experiments._flows(config)["base", eps]
    # each sample's row is taken as the flow runs, and of its fields only
    # the first and the last are kept; nothing is written before the flow
    # ends, so a flow that diverges leaves no output.  The row of a huge but
    # finite field overflows silently, as its step does in march, and its
    # error waits for the flow: a divergence after it is reported instead
    rows, first, row_error = [], None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for last in sampled(initial_field(config, eps), cfg):
            first = last if first is None else first
            try:
                rows.append(diagnostics_record(last).as_row())
            except ValueError as exc:
                row_error = row_error or exc
    if row_error is not None:
        raise row_error
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_diagnostics_csv(rows, out / "diagnostics.csv")
    write_field(first, out / "initial.field")
    write_field(last, out / "final.field")
    print(f"wrote {len(rows)} diagnostics rows and 2 snapshots to {out}")
    return 0


def cmd_diagnose(args) -> int:
    field = read_field(args.field)
    row = diagnostics_record(field).as_row()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_diagnostics_csv([row], out / "diagnostics.csv")
        print(f"wrote diagnostics to {out / 'diagnostics.csv'}")
    else:
        for key, value in row.items():
            print(f"{key}: {value}")
    return 0


def cmd_experiment(args) -> int:
    config = _resolve_config(args)
    result = run_scenario(config, out_dir=args.out)
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.6g} {c.comparison} {c.threshold:.6g}")
    print(f"scenario {result.scenario}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acflow",
        description="Diffuse-interface curvature flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a scenario's initial data and dump outputs")
    sim.add_argument("scenario", nargs="?", choices=SCENARIOS)
    sim.add_argument("--config", type=Path, default=None)
    sim.add_argument("--out", type=Path, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    diag = sub.add_parser("diagnose", help="diagnostics row for a stored field snapshot")
    diag.add_argument("field", type=Path)
    diag.add_argument("--out", type=Path, default=None)
    diag.set_defaults(func=cmd_diagnose)

    exp = sub.add_parser("experiment", help="run a verification scenario")
    exp.add_argument("scenario", nargs="?", choices=SCENARIOS)
    exp.add_argument("--config", type=Path, default=None)
    exp.add_argument("--out", type=Path, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SolverConfigError, InterfaceDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FlowDivergedError, GraphExtractionError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
