"""Command-line entry points: simulate, diagnose, experiment.

``experiment <scenario>`` runs one verification scenario and exits 0 iff
every check passes.  ``simulate`` evolves the scenario's initial data and
writes snapshots plus the diagnostics table.  ``diagnose`` computes one
diagnostics row for a stored snapshot.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .diagnostics import diagnostics_record
from .experiments import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    ScenarioError,
    default_config,
    load_config,
    run_scenario,
)
from .io import FieldFileError, read_field, write_diagnostics_csv, write_field
from .levelset import GraphExtractionError
from .solver import FlowDivergedError, InterfaceDataError, SolverConfigError
from . import experiments


def _resolve_config(args) -> ExperimentConfig:
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
        config = ExperimentConfig({**config.source, "seed": args.seed})
    return config


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    # the flow is its table entry, the first epsilon's base flow.  Each
    # sample's row is taken as the flow runs, and of its fields only the
    # first and the last are kept; nothing is written before the flow
    # ends, so a flow that diverges leaves no output.  The row of a huge but
    # finite field overflows silently, as its step does in march, and its
    # error waits for the flow: a divergence after it is reported instead
    flow = experiments._flows(config)["base", config.epsilons[0]]
    rows, first, row_error = [], None, None
    with np.errstate(over="ignore", invalid="ignore"):
        for last in flow:
            first = last if first is None else first
            try:
                rows.append(diagnostics_record(last))
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
    row = diagnostics_record(field)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_diagnostics_csv([row], out / "diagnostics.csv")
        print(f"wrote diagnostics to {out / 'diagnostics.csv'}")
    else:
        for key, value in dataclasses.asdict(row).items():
            print(f"{key}: {value}")
    return 0


def cmd_experiment(args) -> int:
    config = _resolve_config(args)
    result = run_scenario(config, out_dir=args.out)
    for c in result.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c}")
    print(f"scenario {result.config.scenario}: {'PASS' if result.passed else 'FAIL'}")
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
    # checked before any flow runs; the directory itself is made only once a
    # run has succeeded, so a failed run leaves no output
    if args.out is not None:
        existing = next(p for p in (args.out, *args.out.parents) if p.exists())
        if not existing.is_dir():
            print(f"error: --out {args.out}: {existing} is not a directory", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ConfigError, SolverConfigError, InterfaceDataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FlowDivergedError, GraphExtractionError, ScenarioError, FieldFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
