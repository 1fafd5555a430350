"""Fixed-size layer probes: one call into one module, timed in milliseconds.

Inputs are built once, outside the timed region.  Each probe is called once
to warm up, then repeated (3 to 15 times, about a second of work) and the
median is reported.  The sizes follow the ROADMAP baseline table: ``256`` and
``512`` are 2-D grids of that many points per axis, ``96c`` is a 96^3
cube holding a sphere of radius 0.35 (the benchmark's only 3-D input), and
``256x11`` is an 11-frame trajectory at 256^2.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path


def _median_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    warm = time.perf_counter() - t0
    repeats = max(3, min(15, int(1.0 / max(warm, 1e-9))))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def _stepper(field, scheme: str, dt: float):
    from acflow import SolverConfig
    from acflow.solver import _Stepper

    return _Stepper(field, SolverConfig(dt=dt, t_end=dt, scheme=scheme))


def run_probes(workdir: Path) -> dict[str, float]:
    from acflow import (
        Grid, SolverConfig, diagnostics, evolve, initial_data, io, levelset, monotonicity,
        operators, prepare_interface, solver,
    )
    from acflow.monotonicity import KernelPoint

    out: dict[str, float] = {}

    def probe(name: str, fn) -> None:
        out[name] = _median_ms(fn)

    # 2-D circles at 256^2 (eps 0.02) and 512^2 (eps 0.01), the 96^3 sphere.
    g256 = Grid(dim=2, extent=1.2, points=256)
    g512 = Grid(dim=2, extent=1.2, points=512)
    g96c = Grid(dim=3, extent=1.2, points=96)
    c256 = prepare_interface(initial_data.circle_distance(0.35), g256, 0.02)
    c512 = prepare_interface(initial_data.circle_distance(0.35), g512, 0.01)
    s96c = prepare_interface(initial_data.circle_distance(0.35), g96c, 4.0 * g96c.spacing)

    probe("operators.gradient_ms.256", lambda: operators.gradient_values(g256, c256.values))
    probe("operators.gradient_ms.512", lambda: operators.gradient_values(g512, c512.values))
    probe("operators.laplacian_ms.512", lambda: operators.laplacian_values(g512, c512.values))
    kernel2 = KernelPoint(y=(0.0, 0.0), s=0.05, n=1)
    probe("monotonicity.kernel_on_grid_ms.256",
          lambda: monotonicity.kernel_on_grid(kernel2, g256, 0.0))

    steppers = {
        "solver.step_ms.cnab2.256": (c256, "semi-implicit-cnab2", 0.25 * 0.02**2),
        "solver.step_ms.cnab2.512": (c512, "semi-implicit-cnab2", 0.125 * 0.01**2),
        "solver.step_ms.semi-implicit.512": (c512, "semi-implicit-spectral", 0.125 * 0.01**2),
        "solver.step_ms.rk2.512": (c512, "explicit-rk2",
                                   solver.dt_limit("explicit-rk2", g512, 0.01)),
        "solver.step_ms.cnab2.96c": (s96c, "semi-implicit-cnab2", s96c.epsilon**2 / 8.0),
    }
    for name, (field, scheme, dt) in steppers.items():
        stepper = _stepper(field, scheme, dt)
        probe(name, lambda: stepper.advance(field))

    # excess-decay's graph data at its finest grid, and the circle's data
    g_graph = Grid(dim=2, extent=1.28, points=512)
    graph_d = initial_data.graph_pair_distance(
        g_graph.extent, [initial_data.sine_mode(0.5 * 0.01, 1, g_graph.extent)])
    probe("solver.prepare_ms.graph.512", lambda: prepare_interface(graph_d, g_graph, 0.01))
    circle_d = initial_data.circle_distance(0.35)
    probe("solver.prepare_ms.circle.256", lambda: prepare_interface(circle_d, g256, 0.02))

    probe("diagnostics.record_ms.256", lambda: diagnostics.diagnostics_record(c256))
    probe("diagnostics.record_ms.512", lambda: diagnostics.diagnostics_record(c512))
    probe("diagnostics.record_ms.96c", lambda: diagnostics.diagnostics_record(s96c))

    dt = 0.25 * 0.02**2
    circle_traj = evolve(c256, SolverConfig(dt=dt, t_end=8 * dt, scheme="semi-implicit-cnab2",
                                            sample_every=2))
    t_mid = circle_traj.times[2]
    bump = diagnostics.radial_bump(center=(0.0, 0.0), radius=0.45 * g256.extent)
    probe("diagnostics.brakke_residual_ms.256",
          lambda: diagnostics.brakke_residual(circle_traj, bump, t_mid))
    probe("monotonicity.gaussian_density_ms.256",
          lambda: monotonicity.gaussian_density(circle_traj, kernel2, t_mid))
    probe("monotonicity.residual_ms.256",
          lambda: monotonicity.monotonicity_residual(circle_traj, kernel2, t_mid))

    # an 11-frame graph-layer trajectory at 256^2, as in excess-decay
    g_layer = Grid(dim=2, extent=1.28, points=256)
    eps = 0.02
    layer_d = initial_data.graph_pair_distance(
        g_layer.extent, [initial_data.sine_mode(0.5 * eps, 1, g_layer.extent)])
    dt = 0.125 * eps**2
    layer_traj = evolve(prepare_interface(layer_d, g_layer, eps),
                        SolverConfig(dt=dt, t_end=80 * dt, scheme="semi-implicit-cnab2",
                                     sample_every=8))
    probe("levelset.extract_graph_ms.256x11", lambda: levelset.extract_graph(layer_traj, 0.0))
    probe("levelset.partition_ms.256x11",
          lambda: levelset.partition_good_bad(layer_traj, 0.02, 0.05))
    probe("levelset.excess_decay_ratio_ms.256x11",
          lambda: levelset.excess_decay_ratio(layer_traj, theta=0.25, scale=0.2,
                                              center_time=layer_traj.times[5]))

    fresh = c512.values.copy()
    probe("grid.with_values_ms.512", lambda: c512.with_values(fresh))
    path = workdir / "probe.field"
    probe("io.write_field_ms.512", lambda: io.write_field(c512, path))
    probe("io.read_field_ms.512", lambda: io.read_field(path))
    return out
