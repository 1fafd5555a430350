import numpy as np
import pytest

from acflow import Grid, InterfaceDataError, prepare_interface
from acflow.initial_data import graph_pair_distance, graph_profile, sine_mode

L = 1.28


def three_start_distance(extent, modes):
    """Reference oracle: the earlier nearest-point solve, which ran 12 Newton
    iterations from each of the three starts 0 and +-0.2 extent and kept
    the closest foot."""

    def f(x):
        return sum(a * np.cos(k * x + phase) for a, k, phase in modes)

    def fp(x):
        return sum(-a * k * np.sin(k * x + phase) for a, k, phase in modes)

    def fpp(x):
        return sum(-a * k * k * np.cos(k * x + phase) for a, k, phase in modes)

    def d(*coords):
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        xh = np.broadcast_to(coords[0], shape).astype(float)
        xv = np.broadcast_to(coords[1], shape).astype(float)
        dist_graph = None
        for shift in (0.0, -0.2 * extent, 0.2 * extent):
            xi = xh + shift
            for _ in range(12):
                g = (xi - xh) + fp(xi) * (f(xi) - xv)
                gp = 1.0 + fpp(xi) * (f(xi) - xv) + fp(xi) ** 2
                xi = xi - g / np.where(np.abs(gp) > 1e-12, gp, 1e-12)
            cand = np.sqrt((xh - xi) ** 2 + (xv - f(xi)) ** 2)
            dist_graph = cand if dist_graph is None else np.minimum(dist_graph, cand)
        above = xv >= f(xh)
        dist_seam = np.where(above, 0.5 * extent - xv, xv + 0.5 * extent)
        return np.where(above, np.minimum(dist_graph, dist_seam), -np.minimum(dist_graph, dist_seam))

    return d


def fixed_iteration_distance(extent, modes):
    """Reference oracle: the one-start foot solve at a fixed 12 Newton
    iterations over every point, with no point retired."""

    def d(xh, xv):
        xh, xv = np.asarray(xh, dtype=float), np.asarray(xv, dtype=float)
        f, fp, fpp = graph_profile(modes, xh)
        above = xv >= f
        xi = xh
        for _ in range(12):
            r = f - xv
            g = (xi - xh) + fp * r
            gp = 1.0 + fpp * r + fp ** 2
            xi = xi - g / np.where(np.abs(gp) > 1e-12, gp, 1e-12)
            f, fp, fpp = graph_profile(modes, xi)
        dist_graph = np.sqrt((xh - xi) ** 2 + (xv - f) ** 2)
        dist_seam = np.where(above, 0.5 * extent - xv, xv + 0.5 * extent)
        return np.where(above, np.minimum(dist_graph, dist_seam), -np.minimum(dist_graph, dist_seam))

    return d


def excess_decay_modes(eps, mode=1, tilted=False):
    """The graph of excess-decay's data: amplitude eps/2, plus the tilt
    2.5 eps of its excess-decay fit when ``tilted``."""
    modes = [sine_mode(0.5 * eps, mode, L)]
    if tilted:
        modes.append(sine_mode(2.5 * eps * L / (2.0 * np.pi), 1, L, phase=-np.pi / 2))
    return modes


# Every graph profile the library, the tests and the benchmark probes build
# (the probes' two layers are excess-decay's at eps 0.01 and 0.02), and the
# mode-2 variants of excess-decay.
PROFILES = {
    "excess-decay-0.04": (128, excess_decay_modes(0.04)),
    "excess-decay-0.02": (256, excess_decay_modes(0.02)),
    "excess-decay-0.01": (512, excess_decay_modes(0.01)),
    "excess-decay-tilted-0.04": (128, excess_decay_modes(0.04, tilted=True)),
    "excess-decay-tilted-0.02": (256, excess_decay_modes(0.02, tilted=True)),
    "mode-2-layer": (256, [sine_mode(0.01, 2, L)]),
    "slope-0.05-256": (256, [sine_mode(0.05 * L / (2 * np.pi), 1, L, phase=-np.pi / 2)]),
    "slope-0.05-512": (512, [sine_mode(0.05 * L / (2 * np.pi), 1, L, phase=-np.pi / 2)]),
    "amplitude-0.01-128": (128, [sine_mode(0.01, 1, L)]),
    "amplitude-0.01-256": (256, [sine_mode(0.01, 1, L)]),
    "layer-64": (64, [sine_mode(0.5 * 4.0 * L / 64, 1, L)]),
    "excess-decay-mode-2-0.04": (128, excess_decay_modes(0.04, mode=2)),
    "excess-decay-mode-2-tilted-0.04": (128, excess_decay_modes(0.04, mode=2, tilted=True)),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_one_start_matches_three_start_oracle(name):
    points, modes = PROFILES[name]
    g = Grid(dim=2, extent=L, points=points)
    new = np.broadcast_to(graph_pair_distance(L, modes)(*g.coords()), g.shape)
    ref = np.broadcast_to(three_start_distance(L, modes)(*g.coords()), g.shape)
    assert np.max(np.abs(new - ref)) <= 1e-14


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_retired_points_keep_the_fixed_iteration_feet(name):
    # on the lattice and at the slope probe's +-delta shifts along each axis
    points, modes = PROFILES[name]
    g = Grid(dim=2, extent=L, points=points)
    delta = 1e-4 * g.extent
    new, ref = graph_pair_distance(L, modes), fixed_iteration_distance(L, modes)
    shifts = [(0.0, 0.0)] + [tuple(s if a == ax else 0.0 for a in range(2))
                             for ax in range(2) for s in (delta, -delta)]
    for shift in shifts:
        coords = [c + s for c, s in zip(g.coords(), shift)]
        assert np.array_equal(np.broadcast_to(new(*coords), g.shape),
                              np.broadcast_to(ref(*coords), g.shape)), shift


def test_sine_mode_is_numbers():
    amplitude, k, phase = sine_mode(0.02, 3, L, phase=0.5)
    assert (amplitude, phase) == (0.02, 0.5)
    assert k == 2.0 * np.pi * 3 / L


def test_probe_rejects_a_mode_3_graph():
    # the focal distance 1/(a k^2) ~ 0.23 lies inside the transition band,
    # so the nearest foot is not certain there; the slope probe rejects it
    g = Grid(dim=2, extent=L, points=128)
    dist = graph_pair_distance(L, [sine_mode(0.02, 3, L)])
    with pytest.raises(InterfaceDataError, match="not a signed distance"):
        prepare_interface(dist, g, 0.04)
