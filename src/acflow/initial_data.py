"""Signed-distance constructions for well-prepared initial data.

The box is periodic, so a lone interface is impossible: flat-type data come
as a pair, the studied interface through the center of the box and an
oppositely oriented companion on the periodic seam, half a box away.  All
builders return callables suitable for :func:`acflow.solver.prepare_interface`
(exact distances, 1-Lipschitz away from ridge points that sit deep inside
the saturated phases).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "circle_distance",
    "plane_pair_distance",
    "graph_pair_distance",
    "sine_mode",
]


def circle_distance(radius: float) -> Callable:
    """Signed distance to the sphere ``|x| = radius``, positive inside."""

    def d(*coords: np.ndarray) -> np.ndarray:
        r2 = sum(x**2 for x in coords)
        return radius - np.sqrt(r2)

    return d


def plane_pair_distance(extent: float) -> Callable:
    """Distance to the plane pair {x_v = 0} and {x_v = +-extent/2} (the seam).

    Positive between the central plane and the top seam.  The tent ridge at
    ``|x_v| = extent/4`` lies in the saturated phase for any reasonable
    epsilon, and is a local maximum of ``|d|`` so centered gradient probes
    stay below 1 there.
    """
    L = extent

    def d(*coords: np.ndarray) -> np.ndarray:
        xv = coords[-1]
        zeros = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)))
        xv = xv + zeros
        return np.where(xv > 0.25 * L, 0.5 * L - xv, np.where(xv < -0.25 * L, -0.5 * L - xv, xv))

    return d


def sine_mode(amplitude: float, mode: int, extent: float, phase: float = 0.0) -> tuple[Callable, Callable, Callable]:
    """Profile ``f, f', f''`` of ``amplitude * cos(2 pi mode x / extent + phase)``."""
    k = 2.0 * np.pi * mode / extent

    def f(x):
        return amplitude * np.cos(k * x + phase)

    def fp(x):
        return -amplitude * k * np.sin(k * x + phase)

    def fpp(x):
        return -amplitude * k * k * np.cos(k * x + phase)

    return f, fp, fpp


def graph_pair_distance(extent: float, profiles: list[tuple[Callable, Callable, Callable]]) -> Callable:
    """Signed distance to the graph ``x_v = sum of profiles`` plus the seam pair.

    Two-dimensional ambient space only (one base coordinate).  The distance
    to the graph is the true nearest-point distance, found per query point by
    12 Newton iterations on the foot-point equation; for the gentle profiles
    used here the focal distance is far outside the box, so the iteration is
    uniformly contractive.
    """
    L = extent

    def f(x):
        return sum(p[0](x) for p in profiles)

    def fp(x):
        return sum(p[1](x) for p in profiles)

    def fpp(x):
        return sum(p[2](x) for p in profiles)

    # Beyond the focal distance of the profile, the nearest-foot equation has
    # several roots; Newton runs from shifted starts and the closest foot wins.
    starts = (0.0, -0.2 * L, 0.2 * L)

    def d(*coords: np.ndarray) -> np.ndarray:
        if len(coords) != 2:
            raise ValueError("graph_pair_distance supports 2-d ambient boxes only")
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        xh = np.broadcast_to(coords[0], shape).astype(float)
        xv = np.broadcast_to(coords[1], shape).astype(float)

        dist_graph = None
        for shift in starts:
            # Foot point xi: (xi - xh) + f'(xi)(f(xi) - xv) = 0.
            xi = xh + shift
            for _ in range(12):
                g = (xi - xh) + fp(xi) * (f(xi) - xv)
                gp = 1.0 + fpp(xi) * (f(xi) - xv) + fp(xi) ** 2
                xi = xi - g / np.where(np.abs(gp) > 1e-12, gp, 1e-12)
            cand = np.sqrt((xh - xi) ** 2 + (xv - f(xi)) ** 2)
            dist_graph = cand if dist_graph is None else np.minimum(dist_graph, cand)

        above = xv >= f(xh)
        dist_seam = np.where(above, 0.5 * L - xv, xv + 0.5 * L)
        return np.where(above, np.minimum(dist_graph, dist_seam), -np.minimum(dist_graph, dist_seam))

    return d
