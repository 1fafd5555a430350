"""Signed-distance constructions for well-prepared initial data.

The box is periodic, so a lone interface is impossible: flat-type data come
as a pair, the studied interface through the center of the box and an
oppositely oriented companion on the periodic seam, half a box away.  All
builders return callables suitable for :func:`acflow.solver.prepare_interface`
(distances that are 1-Lipschitz away from ridge points deep inside the
saturated phases); its slope probe is the check that rejects a field that
is not a distance in the transition band.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "circle_distance",
    "plane_pair_distance",
    "graph_pair_distance",
    "sine_mode",
    "graph_profile",
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


def sine_mode(amplitude: float, mode: int, extent: float,
              phase: float = 0.0) -> tuple[float, float, float]:
    """The profile ``amplitude * cos(2 pi mode x / extent + phase)`` as the
    numbers ``(amplitude, wavenumber, phase)``."""
    return amplitude, 2.0 * np.pi * mode / extent, phase


def graph_profile(modes: list[tuple[float, float, float]],
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``f, f', f''`` at ``x`` of the sum of :func:`sine_mode` profiles, with
    one cosine and one sine per mode."""
    f = fp = fpp = 0.0
    for amplitude, k, phase in modes:
        c = np.cos(k * x + phase)
        s = np.sin(k * x + phase)
        f = f + amplitude * c
        fp = fp - amplitude * k * s
        fpp = fpp - amplitude * k * k * c
    return f, fp, fpp


def graph_pair_distance(extent: float, modes: list[tuple[float, float, float]]) -> Callable:
    """Signed distance to the graph ``x_v = f(x_h)`` plus the seam pair, where
    ``f`` is the sum of the :func:`sine_mode` profiles ``modes``.

    Two-dimensional ambient space only (one base coordinate).  Each query
    point's foot on the graph comes from one Newton start at the vertical
    foot ``xi = x_h`` and at most 12 iterations of the foot-point equation,
    a point retiring when its iterate repeats exactly: every later
    iteration would recompute the same update, so the feet are those of a
    fixed 12 iterations.
    Nothing here certifies that this foot is the nearest one: a profile
    steep enough to bring its focal distance into the transition band can
    send the iteration to another root, and the slope probe of
    :func:`acflow.solver.prepare_interface` is the check that rejects the
    resulting field.
    """
    L = extent

    def d(*coords: np.ndarray) -> np.ndarray:
        if len(coords) != 2:
            raise ValueError("graph_pair_distance supports 2-d ambient boxes only")
        xh, xv = (np.asarray(c, dtype=float) for c in coords)
        f, fp, fpp = graph_profile(modes, xh)
        above = xv >= f
        # Foot point xi: (xi - xh) + f'(xi)(f(xi) - xv) = 0, iterated on the
        # flat indices ``live`` of the points whose iterate still moves.
        xh_flat, xv_flat, f, fp, fpp = (np.broadcast_to(a, above.shape).ravel()
                                        for a in (xh, xv, f, fp, fpp))
        xi = xh_flat.copy()
        f_foot = np.empty(xi.shape)
        live = np.arange(xi.size)
        xh_live, xv_live, xi_live = xh_flat, xv_flat, xi
        for _ in range(12):
            r = f - xv_live
            g = (xi_live - xh_live) + fp * r
            gp = 1.0 + fpp * r + fp ** 2
            step = xi_live - g / np.where(np.abs(gp) > 1e-12, gp, 1e-12)
            moved = step != xi_live
            f_foot[live[~moved]] = f[~moved]
            live, xh_live, xv_live, xi_live = (a[moved] for a in (live, xh_live, xv_live, step))
            xi[live] = xi_live
            f, fp, fpp = graph_profile(modes, xi_live)
        f_foot[live] = f
        dist_graph = np.sqrt((xh_flat - xi) ** 2 + (xv_flat - f_foot) ** 2).reshape(above.shape)

        dist_seam = np.where(above, 0.5 * L - xv, xv + 0.5 * L)
        return np.where(above, np.minimum(dist_graph, dist_seam), -np.minimum(dist_graph, dist_seam))

    return d
