"""Level-set graphs, the inverse-profile distance field, maximal functions,
the good/bad partition, heat-flow comparison and the excess-decay fit.

Level sets of an intermediate value ``s`` are extracted column by column
over the base lattice (all axes but the last).  A column is valid when the
search window contains exactly one crossing; otherwise it is masked, never
filled.

The good/bad partition (:func:`good_bad_partitions`) reads its flow twice: a
tilt pass builds the maximal field once, and one more pass splits the layer at
every threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import FrameBundle, Hyperplane, _tilt_integrand, height_excess
from .grid import (Grid, ParabolicCylinder, ScalarField, Trajectory, time_integral,
                   window_weights)
from .operators import ball_mask, from_spectrum, spectrum, symbols, within_radius
from .solver import CLAMP

__all__ = [
    "GraphExtractionError",
    "LevelSetGraph",
    "distance_function",
    "distance_gradient_max",
    "extract_graph",
    "GoodBadPartition",
    "good_bad_partitions",
    "partition_good_bad",
    "heat_compare",
    "ExcessDecayReport",
    "excess_decay_ratio",
]


class GraphExtractionError(ValueError):
    """No usable graph: every column invalid, or validity below threshold."""


# ---------------------------------------------------------------------------
# Inverse-profile distance field
# ---------------------------------------------------------------------------


def distance_function(field: ScalarField) -> ScalarField:
    """``z = eps * artanh(u)`` (clamped): vertical position within the layer.

    With non-positive discrepancy, ``|grad z| <= 1``; the deviation above 1
    measures positive discrepancy excursions.
    """
    u = np.clip(field.values, -CLAMP, CLAMP)
    return field.with_values(field.epsilon * np.arctanh(u))


def distance_gradient_max(field: ScalarField) -> float:
    """Max of the centered-difference ``|grad z|`` over ``{|u| <= 0.999}``.

    Finite differences keep the saturated plateaus (where the clamp kinks z)
    from polluting the transition band.
    """
    z = distance_function(field).values
    grid = field.grid
    h2 = 2.0 * grid.spacing
    gsq = np.zeros(grid.shape)
    for ax in range(grid.dim):
        gsq += ((np.roll(z, -1, axis=ax) - np.roll(z, 1, axis=ax)) / h2) ** 2
    mask = np.abs(field.values) <= 0.999
    if not np.any(mask):
        return 0.0
    return float(np.sqrt(np.max(gsq[mask])))


# ---------------------------------------------------------------------------
# Graph extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSetGraph:
    """Heights ``h(x_base, t)`` of one level set over the base lattice."""

    times: np.ndarray
    heights: np.ndarray  # (n_times, *base.shape)
    valid: np.ndarray  # bool, same shape
    base: Grid  # the lattice of every axis but the last

    @property
    def validity_fraction(self) -> float:
        return float(np.mean(self.valid))


def _cubic(stencil: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolant through ``stencil[:, k]`` at local nodes
    ``k = 0..3``, evaluated at local coordinates ``z`` (one per row)."""
    z0, z1, z2, z3 = z - 0.0, z - 1.0, z - 2.0, z - 3.0
    b0 = z1 * z2 * z3 / -6.0
    b1 = z0 * z2 * z3 / 2.0
    b2 = z0 * z1 * z3 / -2.0
    b3 = z0 * z1 * z2 / 6.0
    return stencil[:, 0] * b0 + stencil[:, 1] * b1 + stencil[:, 2] * b2 + stencil[:, 3] * b3


def _lagrange_roots(stencil: np.ndarray, targets: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Solve cubic-interpolated crossings, vectorized over columns.

    ``stencil`` holds 4 node values per column (interpolation nodes at local
    coordinates 0..3), ``targets`` the level, and ``[lo, hi]`` the bracket in
    local coordinates.  Bisection localizes the root, Newton polishes it.
    """

    def cubic_d1(z: np.ndarray) -> np.ndarray:
        z0, z1, z2, z3 = z - 0.0, z - 1.0, z - 2.0, z - 3.0
        b0 = (z1 * z2 + z1 * z3 + z2 * z3) / -6.0
        b1 = (z0 * z2 + z0 * z3 + z2 * z3) / 2.0
        b2 = (z0 * z1 + z0 * z3 + z1 * z3) / -2.0
        b3 = (z0 * z1 + z0 * z2 + z1 * z2) / 6.0
        return (stencil[:, 0] * b0 + stencil[:, 1] * b1
                + stencil[:, 2] * b2 + stencil[:, 3] * b3)

    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    fa = _cubic(stencil, a) - targets
    for _ in range(52):
        mid = 0.5 * (a + b)
        fm = _cubic(stencil, mid) - targets
        go_left = (fa * fm) <= 0.0
        b = np.where(go_left, mid, b)
        a = np.where(go_left, a, mid)
        fa = np.where(go_left, fa, fm)
    root = 0.5 * (a + b)
    for _ in range(3):
        f = _cubic(stencil, root) - targets
        d = cubic_d1(root)
        safe = np.abs(d) > 1e-300
        update = np.where(safe, f / np.where(safe, d, 1.0), 0.0)
        root = np.clip(root - update, lo, hi)
    return root


def extract_graph(frames: Iterable[ScalarField], level: float) -> LevelSetGraph:
    """Per-column single-crossing heights of ``{u = level}``.

    ``frames`` are the samples of one flow on one grid, in time order: a
    :class:`Trajectory`, or a stream such as :func:`acflow.solver.sampled`,
    whose frames are read as they arrive and not kept.  A frame on another
    grid is an error, and a frame over a 1-D box (whose base is a single
    point) is rejected before any column is read.  The search window
    ``|x_vertical| <= extent/4`` (a quarter box) enforces the single-layer
    hypothesis geometrically.
    Columns with zero or multiple crossings are marked invalid; an
    all-invalid extraction, or one with no frame, is an error.  Crossings
    are refined on the column's cubic interpolant to
    ``|u(h) - level| <= 1e-12``.
    """
    grid = None
    times, heights, valid = [], [], []
    for f in frames:
        if grid is None:
            grid = f.grid
            if grid.dim < 2:
                raise GraphExtractionError(
                    "a 1-D box has a single-point base, over which there is no graph")
            base = Grid(dim=grid.dim - 1, extent=grid.extent, points=grid.points)
            axis = grid.axis()
            in_win = np.abs(axis) <= 0.25 * grid.extent + 1e-12
            w0 = int(np.argmax(in_win))
            w1 = w0 + int(np.sum(in_win))  # window is a contiguous coordinate range
            m = w1 - w0
            if m < 4:
                raise GraphExtractionError("search window too narrow for cubic interpolation")
            n_cols = int(np.prod(base.shape))
        elif f.grid != grid:
            raise ValueError(f"frame at t={f.time:g} is not on the first frame's grid")
        u = f.values.reshape(n_cols, grid.points)
        w = u[:, w0:w1] - level
        node_zero = w == 0.0
        sign_change = (w[:, :-1] * w[:, 1:]) < 0.0
        count = node_zero.sum(axis=1) + sign_change.sum(axis=1)
        ok = count == 1

        h_col = np.zeros(n_cols)
        # Exact node hits.
        hit = ok & node_zero.any(axis=1)
        if np.any(hit):
            idx = np.argmax(node_zero[hit], axis=1)
            h_col[hit] = axis[w0 + idx]
        # Interval crossings.
        cross = ok & ~node_zero.any(axis=1)
        if np.any(cross):
            j = np.argmax(sign_change[cross], axis=1)  # local index of left node
            q = np.clip(j - 1, 0, m - 4)  # stencil start, clamped at window edges
            rows = np.nonzero(cross)[0]
            stencil = np.empty((len(rows), 4))
            for off in range(4):
                stencil[:, off] = w[rows, q + off] + level
            lo = (j - q).astype(float)
            hi = lo + 1.0
            root = _lagrange_roots(stencil, np.full(len(rows), level), lo, hi)
            h_col[cross] = axis[w0 + q] + root * grid.spacing
        times.append(f.time)
        heights.append(h_col.reshape(base.shape))
        valid.append(ok.reshape(base.shape))
        # a streamed frame and its window arrays are not held while the
        # next frame is computed
        del f, u, w, node_zero, sign_change

    if not np.any(valid):  # also when there was no frame
        raise GraphExtractionError(
            f"no column has a single crossing of level {level} inside the window"
        )
    return LevelSetGraph(
        times=np.array(times),
        heights=np.stack(heights),
        valid=np.stack(valid),
        base=base,
    )


# ---------------------------------------------------------------------------
# Parabolic maximal function and the good/bad partition
# ---------------------------------------------------------------------------


def _maximal_field(hats: Sequence[np.ndarray], times: np.ndarray, grid: Grid,
                   radii: Sequence[float], power: int) -> np.ndarray:
    """Dyadic maximal function of g(time, *space) at every lattice point,
    from the half spectrum of each of its frames, ``hats[j] = spectrum(g[j])``.

    Masked ball sums are periodic convolutions (computed exactly by real
    transforms); each time window is weighted by :func:`window_weights`.
    """
    nt, dt = len(hats), times[1] - times[0]
    out = np.zeros((nt,) + grid.shape)
    # The ball is centred on lattice index 0 (coordinate -extent/2), the zero
    # shift of the circular convolution, so conv[j] is the ball mass around
    # lattice point j.
    origin = (-0.5 * grid.extent,) * grid.dim
    conv = np.empty_like(out)  # one buffer for every radius
    for r in radii:
        khat = spectrum(grid, ball_mask(grid, origin, r).astype(float))
        for j in range(nt):
            conv[j] = from_spectrum(grid, hats[j] * khat) * grid.cell_volume
        for i in range(nt):
            idx, weights = window_weights(times, times[i] - r * r, times[i] + r * r, dt)
            mass = sum(w * conv[k] for k, w in zip(idx, weights))
            np.maximum(out[i], mass / r**power, out=out[i])
    return out


def dyadic_radii(extent: float, spacing: float) -> list[float]:
    """Radii ``(extent/4) * 2^-k`` down to ``2 * spacing``."""
    r = 0.25 * extent
    out = []
    while r >= 2.0 * spacing:
        out.append(r)
        r *= 0.5
    if not out:
        raise ValueError("box too coarse for any dyadic radius >= 2 spacing")
    return out


@dataclass(frozen=True)
class GoodBadPartition:
    """The bad part of the layer region at one threshold: its lattice points
    over every frame, and the measured weak-L1 constant."""

    bad_points: int
    weak_l1_ratio: float


def good_bad_partitions(frames: Iterable[ScalarField], thresholds: Sequence[float],
                        band: float) -> list[GoodBadPartition]:
    """Good/bad split of ``{|u| < 1 - band}`` at each threshold of the
    ``r^-(n+2)`` maximal function, over the :func:`dyadic_radii`, of the tilt
    integrand against the vertical, plus the measured weak-L1 constant
    ``(bad-set Dirichlet mass) * threshold / (total tilt mass)``; the good
    set is the rest of the layer region.

    ``frames`` are the samples of one flow, two or more, in time order, read
    twice, one frame at a time: the tilt pass builds the maximal field and
    the tilt mass, and one more pass splits the layer at every threshold.  Pass a
    :class:`Trajectory`, or an object whose every ``iter()`` runs the flow
    again, so that no frame is stored; a one-shot iterator is an error.
    """
    if iter(frames) is frames:
        raise ValueError("good_bad_partitions reads its frames twice; "
                         "pass a Trajectory or a re-iterable replay, not an iterator")
    if not all(t > 0 for t in thresholds):
        raise ValueError("thresholds must be positive")
    # each frame's tilt integrand: its box sum, and its half spectrum,
    # transformed once for every radius
    times, tilt_sums, hats = [], [], []
    for frame in frames:
        grid = frame.grid
        tilt = _tilt_integrand(FrameBundle(frame), Hyperplane.vertical(grid.dim).normal)
        times.append(frame.time)
        tilt_sums.append(float(np.sum(tilt) * grid.cell_volume))
        hats.append(spectrum(grid, tilt))
    tilt_mass = time_integral(times, tilt_sums)  # fewer than two frames raise here
    del frame, tilt  # the last frame is not held beside the maximal field's stacks
    maximal = _maximal_field(hats, np.array(times), grid, dyadic_radii(grid.extent, grid.spacing),
                             power=grid.interface_dim + 2)
    del hats

    # per threshold: its bad points and each frame's bad Dirichlet mass; the
    # density is computed once per frame for every threshold, not kept from
    # the tilt pass, where holding it beside the maximal field raises the peak
    bad_points, masses = [0] * len(thresholds), [[] for _ in thresholds]
    for k, frame in enumerate(frames):
        layer = np.abs(frame.values) < 1.0 - band  # only the bad part of the layer region
        density = frame.epsilon * FrameBundle(frame).grad_sq
        for j, threshold in enumerate(thresholds):
            bad = maximal[k] >= threshold
            bad &= layer
            bad_points[j] += int(np.count_nonzero(bad))
            masses[j].append(float(np.sum(np.where(bad, density, 0.0)) * grid.cell_volume))
    return [GoodBadPartition(points, time_integral(times, sums) * threshold / tilt_mass
                             if tilt_mass > 0 else 0.0)
            for threshold, points, sums in zip(thresholds, bad_points, masses)]


def partition_good_bad(traj: Trajectory, threshold: float, band: float) -> GoodBadPartition:
    """The :func:`good_bad_partitions` split of one flow at one threshold."""
    return good_bad_partitions(traj, [threshold], band)[0]


# ---------------------------------------------------------------------------
# Heat-flow comparison and excess decay
# ---------------------------------------------------------------------------


def heat_compare(graph: LevelSetGraph, reference_initial: np.ndarray) -> float:
    """Relative space-time L2 distance between the extracted graph and the
    heat flow of a reference initial profile.

    The reference evolves by exact Fourier-mode decay on the periodic base;
    both sides are made mean-free.  A graph valid on fewer than 95% of its
    base points is an error.
    """
    if graph.validity_fraction < 0.95:
        raise GraphExtractionError(
            f"graph valid on {graph.validity_fraction:.1%} of base points < required 95%"
        )
    h = np.where(graph.valid, graph.heights, 0.0)
    h = h - np.mean(h)
    h0 = np.asarray(reference_initial, dtype=float)
    h0 = h0 - np.mean(h0)

    neg_k2 = symbols(graph.base).neg_k2
    h0_hat = spectrum(graph.base, h0)

    num = 0.0
    den = 0.0
    t0 = graph.times[0]
    for j, t in enumerate(graph.times):
        ref = from_spectrum(graph.base, h0_hat * np.exp(neg_k2 * (t - t0)))
        diff = (h[j] - ref)[graph.valid[j]]
        num += float(np.sum(diff**2))
        den += float(np.sum(ref[graph.valid[j]] ** 2))
    if den == 0.0:
        return math.sqrt(num)
    return math.sqrt(num / den)


@dataclass(frozen=True)
class ExcessDecayReport:
    """Best-fit plane and the contraction ratio of the height excess."""

    theta: float
    scale: float
    fitted_normal: tuple[float, ...]
    fitted_offset: float
    ratio: float  # E_fit(P_theta) / E_flat(P_1), both from height_excess
    height_excess_unit: float  # E_flat(P_1): height_excess about x_vertical = 0, radius scale
    layer_repulsion_value: float  # height_excess_unit / (eps/scale)^2
    normal_deviation: float
    tilt_constant: float  # normal_deviation / sqrt(height_excess_unit)

    def passes(self, k1: float) -> bool | None:
        """Contraction verdict, None when the layer-repulsion floor bites."""
        if self.layer_repulsion_value < k1:
            return None
        return self.ratio <= 0.5 * self.theta


def excess_decay_ratio(traj: Trajectory, theta: float, scale: float,
                       center_time: float) -> ExcessDecayReport:
    """Fit the plane minimizing the height excess over the shrunk cylinder
    about the origin at ``center_time`` and report how much the excess
    contracts.

    The fit is weighted linear least squares of the vertical coordinate on
    the base coordinates with weight ``eps |grad u|^2`` over ``P_theta``.
    The ratio is ``E_fit(P_theta) / E_flat(P_1)``: the :func:`height_excess`
    about the fitted plane over the cylinder of radius ``theta * scale``,
    against the one about ``{x_vertical = 0}`` over the cylinder of radius
    ``scale``, each normalised by its own ``r^(-n-4)``.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    grid = traj.grid
    n = grid.interface_dim
    c = (0.0,) * grid.dim
    shrunk = ParabolicCylinder(c, center_time, theta * scale)

    disp = np.stack(np.broadcast_arrays(*grid.displacement(c)))
    xv = disp[-1]
    base = disp[:-1]

    # The fit runs over a product cylinder (base ball x vertical slab): a
    # round window would couple the base coordinate to the layer thickness
    # through its tilted boundary and bias the slope at order (eps/r)^2.
    # The slab always spans several layer widths so the profile is not cut.
    base_r2 = np.sum(base**2, axis=0)
    slab = max(theta * scale, 6.0 * traj.epsilon)
    fit_mask = within_radius(base_r2, theta * scale) & (np.abs(xv) <= slab)

    idx, weights = window_weights(traj.times, *shrunk.time_window, traj.dt_sample)
    if len(idx) < 2:
        raise ValueError("trajectory does not cover the cylinder time window")

    # Weighted least squares over the shrunk cylinder.
    p = grid.dim  # base coords + constant
    A = np.zeros((p, p))
    b = np.zeros(p)
    feats = [base[ax] for ax in range(n)] + [np.ones(grid.shape)]
    for i, tw in zip(idx.tolist(), weights.tolist()):
        w = np.where(fit_mask, traj.epsilon * FrameBundle(traj[i]).grad_sq, 0.0) * tw
        for a_i in range(p):
            b[a_i] += float(np.sum(w * feats[a_i] * xv))
            for b_i in range(a_i, p):
                A[a_i, b_i] += float(np.sum(w * feats[a_i] * feats[b_i]))
    A = A + np.triu(A, 1).T
    if np.linalg.cond(A) > 1e14:
        raise ValueError("degenerate excess-decay fit: no interface mass in the cylinder")
    coef = np.linalg.solve(A, b)
    slope, intercept = coef[:-1], coef[-1]

    norm = math.sqrt(1.0 + float(np.sum(slope**2)))
    normal = tuple(float(v) for v in np.append(-slope, 1.0) / norm)
    offset = float(intercept / norm)

    h_unit = height_excess(traj, Hyperplane.vertical(grid.dim),
                           ParabolicCylinder(c, center_time, scale))
    h_fit = height_excess(traj, Hyperplane(normal, offset), shrunk)
    eps_hat = traj.epsilon / scale
    deviation = float(np.linalg.norm(np.asarray(normal) - np.eye(grid.dim)[-1]))
    return ExcessDecayReport(
        theta=theta,
        scale=scale,
        fitted_normal=normal,
        fitted_offset=offset,
        ratio=h_fit / h_unit if h_unit > 0 else 0.0,
        height_excess_unit=h_unit,
        layer_repulsion_value=h_unit / eps_hat**2 if eps_hat > 0 else math.inf,
        normal_deviation=deviation,
        tilt_constant=deviation / math.sqrt(h_unit) if h_unit > 0 else 0.0,
    )
