import ast
from pathlib import Path

import numpy as np
import pytest

from acflow import Grid, ParabolicCylinder, ScalarField, Trajectory
from acflow.grid import time_integral, window_weights
from acflow.levelset import dyadic_radii, good_bad_partitions
from acflow.operators import (ball_mask, gradient_values, integrate_values, laplacian_values,
                              spectrum)
from acflow.solver import SCHEMES

from conftest import frames_at, standing_wave


def whole_box(grid, center_time):
    """The cylinder of radius extent/2 about the origin at ``center_time``:
    on a 1-D grid its closed ball is the whole periodic box."""
    assert grid.dim == 1
    return ParabolicCylinder(center_space=(0.0,), center_time=center_time,
                             radius=0.5 * grid.extent)


def mass(traj):
    """Space-time quadrature of a 1-D trajectory's frames over the whole box,
    in the :func:`whole_box` cylinder about the middle of the run, whose
    window holds every sample."""
    times = traj.times
    region = whole_box(traj.grid, 0.5 * (times[0] + times[-1]))
    assert len(window_weights(times, *region.time_window, traj.dt_sample)[0]) == len(traj)
    return integrate_values(traj.grid, traj, lambda frame: frame.values, [region])[0]


# a slice held over two samples 2^-3 apart, both inside the time window of
# every cylinder about t = 0 below
HELD_TIMES = (0.0, 0.125)


def spatial_mass(grid, density, region):
    """The mass of one slice's ``density`` over the ball of ``region``, a
    cylinder about t = 0: its mass over the slice held at ``HELD_TIMES``,
    divided (exactly) by their interval."""
    held = frames_at(grid, HELD_TIMES)
    return integrate_values(grid, held, lambda f: density, [region])[0] / HELD_TIMES[1]


def test_gradient_of_single_mode_matches_analytic():
    g = Grid(dim=1, extent=1.0, points=256)
    x = g.axis()
    (dx,) = gradient_values(g, np.sin(2 * np.pi * x))
    assert np.max(np.abs(dx - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12


def test_gradient_of_constant_is_zero():
    g = Grid(dim=2, extent=1.0, points=32)
    for comp in gradient_values(g, np.full(g.shape, 0.7)):
        assert np.max(np.abs(comp)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("eps_over_h", [8, 16])
def test_gradient_of_layer_profile_resolved(eps_over_h):
    g = Grid(dim=1, extent=2.0, points=2048)
    eps = eps_over_h * g.spacing
    wave = standing_wave(g, eps)
    (dx,) = gradient_values(g, wave.values)
    x = g.axis()
    # analytic derivative of the studied layer, away from the companion seam
    inner = np.abs(x) <= 0.25 * g.extent
    exact = (1.0 / np.cosh(x / eps)) ** 2 / eps
    assert np.max(np.abs(dx[inner] - exact[inner])) < 1e-8


def _full_wavenumbers(grid, zero_nyquist):
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    if zero_nyquist:
        k1[grid.points // 2] = 0.0
    out = []
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.points
        out.append(k1.reshape(shape))
    return out


def complex_gradient(grid, values):
    """Reference: the full complex-FFT gradient, Nyquist zeroed on every axis."""
    vhat = np.fft.fftn(values)
    out = np.empty((grid.dim,) + grid.shape)
    for ax, k in enumerate(_full_wavenumbers(grid, zero_nyquist=True)):
        out[ax] = np.fft.ifftn(1j * k * vhat).real
    return out


def complex_laplacian(grid, values):
    """Reference: the full complex-FFT Laplacian, Nyquist kept."""
    k2 = sum(k * k for k in _full_wavenumbers(grid, zero_nyquist=False))
    return np.fft.ifftn(-k2 * np.fft.fftn(values)).real


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 32), (3, 16)])
def test_real_spectral_path_matches_complex_oracle(dim, points):
    g = Grid(dim=dim, extent=1.3, points=points)
    rng = np.random.default_rng(dim)
    # white noise excites every mode, odd and Nyquist ones included; add a
    # strong Nyquist mode along each axis on top
    values = rng.standard_normal(g.shape)
    for x in g.coords():
        values = values + 3.0 * np.cos(np.pi * x / g.spacing)
    grad, grad_ref = gradient_values(g, values), complex_gradient(g, values)
    lap, lap_ref = laplacian_values(g, values), complex_laplacian(g, values)
    assert np.max(np.abs(grad - grad_ref)) <= 1e-13 * np.max(np.abs(grad_ref))
    assert np.max(np.abs(lap - lap_ref)) <= 1e-13 * np.max(np.abs(lap_ref))


@pytest.mark.parametrize("dim, points", [(2, 512), (3, 48)])
def test_spectrum_is_numpys_rfftn_in_a_fresh_array(dim, points):
    # the axis passes run in one output array: the rfft pass, then one
    # in-place complex pass per leading axis (two of them in 3-D)
    g = Grid(dim=dim, extent=1.3, points=points)
    values = np.random.default_rng(points).standard_normal(g.shape)
    first, second = spectrum(g, values), spectrum(g, values)
    assert np.array_equal(first, np.fft.rfftn(values, s=g.shape, axes=tuple(range(dim))))
    assert first.shape == g.shape[:-1] + (points // 2 + 1,)
    assert first.dtype == np.complex128
    assert first.flags.c_contiguous and first.flags.writeable
    assert not np.shares_memory(first, second)


def _fft_loads(tree: ast.Module) -> list[int]:
    """Lines that load ``numpy.fft``: ``np.fft`` through any alias of numpy,
    ``import numpy.fft`` and ``from numpy import fft`` / ``from numpy.fft import ...``."""
    numpy_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft" and (
                isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.fft")
                or (node.module == "numpy" and any(a.name == "fft" for a in node.names))):
            lines.append(node.lineno)
    return lines


def test_numpy_fft_is_loaded_only_in_operators():
    package = Path(__file__).resolve().parents[1] / "src" / "acflow"
    found = [f"{p.name}:{line}" for p in sorted(package.glob("*.py")) if p.name != "operators.py"
             for line in _fft_loads(ast.parse(p.read_text(encoding="utf-8")))]
    assert not found, f"numpy.fft outside operators.py: {', '.join(found)}"
    assert _fft_loads(ast.parse((package / "operators.py").read_text(encoding="utf-8")))


def test_fft_guard_sees_every_way_to_load_numpy_fft():
    for source in ["import numpy as np\nnp.fft.rfftn(x)", "import numpy\nnumpy.fft.fftn(x)",
                   "import numpy.fft", "from numpy import fft", "from numpy.fft import rfftn"]:
        assert _fft_loads(ast.parse(source)), source
    assert not _fft_loads(ast.parse("import numpy as np\nnp.linalg.norm(x)\nfft = 1"))


def _scheme_names(tree: ast.Module) -> list[int]:
    """Lines that pick a time-stepping scheme: a ``scheme=`` keyword or a
    string constant from ``solver.SCHEMES``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.keyword) and node.arg == "scheme"
                  or isinstance(node, ast.Constant) and node.value in SCHEMES)


def test_every_flow_steps_the_default_scheme():
    # every run steps cnab2, SolverConfig's default; the other schemes are
    # named only in solver.py (and by the benchmark's step probes)
    package = Path(__file__).resolve().parents[1] / "src" / "acflow"
    found = [f"{p.name}:{line}" for p in sorted(package.glob("*.py")) if p.name != "solver.py"
             for line in _scheme_names(ast.parse(p.read_text(encoding="utf-8")))]
    assert not found, f"a scheme named outside solver.py: {', '.join(found)}"
    for source in ["SolverConfig(dt=dt, t_end=t, scheme=name)", "x = 'explicit-rk2'",
                   "{'scheme': 'semi-implicit-cnab2'}"]:
        assert _scheme_names(ast.parse(source)), source
    assert not _scheme_names(ast.parse("SolverConfig(dt=dt, t_end=t)\nscheme = 'cnab2'"))


# numpy's BLAS contractions.  After a call, OpenBLAS's helper thread spins
# on another CPU; between the steps of a streamed flow that spin showed as
# CPU time with no work behind it.  np.linalg stays allowed: the excess-decay
# fit solves its small normal equations with it.
_BLAS_CALLS = frozenset({"tensordot", "dot", "matmul", "einsum", "inner"})


def _blas_uses(tree: ast.Module) -> list[int]:
    """Lines that use a BLAS contraction: ``np.<name>`` through any alias of
    numpy, ``from numpy import <name>``, or the ``@`` operator."""
    numpy_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _BLAS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names
                or isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(a.name in _BLAS_CALLS for a in node.names)
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            lines.append(node.lineno)
    return lines


def test_no_module_calls_a_blas_contraction():
    package = Path(__file__).resolve().parents[1] / "src" / "acflow"
    found = [f"{p.name}:{line}" for p in sorted(package.glob("*.py"))
             for line in _blas_uses(ast.parse(p.read_text(encoding="utf-8")))]
    assert not found, f"BLAS contraction in the library: {', '.join(found)}"


def test_blas_guard_sees_every_way_to_call_a_contraction():
    for source in ["import numpy as np\nnp.tensordot(e, g, axes=(0, 0))",
                   "import numpy\nnumpy.dot(a, b)", "import numpy as np\nnp.matmul(a, b)",
                   "import numpy as np\nnp.einsum('i,i...', e, g)",
                   "import numpy as np\nnp.inner(a, b)", "from numpy import dot",
                   "from numpy import (inner,\n tensordot)", "c = a @ b", "a @= b"]:
        assert _blas_uses(ast.parse(source)), source
    assert not _blas_uses(ast.parse("import numpy as np\nnp.linalg.solve(A, b)\n"
                                    "np.linalg.norm(e)\nnp.sum(a * b)\ndot = 1"))


# functools.cached_property holds one lock per property, shared by every
# instance, on Python < 3.12: flows stepped on separate threads waited on each
# other's frame bundles.  A test that blocks one thread inside a bundle would
# pass on 3.12 even with the lock back, so this guard is the check that holds
# on every version.
def _cached_property_uses(tree: ast.Module) -> list[int]:
    """Lines that import or use ``functools.cached_property``: ``from
    functools import cached_property`` (under any alias), or the attribute
    ``cached_property`` of anything, as ``functools.cached_property`` is
    reached through any alias of the module."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(a.name == "cached_property" for a in node.names)
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"):
            lines.append(node.lineno)
    return lines


def test_no_module_uses_cached_property():
    package = Path(__file__).resolve().parents[1] / "src" / "acflow"
    found = [f"{p.name}:{line}" for p in sorted(package.glob("*.py"))
             for line in _cached_property_uses(ast.parse(p.read_text(encoding="utf-8")))]
    assert not found, f"functools.cached_property in the library: {', '.join(found)}"


def test_cached_property_guard_sees_every_way_to_use_it():
    for source in ["from functools import cached_property",
                   "from functools import (partial,\n cached_property as cp)",
                   "import functools\nclass B:\n    @functools.cached_property\n"
                   "    def g(self): pass",
                   "import functools as ft\nx = ft.cached_property(f)"]:
        assert _cached_property_uses(ast.parse(source)), source
    assert not _cached_property_uses(ast.parse(
        "from functools import partial, lru_cache\nclass _cached: pass\n"
        "class B:\n    @_cached\n    def g(self): pass\ncached_property = 1"))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nyquist_mode_has_zero_first_derivative(dim):
    g = Grid(dim=dim, extent=1.0, points=16)
    last = g.coords()[-1]  # the half-spectrum axis of the real transforms
    values = np.broadcast_to(np.cos(np.pi * last / g.spacing), g.shape)
    assert np.max(np.abs(gradient_values(g, values))) < 1e-12
    assert np.max(np.abs(laplacian_values(g, values))) > 1.0


def test_laplacian_single_mode_and_linearity():
    g = Grid(dim=1, extent=1.0, points=256)
    x = g.axis()
    u1 = np.sin(2 * np.pi * x)
    u2 = np.cos(6 * np.pi * x)
    lap = laplacian_values(g, 3 * u1 + u2)
    exact = -3 * (2 * np.pi) ** 2 * u1 - (6 * np.pi) ** 2 * u2
    assert np.max(np.abs(lap - exact)) < 1e-9


def test_laplacian_of_constant_is_zero():
    g = Grid(dim=3, extent=1.0, points=16)
    assert np.max(np.abs(laplacian_values(g, np.ones(g.shape)))) < 1e-13


def test_integrate_constant_over_box_with_time_window():
    g = Grid(dim=1, extent=2.0, points=64)
    ones = lambda t: ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1, time=t)
    traj = Trajectory(frames=tuple(ones(0.1 * i) for i in range(6)), dt_sample=0.1)
    # length 2, time window 0.5
    assert mass(traj) == pytest.approx(2.0 * 0.5, rel=1e-12)


def test_integrate_disk_area_first_order():
    g = Grid(dim=2, extent=2.0, points=256)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.5)
    area = spatial_mass(g, np.ones(g.shape), region)
    assert abs(area - np.pi * 0.25) < 4 * g.spacing


def test_integrate_odd_density_over_symmetric_ball_vanishes():
    g = Grid(dim=2, extent=2.0, points=128)
    X, Y = g.dense_coords()
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.5)
    mask = ball_mask(g, (0.0, 0.0), 0.5)
    odd_part = spatial_mass(g, X + 100.0, region) - 100.0 * np.sum(mask) * g.cell_volume
    assert abs(odd_part) < 1e-12


@pytest.mark.parametrize("center_index", [(0, 0), (128, 128), (37, 201)])
def test_ball_mask_is_closed_and_symmetric_on_dyadic_radii(center_index):
    # the rough excess-decay grid, whose dyadic radii are 64, 32, ..., 2
    # spacings: every lattice point at distance exactly r is inside
    grid = Grid(dim=2, extent=1.28, points=256)
    x = grid.axis()
    for r in dyadic_radii(grid.extent, grid.spacing):
        k = round(r / grid.spacing)
        assert k * grid.spacing == pytest.approx(r, rel=1e-14)
        mask = ball_mask(grid, tuple(x[i] for i in center_index), r)
        m = np.roll(mask, [-i for i in center_index], axis=(0, 1))  # centre at index 0
        assert np.array_equal(m, np.roll(m[::-1, :], 1, axis=0))
        assert np.array_equal(m, np.roll(m[:, ::-1], 1, axis=1))
        assert np.array_equal(m, m.T)
        i = np.arange(-k, k + 1)
        assert np.sum(mask) == np.sum(i[:, None] ** 2 + i[None, :] ** 2 <= k * k)


def test_integrate_rejects_oversized_ball():
    g = Grid(dim=2, extent=1.0, points=32)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.6)
    with pytest.raises(ValueError):
        spatial_mass(g, np.ones(g.shape), region)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integrate_is_linear_in_density(seed):
    rng = np.random.default_rng(seed)
    g = Grid(dim=1, extent=2.0, points=64)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    c = float(rng.standard_normal())
    box = lambda values: spatial_mass(g, values, whole_box(g, 0.0))
    assert box(a + c * b) == pytest.approx(box(a) + c * box(b), rel=1e-12, abs=1e-12)


def test_integrate_additive_over_disjoint_time_windows():
    g = Grid(dim=1, extent=2.0, points=64)
    rng = np.random.default_rng(3)
    frames = tuple(
        ScalarField(grid=g, values=rng.standard_normal(64) + 2.0, epsilon=0.1, time=0.25 * i)
        for i in range(9)
    )
    traj = Trajectory(frames=frames, dt_sample=0.25)
    # [0,1] and [1,2] share only the t=1 sample; trapezoid masses add exactly
    def window_mass(lo, hi):
        idx, _ = window_weights(traj.times, lo, hi, traj.dt_sample)
        return mass(Trajectory(frames=tuple(traj.frames[i] for i in idx), dt_sample=0.25))

    w1 = window_mass(0.0, 1.0)
    w2 = window_mass(1.0, 2.0)
    w = mass(traj)
    assert w == pytest.approx(w1 + w2, rel=1e-12)
    # the whole-box sum of the trapezoid rule
    box_sums = [np.sum(f.values) * g.cell_volume for f in frames]
    weights = np.full(len(frames), 0.25)
    weights[[0, -1]] = 0.125
    assert w == pytest.approx(np.dot(weights, box_sums), rel=1e-12)


def test_integrate_values_builds_each_needed_slice_once():
    # two cylinders whose windows overlap in the middle samples and leave the
    # first and last samples out: one pass builds each needed slice once, in
    # time order, and every region gets its one-region mass bit for bit
    g = Grid(dim=2, extent=2.0, points=32)
    rng = np.random.default_rng(5)
    times = 0.01 * np.arange(9)
    slices = rng.random((len(times),) + g.shape)
    regions = [ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.03, radius=0.15),
               ParabolicCylinder(center_space=(0.5, -0.25), center_time=0.05, radius=0.15)]
    frames, built = frames_at(g, times, slices), []

    def density_at(frame):
        built.append(frame.time)
        return frame.values

    masses = integrate_values(g, frames, density_at, regions)
    assert built == times[1:8].tolist()
    for region, mass in zip(regions, masses):
        assert mass == integrate_values(g, frames, lambda f: f.values, [region])[0]


def random_traj(grid, n, dt, seed):
    rng = np.random.default_rng(seed)
    return Trajectory(frames=tuple(ScalarField(grid=grid, values=rng.random(grid.shape),
                                               epsilon=0.1, time=dt * i) for i in range(n)),
                      dt_sample=dt)


@pytest.mark.parametrize("radius, inside", [(0.05, 1), (0.3, 9)])
def test_integrate_values_of_a_stream_equals_its_stored_trajectory(radius, inside):
    # a window holding one sample (r^2 = 0.0025, under half the interval)
    # and one holding the whole run; a generator of frames, read once as it
    # arrives, gives the stored trajectory's masses and the oracle's bit for bit
    g = Grid(dim=2, extent=1.0, points=32)
    traj = random_traj(g, 9, 0.01, seed=11)
    region = ParabolicCylinder(center_space=(0.1, -0.2), center_time=0.04, radius=radius)
    square = lambda frame: frame.values ** 2
    streamed = integrate_values(g, (f for f in traj.frames), square, [region])
    assert streamed == integrate_values(g, traj, square, [region])
    idx, weights = window_weights(traj.times, *region.time_window, traj.dt_sample)
    assert len(idx) == inside
    mask = ball_mask(g, region.center_space, radius)
    spatial = [float(np.sum((traj[i].values ** 2)[mask]) * g.cell_volume) for i in idx]
    assert streamed[0] == float(np.sum(np.array(spatial) * weights))


def test_integrate_values_rejects_an_empty_window_of_a_stream():
    # samples at 0, ..., 0.08 and a window [0.99, 1.01]: no density is built,
    # and the empty window raises once the stream has ended
    g = Grid(dim=2, extent=1.0, points=32)
    traj = random_traj(g, 9, 0.01, seed=12)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=1.0, radius=0.1)
    built = []
    with pytest.raises(ValueError, match="no frames inside time window"):
        integrate_values(g, iter(traj.frames), lambda frame: built.append(frame), [region])
    assert built == []
    with pytest.raises(ValueError, match="two samples or more, got 0"):
        integrate_values(g, iter(()), lambda frame: frame.values, [region])


def test_a_single_sample_has_no_time_integral():
    # the time rule needs a sampling interval: two samples or more integrate
    # by the trapezoid rule, and one sample is an error wherever it arrives
    assert time_integral([0.0, 0.5, 1.0], [1.0, 2.0, 3.0]) == 0.25 + 1.0 + 0.75
    g = Grid(dim=2, extent=1.0, points=32)
    frames = frames_at(g, [0.0])
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.3)
    for call in (lambda: time_integral([0.0], [1.0]),
                 lambda: time_integral([0.0], {0: 1.0}, (-0.1, 0.1)),
                 lambda: integrate_values(g, frames, lambda f: f.values, [region]),
                 lambda: good_bad_partitions(frames, [1.0], band=0.05)):
        with pytest.raises(ValueError, match="two samples or more, got 1"):
            call()
    for dt_sample in (0.1, 0.0):
        with pytest.raises(ValueError, match="two frames or more, got 1"):
            Trajectory(frames=tuple(frames), dt_sample=dt_sample)
