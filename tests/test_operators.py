import ast
from pathlib import Path

import numpy as np
import pytest

from acflow import Grid, ParabolicCylinder, ScalarField, Trajectory
from acflow.grid import window_weights
from acflow.levelset import dyadic_radii
from acflow.operators import (ball_mask, gradient_values, integrate_values, laplacian_values,
                              spectrum)
from acflow.solver import SCHEMES

from conftest import frames_at, standing_wave


def mass(traj):
    """Space-time quadrature of a trajectory's frames over the whole box."""
    return integrate_values(traj.grid, traj, lambda k, frame: frame.values, [None])[0]


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


def _name_loads(tree: ast.Module, name: str) -> list[int]:
    """Lines that load ``name``: a bare read, an attribute ``x.name`` or
    ``from m import name``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)):
            lines.append(node.lineno)
    return lines


# The one time rule of every time integral is grid.window_weights, which is
# built on trapezoid_weights; the per-step dissipation integral of
# FlowAudit.dissipation_defect goes through it too.
_TRAPEZOID_USERS = ("grid.py",)


def test_trapezoid_weights_is_loaded_only_by_the_time_rule():
    package = Path(__file__).resolve().parents[1] / "src" / "acflow"
    loads = {p.name: _name_loads(ast.parse(p.read_text(encoding="utf-8")), "trapezoid_weights")
             for p in sorted(package.glob("*.py"))}
    found = [f"{name}:{line}" for name, lines in loads.items() if name not in _TRAPEZOID_USERS
             for line in lines]
    assert not found, f"trapezoid_weights outside {' and '.join(_TRAPEZOID_USERS)}: {', '.join(found)}"
    assert all(loads[name] for name in _TRAPEZOID_USERS)


def test_name_guard_sees_every_way_to_load_a_name():
    for source in ["from .grid import trapezoid_weights", "from .grid import (Grid,\n trapezoid_weights)",
                   "trapezoid_weights(3, 0.1)", "grid.trapezoid_weights(3, 0.1)",
                   "w = [trapezoid_weights]"]:
        assert _name_loads(ast.parse(source), "trapezoid_weights"), source
    assert not _name_loads(ast.parse('def trapezoid_weights(n, dt): pass\n'
                                     '__all__ = ["trapezoid_weights"]'), "trapezoid_weights")


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
    g = Grid(dim=2, extent=2.0, points=64)
    ones = lambda t: ScalarField(grid=g, values=np.ones(g.shape), epsilon=0.1, time=t)
    traj = Trajectory(frames=tuple(ones(0.1 * i) for i in range(6)), dt_sample=0.1)
    # area 4, time window 0.5
    assert mass(traj) == pytest.approx(4.0 * 0.5, rel=1e-12)


def test_integrate_disk_area_first_order():
    g = Grid(dim=2, extent=2.0, points=256)
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.5)
    area = integrate_values(g, frames_at(g, [0.0]), lambda k, f: np.ones(g.shape), [region])[0]
    assert abs(area - np.pi * 0.25) < 4 * g.spacing


def test_integrate_odd_density_over_symmetric_ball_vanishes():
    g = Grid(dim=2, extent=2.0, points=128)
    X, Y = g.dense_coords()
    region = ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.0, radius=0.5)
    mask = ball_mask(g, (0.0, 0.0), 0.5)
    odd_part = (integrate_values(g, frames_at(g, [0.0]), lambda k, f: X + 100.0, [region])[0]
                - 100.0 * np.sum(mask) * g.cell_volume)
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
        integrate_values(g, frames_at(g, [0.0]), lambda k, f: np.ones(g.shape), [region])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integrate_is_linear_in_density(seed):
    rng = np.random.default_rng(seed)
    g = Grid(dim=1, extent=2.0, points=64)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    c = float(rng.standard_normal())
    box = lambda values: integrate_values(g, frames_at(g, [0.0]), lambda k, f: values, [None])[0]
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


def test_integrate_values_builds_each_needed_slice_once():
    # two cylinders whose windows overlap in the middle samples and leave the
    # first and last samples out: one pass builds each needed slice once, in
    # time order, and every region gets its one-region mass bit for bit
    g = Grid(dim=2, extent=2.0, points=32)
    rng = np.random.default_rng(5)
    times = 0.01 * np.arange(9)
    slices = rng.random((len(times),) + g.shape)
    regions = [ParabolicCylinder(center_space=(0.0, 0.0), center_time=0.03, radius=0.15),
               ParabolicCylinder(center_space=(0.5, -0.25), center_time=0.05, radius=0.15),
               None]
    built = []

    def density_at(k, frame):
        built.append(k)
        return slices[k]

    masses = integrate_values(g, frames_at(g, times), density_at, regions[:2])
    assert built == [1, 2, 3, 4, 5, 6, 7]
    for region, mass in zip(regions, masses):
        assert mass == integrate_values(g, frames_at(g, times), lambda k, f: slices[k],
                                        [region])[0]
    whole = integrate_values(g, frames_at(g, times), lambda k, f: slices[k], [None])[0]
    assert whole == pytest.approx(np.sum(slices[1:-1]) * g.cell_volume * 0.01
                                  + 0.5 * np.sum(slices[[0, -1]]) * g.cell_volume * 0.01,
                                  rel=1e-12)


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
    square = lambda k, frame: frame.values ** 2
    streamed = integrate_values(g, (f for f in traj.frames), square, [region, None])
    assert streamed == integrate_values(g, traj, square, [region, None])
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
        integrate_values(g, iter(traj.frames), lambda k, frame: built.append(k), [region])
    assert built == []
    with pytest.raises(ValueError, match="no samples"):
        integrate_values(g, iter(()), lambda k, frame: frame.values, [None])
