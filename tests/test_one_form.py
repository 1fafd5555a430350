"""Every value of the package has one form.

A report is the fields of its dataclass, written by ``dataclasses.asdict``
(or ``astuple``), so no module defines a serialiser named ``as_dict`` or
``as_row`` that renames or reorders them.  A slice functional takes the
slice's :class:`~acflow.diagnostics.FrameBundle`, so no annotation admits
the union ``ScalarField | FrameBundle`` (in either order, as ``|`` or as
``Union[...]``).

A flow has one form: its entry in ``experiments._flows``, and only the
entry runs it.  So ``solver.march``, ``sampled`` and ``evolve`` are called
only by the methods of ``Flow`` and, inside ``solver.py``, by ``sampled``
and ``evolve``; and ``cli.py`` imports no data builder.

A verdict has one form too: only ``experiments.check`` builds a
``CheckResult``, and no string of ``tests/test_acceptance.py`` restates a
tolerance as a comparison with a number (``<= 0.35``, ``< 1``).  A run
reports its checks once, in ``verdict.json`` as ``asdict(CheckResult)``:
no other JSON report holds a ``checks`` list, or a check's name beside its
value.

A config has one form: an ``ExperimentConfig`` is built from ``source``,
the JSON object the loader accepted, and reads every other field from it,
so ``dataclasses.replace`` cannot set a field apart from its source; the
manifest writes the source back.
"""

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from acflow.experiments import check, config_from_dict, run_scenario

ROOT = Path(__file__).resolve().parents[1]

_SERIALISERS = frozenset({"as_dict", "as_row"})
_SECOND_FORM = frozenset({"ScalarField", "FrameBundle"})


def _union_members(node: ast.expr) -> set[str]:
    """The names a union annotation joins, or nothing for any other one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _union_members(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        parts = [node.left, node.right]
    elif (isinstance(node, ast.Subscript)
          and getattr(node.value, "id", getattr(node.value, "attr", None)) == "Union"):
        parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    else:
        return set()
    names = set()
    for part in parts:
        names |= _union_members(part) or {getattr(part, "id", getattr(part, "attr", None))}
    return names


def _annotations(tree: ast.Module) -> list[ast.expr]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            out += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                    + [args.vararg, args.kwarg] if a is not None and a.annotation is not None]
            out += [node.returns] if node.returns is not None else []
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def second_forms(tree: ast.Module, where: str) -> list[str]:
    """``where:line`` and what it holds, for every serialiser definition and
    every annotation that admits a field where a bundle is taken."""
    found = [f"{where}:{node.lineno} defines {node.name}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in _SERIALISERS]
    found += [f"{where}:{a.lineno} annotates {ast.unparse(a)}" for a in _annotations(tree)
              if _SECOND_FORM <= _union_members(a)]
    return found


def package_hits(find, package: Path = ROOT / "src" / "acflow") -> list[str]:
    """What ``find(tree, file name)`` finds in every module of ``package``."""
    return [hit for path in sorted(package.glob("*.py"))
            for hit in find(ast.parse(path.read_text(encoding="utf-8")), path.name)]


def test_no_module_keeps_a_second_form():
    found = package_hits(second_forms)
    assert not found, "a value with a second form: " + "; ".join(found)


def test_each_second_form_is_caught():
    source = ("class Report:\n"
              "    def as_dict(self):\n        return {}\n"
              "def as_row(record):\n    return {}\n"
              "def tilt(frame: ScalarField | FrameBundle, e) -> float:\n    return 0.0\n"
              "def energy(frame: 'FrameBundle | ScalarField | None'):\n    return 0.0\n"
              "def willmore(frame: Union[ScalarField, FrameBundle]):\n    return 0.0\n"
              "held: typing.Union[FrameBundle, ScalarField]\n"
              "def record(field: ScalarField) -> ScalarField | None:\n    return None\n"
              "def mass(bundle: FrameBundle, weight: np.ndarray | None = None):\n"
              "    return 0.0\n")
    found = second_forms(ast.parse(source), "m.py")
    # a union without both names, or a field alone, is not a second form
    assert {hit.split(" ", 1)[0] for hit in found} == {
        "m.py:2", "m.py:4", "m.py:6", "m.py:8", "m.py:10", "m.py:12"}
    assert len(found) == 6


def built_verdicts(tree: ast.Module, where: str) -> list[str]:
    """``where:line`` of every ``CheckResult(...)`` call outside ``experiments.check``."""
    allowed = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef)
               and (where, f.name) == ("experiments.py", "check") for node in ast.walk(f)}
    return [f"{where}:{node.lineno} builds a CheckResult" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"]


def test_only_check_builds_a_verdict():
    found = package_hits(built_verdicts)
    assert not found, "a second path to a verdict: " + "; ".join(found)


def test_each_second_verdict_path_is_caught():
    source = ("def check(name):\n    return CheckResult(name=name)\n"
              "def monotone_check(name):\n    return CheckResult(name)\n"
              "def outer():\n    def check():\n        return experiments.CheckResult()\n"
              "made = CheckResult()\n")
    found = built_verdicts(ast.parse(source), "experiments.py")
    assert {hit.split(" ", 1)[0] for hit in found} == {
        "experiments.py:4", "experiments.py:7", "experiments.py:8"}
    assert len(built_verdicts(ast.parse(source), "cli.py")) == 4  # no check elsewhere


_STATED_TOLERANCE = re.compile(r"(<=|>=|<|>)\s*[-+]?\.?\d")  # a comparison with a number


def stated_tolerances(tree: ast.Module, where: str) -> list[str]:
    """``where:line`` and the string, for every string constant that states
    a comparison with a number; a format spec such as ``{n:>2}`` is not one."""
    specs = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FormattedValue)
             and f.format_spec is not None for node in ast.walk(f.format_spec)}
    return [f"{where}:{node.lineno} states {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in specs and _STATED_TOLERANCE.search(node.value)]


def test_the_acceptance_gate_states_no_tolerance():
    path = ROOT / "tests" / "test_acceptance.py"
    found = stated_tolerances(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert not found, "a tolerance the gate restates: " + "; ".join(found)


def test_each_stated_tolerance_is_caught():
    source = ('f"defect ratio under dt halving = {c.value:.3f} <= 0.35"\n'
              'f"tensor form {t.value:.2%}, both <= 1%"\n"circle min ratio >=1"\n'
              'f"sweep ratio {s.value:.3f} < 1"\nf"ACCEPTANCE {number:>2} {title}: {ok}"\n'
              '"pick <n> of the x < y rows"\n')
    found = stated_tolerances(ast.parse(source), "m.py")
    assert {hit.split(" ", 1)[0] for hit in found} == {"m.py:1", "m.py:2", "m.py:3", "m.py:4"}
    assert len(found) == 4


_RUNS = frozenset({"march", "sampled", "evolve"})
_DATA_BUILDERS = re.compile(r"_initial$|^initial_field$|^prepare_interface$|^initial_data$")


def _calls_by_function(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """Every call of the module with the dotted name of the function or
    method that makes it (``""`` at module level)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                found.append((scope, child))
            visit(child, scope)

    visit(tree, "")
    return found


def _runs_its_flow(where: str, scope: str) -> bool:
    """Whether a run made in ``scope`` of module ``where`` is allowed: in a
    method of ``experiments.Flow``, or in ``solver.sampled`` or ``solver.evolve``."""
    if where == "experiments.py":
        return scope.startswith("Flow.")
    return where == "solver.py" and scope in ("sampled", "evolve")


def flows_outside_the_table(tree: ast.Module, where: str) -> list[str]:
    """``where:line`` of every ``march``, ``sampled`` or ``evolve`` call
    outside the methods of ``Flow`` and, in ``solver.py``, ``sampled`` and
    ``evolve``; and, in ``cli.py``, of every import of a data builder (a
    ``*_initial`` function, ``initial_field``, ``prepare_interface`` or the
    ``initial_data`` module)."""
    found = []
    for scope, call in _calls_by_function(tree):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name in _RUNS and not _runs_its_flow(where, scope):
            found.append(f"{where}:{call.lineno} calls {name} in {scope or 'the module'}")
    if where == "cli.py":
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.split(".")[-1] for a in node.names]
                names += [(node.module or "").split(".")[-1]] if isinstance(
                    node, ast.ImportFrom) else []
                found += [f"{where}:{node.lineno} imports {name}" for name in names
                          if _DATA_BUILDERS.search(name)]
    return found


def test_every_flow_runs_from_its_table_entry():
    found = package_hits(flows_outside_the_table)
    assert not found, "a flow run outside its table entry: " + "; ".join(found)


def test_each_flow_outside_the_table_is_caught():
    source = ("from .experiments import initial_field, load_config\n"
              "from .initial_data import circle_distance\n"
              "from . import initial_data\n"
              "from .solver import prepare_interface, sampled\n"
              "class Flow:\n    def __iter__(self):\n        yield from sampled(1, 2)\n"
              "    def steps(self):\n        yield from solver_mod.march(self.start(), 2)\n"
              "def sampled(field, cfg):\n    return march(field, cfg)\n"
              "def evolve(field, cfg):\n    return tuple(sampled(field, cfg))\n"
              "frames = solver.sampled(field, cfg)\n"
              "def run():\n    return _perturbed_initial(1, 2)\n"
              "def audit(initial, cfg):\n    return solver_mod.march(initial, cfg)\n"
              "def fit(flow):\n    return evolve(flow.start(), flow.config)\n"
              "class Audit:\n    def run(self):\n        return sampled(1, 2)\n")
    runs = {7, 9, 11, 13, 14, 18, 20, 23}
    found = flows_outside_the_table(ast.parse(source), "cli.py")
    assert {hit.split(" ", 1)[0] for hit in found} == {
        f"cli.py:{n}" for n in {1, 2, 3, 4} | runs}
    assert {hit.split(" ")[2] for hit in found if "calls" in hit} == {"march", "sampled", "evolve"}
    # in experiments.py the flow's own methods may run it; in solver.py
    # sampled may run march, and evolve sampled
    allowed = {"experiments.py": {7, 9}, "solver.py": {11, 13}}
    for where, lines in allowed.items():
        hits = {hit.split(" ", 1)[0] for hit in flows_outside_the_table(ast.parse(source), where)}
        assert hits == {f"{where}:{n}" for n in runs - lines}


_SMALL_WAVE = {
    "scenario": "standing-wave",
    "grid": {"dim": 1, "extent": 2.56, "points": 512},
    "epsilon": 0.05,
    "solver": {"dt_factor": 0.125, "t_end": 0.00125, "sample_every": 2},
}
# the fields of an ExperimentConfig that it reads from its source
_DERIVED = ("scenario", "grid", "epsilons", "dt_factor", "t_end", "sample_every", "params", "seed")


def test_a_config_is_the_source_the_loader_accepted():
    config = config_from_dict(_SMALL_WAVE)
    # the error's type depends on the Python version (ValueError on 3.11)
    with pytest.raises((TypeError, ValueError), match="init=False"):
        dataclasses.replace(config, seed=1)
    for name in _DERIVED:  # not even with the value it holds
        with pytest.raises((TypeError, ValueError), match="init=False"):
            dataclasses.replace(config, **{name: getattr(config, name)})
    # a new source is a new config, read from it
    assert dataclasses.replace(config, source={**config.source, "seed": 1}).seed == 1


def check_copies(report, checks) -> list[str]:
    """Every object in the JSON ``report`` that holds a ``checks`` key, or
    the name of one of ``checks`` beside its value, as JSON text."""
    values = {c.name: c.value for c in checks}
    found = []

    def walk(node) -> None:
        held = list(node.values()) if isinstance(node, dict) else node
        if isinstance(node, dict) and ("checks" in node or any(
                isinstance(v, str) and v in values and values[v] in held for v in held)):
            found.append(json.dumps(node, sort_keys=True))
        for child in held if isinstance(held, list) else ():
            walk(child)

    walk(report)
    return found


def test_only_the_verdict_reports_the_checks(tmp_path):
    result = run_scenario(config_from_dict(_SMALL_WAVE), out_dir=tmp_path)
    reports = {p.name: json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))}
    assert reports.keys() >= {"verdict.json", "manifest.json"}
    assert reports["verdict.json"]["checks"] == [dataclasses.asdict(c) for c in result.checks]
    found = {name: copies for name, report in reports.items() if name != "verdict.json"
             for copies in [check_copies(report, result.checks)] if copies}
    assert not found, f"a second report of the checks: {found}"


def test_each_copy_of_the_checks_is_caught():
    checks = [check("energy", 0.25, 1.0, criterion=1), check("radius", 0.5, 1.0, criterion=6)]
    renamed = {"checks": [{"name": "energy", "value": 0.25, "verdict": "pass"}]}
    nested = {"runs": [{"check": "radius", "reading": 0.5}]}
    assert len(check_copies(renamed, checks)) == 2  # the list's holder and the entry
    assert len(check_copies(nested, checks)) == 1
    # a name without its value, or a value under another name, is no copy
    assert not check_copies({"claims": ["line-energy"], "names": ["energy"], "value": 0.5,
                             "energy": 0.25, "pair": {"name": "radius", "value": 0.25}}, checks)
