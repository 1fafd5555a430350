"""Every name the benchmark takes from the package exists.

``bench/*.py`` imports acflow only inside the functions that run, so a
deletion that breaks a probe or a workload would show only when the
benchmark runs.  This reads the files with ``ast`` and runs none of them:

- every ``from acflow... import name`` resolves, to an attribute or a
  submodule;
- every attribute of an acflow module alias (``levelset.extract_graph``)
  exists;
- every keyword that a call of an acflow function or class passes is one of
  its parameters (:func:`inspect.signature`);
- the layer modules and the ``module.attr...`` span names of
  ``bench/tracing.py`` (``STEP_SPAN``, ``RECORD_SPAN``) resolve.
"""

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SPANS = ("STEP_SPAN", "RECORD_SPAN")  # the span names tracing.py counts by


def _resolve(module: str, name: str):
    """``module.name``, an attribute or a submodule; None when neither exists."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _own_imports(scope: ast.AST) -> list[ast.stmt]:
    """The import statements of a module or function body, not counting nested
    functions, which bind their own names."""
    found, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda node: node.lineno)


def _bind(imports: list[ast.stmt], where: str, problems: list[str]) -> dict[str, object]:
    """The local names these imports bind to acflow objects; an imported name
    that does not exist is a problem."""
    bound = {}
    for node in imports:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "acflow":
            for alias in node.names:
                obj = _resolve(node.module, alias.name)
                if obj is None:
                    problems.append(f"{where}:{node.lineno}: {node.module} has no {alias.name}")
                else:
                    bound[alias.asname or alias.name] = obj
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "acflow":
                    module = alias.name if alias.asname else "acflow"
                    bound[alias.asname or "acflow"] = importlib.import_module(module)
    return bound


def _callee(func: ast.expr, bound: dict[str, object]):
    """The acflow object a call's function names, or None."""
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = bound.get(func.value.id)
        if isinstance(owner, ModuleType):
            return getattr(owner, func.attr, None)
    return None


def _check(node: ast.AST, bound: dict[str, object], where: str, problems: list[str]) -> None:
    if isinstance(node, (ast.Module,) + _FUNCTIONS):
        bound = {**bound, **_bind(_own_imports(node), where, problems)}
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and isinstance(bound.get(node.value.id), ModuleType)
            and not hasattr(bound[node.value.id], node.attr)):
        problems.append(f"{where}:{node.lineno}: {bound[node.value.id].__name__} "
                        f"has no {node.attr}")
    if isinstance(node, ast.Call):
        callee = _callee(node.func, bound)
        if callable(callee):
            parameters = inspect.signature(callee).parameters.values()
            takes_any = any(p.kind is p.VAR_KEYWORD for p in parameters)
            names = {p.name for p in parameters if p.kind is not p.POSITIONAL_ONLY}
            for keyword in node.keywords:
                if keyword.arg is not None and not takes_any and keyword.arg not in names:
                    problems.append(f"{where}:{node.lineno}: {callee.__qualname__} takes no "
                                    f"keyword {keyword.arg!r}")
    for child in ast.iter_child_nodes(node):
        _check(child, bound, where, problems)


def name_problems(source: str, where: str) -> list[str]:
    """The acflow names, attributes and keywords of ``source`` that do not exist."""
    problems: list[str] = []
    _check(ast.parse(source, filename=where), {}, where, problems)
    return problems


def span_problems(source: str) -> list[str]:
    """The ``LAYERS`` of a tracing source that are no acflow module, and its
    ``_SPANS`` whose ``module.attr...`` path does not resolve in acflow."""
    constants = {target.id: ast.literal_eval(node.value)
                 for node in ast.parse(source).body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)
                 and target.id in _SPANS + ("LAYERS",)}
    problems = [f"LAYERS: acflow has no module {layer}" for layer in constants["LAYERS"]
                if not isinstance(_resolve("acflow", layer), ModuleType)]
    for name in _SPANS:
        module, *path = constants[name].split(".")
        obj = _resolve("acflow", module)
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            problems.append(f"{name} = {constants[name]!r} does not resolve in acflow")
    return problems


def test_every_acflow_name_the_benchmark_uses_exists():
    problems = [problem for path in sorted((ROOT / "bench").glob("*.py"))
                for problem in name_problems(path.read_text(encoding="utf-8"),
                                             f"bench/{path.name}")]
    assert not problems, "\n".join(problems)


def test_the_tracing_spans_name_acflow_functions():
    problems = span_problems((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    assert not problems, "\n".join(problems)


def test_the_guard_names_a_missing_name_and_a_wrong_keyword():
    source = ("def probe(g):\n"
              "    from acflow import Grid, levelset, no_such_name\n"
              "    from acflow.solver import _Stepper, _NoStepper\n"
              "    Grid(dim=2, extent=1.0, points=8, spacing=0.1)\n"
              "    levelset.extract_graph(g, level=0.0)\n"
              "    return levelset.partition_good_bad, levelset.gone\n"
              "def other():\n"
              "    levelset = object()\n"
              "    return levelset.gone\n")
    assert name_problems(source, "probe.py") == [
        "probe.py:2: acflow has no no_such_name",
        "probe.py:3: acflow.solver has no _NoStepper",
        "probe.py:4: Grid takes no keyword 'spacing'",
        "probe.py:6: acflow.levelset has no gone",
    ]
    tracing = ('LAYERS = ("solver", "no_such_layer")\n'
               'STEP_SPAN = "solver._Stepper.advance"\n'
               'RECORD_SPAN = "diagnostics.no_such_record"\n')
    assert span_problems(tracing) == [
        "LAYERS: acflow has no module no_such_layer",
        "RECORD_SPAN = 'diagnostics.no_such_record' does not resolve in acflow",
    ]
