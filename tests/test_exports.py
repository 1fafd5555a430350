"""Every public name of the package, and every option of a public function,
is used by the package or the benchmark.

A name in a module's ``__all__`` must be loaded somewhere in ``src/acflow``
outside its own definition and ``__init__.py``, or somewhere in
``bench/*.py``.  A load is a bare name (``evolve(...)``) that no enclosing
function binds as a parameter or local, or an attribute of a module
(``operators.gradient_values``), the module named directly or through an
alias (``from . import solver as solver_mod``).  Tests do not count: a
public function that only tests call feeds no scenario, no command and no
probe.

Likewise, every parameter with a default of a function in a module's
``__all__`` must be passed, by position or by keyword, by some call in
``src/acflow`` or ``bench/*.py``; an option that only tests set is a
constant.  A call that only hands on its caller's own parameter passes
nothing (an exported caller's option is checked in its own right).  There
is no exemption.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = _FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _module_aliases(tree: ast.Module, module_names: set[str]) -> set[str]:
    """The package's module names, plus every alias this file binds to one."""
    aliases = set(module_names)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "acflow"
            names = [(a.asname, a.name) for a in node.names] if ours else []
        elif isinstance(node, ast.Import):
            names = [(a.asname, a.name.split(".")[-1]) for a in node.names
                     if a.name.split(".")[0] == "acflow"]
        else:
            continue
        aliases |= {asname for asname, name in names if asname and name in module_names}
    return aliases


def _parameters(function: ast.AST) -> set[str]:
    """The parameter names of a function or lambda."""
    args = function.args
    return ({a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            | {a.arg for a in (args.vararg, args.kwarg) if a is not None})


def _local_names(scope: ast.AST) -> set[str]:
    """Names a function (or comprehension) binds itself: its parameters and
    the names it assigns, not counting nested scopes or names it declares
    ``global``/``nonlocal``.  Imports do not count: importing an exported
    name inside a function is a use of it."""
    bound, free = set(), set()
    if isinstance(scope, _FUNCTIONS):
        bound |= _parameters(scope)
        body = scope.body if isinstance(scope.body, list) else [scope.body]
    else:
        body = [g.target for g in scope.generators]
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return bound - free


def _loaded(node: ast.AST, modules: set[str], shadowed: frozenset[str]) -> set[str]:
    """Names loaded under ``node``, skipping bare names bound by an
    enclosing function."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _local_names(node)
    names = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        names.add(node.id)
    elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
          and isinstance(node.value, ast.Name) and node.value.id in modules):
        names.add(node.attr)
    for child in ast.iter_child_nodes(node):
        names |= _loaded(child, modules, shadowed)
    return names


def _loads(tree: ast.Module, module_names: set[str]) -> list[tuple[str | None, set[str]]]:
    """Per top-level statement, the name it defines (``None`` for anything but
    a ``def`` or ``class``) and the names loaded in it."""
    modules = _module_aliases(tree, module_names)
    return [(node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None,
             _loaded(node, modules, frozenset()))
            for node in tree.body]


def _unused(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """``module.name`` for every name in a module's ``__all__`` that no other
    definition in ``modules`` and nothing in ``others`` loads."""
    module_names = set(modules) | {"acflow"}
    loads = [(m, owner, names) for m, tree in modules.items()
             for owner, names in _loads(tree, module_names)]
    loads += [(None, None, names) for tree in others for _, names in _loads(tree, module_names)]
    unused = []
    for mod, tree in modules.items():
        for name in _exports(tree):
            # a load inside the name's own definition (recursion, say) does not count
            if not any(name in names for m, owner, names in loads if (m, owner) != (mod, name)):
                unused.append(f"{mod}.{name}")
    return unused


def unused_exports() -> list[str]:
    """``module.name`` for every exported name that nothing loads."""
    package = ROOT / "src" / "acflow"
    modules = {p.stem: _parse(p) for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    return _unused(modules, [_parse(p) for p in sorted((ROOT / "bench").glob("*.py"))])


def test_every_export_is_used_outside_the_tests():
    unused = unused_exports()
    assert not unused, f"exported, but loaded only by tests: {', '.join(unused)}"


def test_a_shadowing_local_is_not_a_use_and_an_aliased_module_is():
    exporter = ast.parse('__all__ = ["discrepancy", "step", "energy"]\n'
                         "def discrepancy(u):\n    return u\n"
                         "def step(u):\n    return u\n"
                         "def energy(u):\n    return u\n")
    user = ast.parse("from . import diag as diag_mod\n"
                     "def terms(u, step):\n"
                     "    discrepancy = u * u\n"
                     "    total = [discrepancy for discrepancy in u]\n"
                     "    return discrepancy + step(u) + sum(total)\n"
                     "def advance(u):\n"
                     "    return diag_mod.energy(u)\n")
    assert _unused({"diag": exporter, "user": user}, []) == ["diag.discrepancy", "diag.step"]
    # a bare load outside any binding function is a use
    caller = ast.parse("def run(u):\n    return discrepancy(u) + step(u)\n")
    assert _unused({"diag": exporter, "user": user}, [caller]) == []


def _options(tree: ast.Module) -> list[tuple[str, int | None, str]]:
    """``(function, position, parameter)`` for every parameter with a
    default of every exported top-level function; keyword-only parameters
    have no position."""
    exported = set(_exports(tree))
    out = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in exported:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(node.name, i, a.arg) for i, a in enumerate(positional) if i >= first]
        out += [(node.name, None, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


_Call = tuple[str, list[ast.expr], list[ast.keyword], frozenset[str]]


def _calls(node: ast.AST, forwarded: frozenset[str] = frozenset()) -> list[_Call]:
    """``(callee, args, keywords, forwarded)`` of every call under ``node``,
    the callee a bare name or an attribute's name, and ``forwarded`` the
    parameters of the enclosing functions that no inner scope rebinds;
    ``partial(f, *args, **keywords)`` counts as a call of ``f``."""
    if isinstance(node, _SCOPES):
        forwarded = forwarded - _local_names(node)
        if isinstance(node, _FUNCTIONS):
            forwarded |= _parameters(node)
    out = []
    if isinstance(node, ast.Call):
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func, args = args[0], args[1:]
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None:
            out.append((name, args, node.keywords, forwarded))
    for child in ast.iter_child_nodes(node):
        out += _calls(child, forwarded)
    return out


def _passes(args: list[ast.expr], keywords: list[ast.keyword], forwarded: frozenset[str],
            position: int | None, parameter: str) -> bool:
    """Whether a call passes the option; an argument that is a bare name in
    ``forwarded`` only hands on the caller's own parameter, and passes
    nothing."""

    def given(value: ast.expr) -> bool:
        return not (isinstance(value, ast.Name) and value.id in forwarded)

    starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
    if position is not None and starred and starred[0] <= position:
        return True
    by_position = position is not None and len(args) > position and given(args[position])
    return by_position or any(k.arg in (parameter, None) and given(k.value) for k in keywords)


def _unpassed(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """``module.function.parameter`` for every optional parameter of an
    exported function that no call in ``modules`` or ``others`` passes."""
    calls = [c for tree in list(modules.values()) + others for c in _calls(tree)]
    return [f"{mod}.{function}.{parameter}"
            for mod, tree in modules.items()
            for function, position, parameter in _options(tree)
            if not any(name == function
                       and _passes(args, keywords, forwarded, position, parameter)
                       for name, args, keywords, forwarded in calls)]


def unpassed_options() -> list[str]:
    """``module.function.parameter`` for every option no call passes."""
    package = ROOT / "src" / "acflow"
    modules = {p.stem: _parse(p) for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    return _unpassed(modules, [_parse(p) for p in sorted((ROOT / "bench").glob("*.py"))])


def test_an_option_is_passed_by_position_keyword_or_partial():
    lib = ast.parse('__all__ = ["f"]\n'
                    "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
                    "def g(a, b=1):\n    return a\n")
    user = ast.parse("from functools import partial\n"
                     "f(0, 1)\n"
                     "lib.f(0, e=5)\n"
                     "partial(g, 0, 1)\n")
    # g is not exported; c and d are passed by no call
    assert _unpassed({"lib": lib}, [user]) == ["lib.f.c", "lib.f.d"]
    assert _unpassed({"lib": lib}, [ast.parse("partial(f, *xs)\nf(0, **kw)\n")]) == []
    # a call that hands on its caller's own parameter, by position, keyword,
    # partial or **kwargs, from the function or a scope nested in it, passes
    # nothing; a caller's local, or a comprehension variable that shadows a
    # parameter, is a value
    forwards = ast.parse("def h(a, b=1, c=2, d=3, *, e=4, **kw):\n"
                         "    f(a, b, c, d=d)\n"
                         "    partial(f, a, e=e)\n"
                         "    f(a, **kw)\n"
                         "    return lambda: f(a, e=e)\n")
    assert _unpassed({"lib": lib}, [forwards]) == ["lib.f.b", "lib.f.c", "lib.f.d", "lib.f.e"]
    values = ast.parse("def h(a, b):\n"
                       "    c = 2 * b\n"
                       "    return f(a, 0, c) + [f(a, e=b) for b in a][0]\n")
    assert _unpassed({"lib": lib}, [forwards, values]) == ["lib.f.d"]


def test_every_option_of_an_export_is_passed_outside_the_tests():
    unpassed = unpassed_options()
    assert not unpassed, f"optional, but passed only by tests: {', '.join(unpassed)}"
