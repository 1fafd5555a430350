"""Every public name of the package is used by the package or the benchmark.

A name in a module's ``__all__`` must be loaded somewhere in ``src/acflow``
outside its own definition and ``__init__.py``, or somewhere in
``bench/*.py``.  A load is a bare name (``evolve(...)``) or an attribute of
a module (``operators.gradient_values``).  Tests do not count: a public
function that only tests call feeds no scenario, no command and no probe.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _loads(tree: ast.Module, module_names: set[str]) -> list[tuple[str | None, set[str]]]:
    """Per top-level statement, the name it defines (``None`` for anything but
    a ``def`` or ``class``) and the names loaded in it."""
    out = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                  and isinstance(sub.value, ast.Name) and sub.value.id in module_names):
                names.add(sub.attr)
        out.append((owner, names))
    return out


def unused_exports() -> list[str]:
    """``module.name`` for every exported name that nothing loads."""
    package = ROOT / "src" / "acflow"
    modules = {p.stem: _parse(p) for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    bench = [_parse(p) for p in sorted((ROOT / "bench").glob("*.py"))]
    module_names = set(modules) | {"acflow"}
    loads = [(m, owner, names) for m, tree in modules.items()
             for owner, names in _loads(tree, module_names)]
    loads += [(None, None, names) for tree in bench for _, names in _loads(tree, module_names)]
    unused = []
    for mod, tree in modules.items():
        for name in _exports(tree):
            # a load inside the name's own definition (recursion, say) does not count
            if not any(name in names for m, owner, names in loads if (m, owner) != (mod, name)):
                unused.append(f"{mod}.{name}")
    return unused


def test_every_export_is_used_outside_the_tests():
    unused = unused_exports()
    assert not unused, f"exported, but loaded only by tests: {', '.join(unused)}"

