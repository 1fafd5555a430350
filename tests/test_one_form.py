"""Every value of the package has one form.

A report is the fields of its dataclass, written by ``dataclasses.asdict``
(or ``astuple``), so no module defines a serialiser named ``as_dict`` or
``as_row`` that renames or reorders them.  A slice functional takes the
slice's :class:`~acflow.diagnostics.FrameBundle`, so no annotation admits
the union ``ScalarField | FrameBundle`` (in either order, as ``|`` or as
``Union[...]``).
"""

import ast
from pathlib import Path

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


def package_second_forms(package: Path = ROOT / "src" / "acflow") -> list[str]:
    return [hit for path in sorted(package.glob("*.py"))
            for hit in second_forms(ast.parse(path.read_text(encoding="utf-8")), path.name)]


def test_no_module_keeps_a_second_form():
    found = package_second_forms()
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
