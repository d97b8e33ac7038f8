"""Guard against dead code in the package, by static reading with ``ast``.

Four checks:

- every name a package module (``__init__.py`` aside, which only re-exports)
  imports is used in that module's code;
- every function, method and class defined in ``src/whhankel``, dunders
  aside, is named somewhere in ``src/``, ``tests/`` or ``perfbench/``: as a
  name, an attribute, an imported name, or a word inside a string that is not
  a docstring (``perfbench/spans.py`` lists the functions it wraps by name);
- there is no default grid: ``oracle.Grid`` has no field defaults, and no
  function gives a ``grid`` or ``ws`` argument a default, so every caller
  names the grid it runs on;
- every parameter of a function in ``src/whhankel`` is read in that
  function's body (``self``, ``cls`` and ``_``-prefixed names aside), so a
  setting nothing reads cannot come back; a parameter kept only for a
  caller's signature says so with its ``_`` prefix.

What it cannot catch:

- dunder methods (``__iter__``, ``__len__``, ...), which the language
  calls implicitly;
- code that only calls itself or its own kind: two methods of one name,
  one calling the other and nothing calling either (a ``TimeKernel.integral``
  summing ``KernelPiece.integral``), look used, and so does a helper whose
  only caller is itself dead;
- a name that is dead in one class but shared with a live one elsewhere
  (the check is by name, not by binding).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "whhankel"
SCANNED = ("src", "tests", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _docstrings(tree):
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def _names_used(tree, with_strings):
    """Identifiers the code refers to (no definitions, no docstrings)."""
    docs = _docstrings(tree) if with_strings else set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and with_strings:
            used.update(alias.name for alias in node.names)
        elif (
            with_strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
        ):
            used.update(WORD.findall(node.value))
    return used


def _package_modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_every_import_is_used():
    unused = []
    for path in _package_modules():
        tree = _parse(path)
        used = _names_used(tree, with_strings=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert not unused, f"unused imports: {unused}"


def test_every_definition_is_named_somewhere():
    referenced = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() != Path(__file__).resolve():
                referenced |= _names_used(_parse(path), with_strings=True)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in referenced:
                dead.append(f"{path.name}: {name}")
    assert not dead, f"defined but never named: {dead}"


def test_no_default_grid():
    defaults = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and node.name == "Grid":
                defaults += [
                    f"{path.name}: Grid.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                ]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                defaults += [
                    f"{path.name}: {node.name}({a.arg}=...)"
                    for a in with_default
                    if a.arg in ("grid", "ws")
                ]
    assert not defaults, f"default grids: {defaults}"


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{path.name}: {name}({a.arg})"
                for a in params
                if a.arg not in ("self", "cls")
                and not a.arg.startswith("_")
                and a.arg not in read
            ]
    assert not unread, f"parameters never read: {unread}"
