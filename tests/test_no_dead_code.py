"""Guard against dead code in the package, by static reading with ``ast``.

Five checks:

- every name a package module (``__init__.py`` aside, which only re-exports)
  or a test module imports is used in that module's code;
- every function, method and class defined in ``src/whhankel``, dunders
  aside, is named somewhere in ``src/``, ``tests/`` or ``perfbench/``: as a
  name, an attribute, an imported name, or a word inside a string that is not
  a docstring (``perfbench/spans.py`` lists the functions it wraps by name);
- each of them is reached: named by program code (the package modules
  other than ``__init__.py``, and ``perfbench/``), exported from
  ``__init__.py``, or listed in ``TEST_ONLY`` with the reason tests need it;
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
- a helper whose only caller is a ``TEST_ONLY`` function looks reached;
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

#: definitions that no program code reaches, kept for what tests check with them
TEST_ONLY = {
    "projection_image_dims": "criterion 8 measures dim im P+- of dense kernel bases",
    "block_factorization_residual": "test_oracle checks the dense three-factor splitting",
    "block_v_product_form": "test_oracle checks the product form of the block operator",
    "GSymbol.norm_estimate": "criterion 9 scales its tolerance by it",
}


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
    for path in _package_modules() + sorted((ROOT / "tests").glob("*.py")):
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


def _definitions(tree):
    """(name, node) of each function, method and class, dunders aside; a
    method's name is qualified by its class."""
    methods = {
        id(stmt): f"{node.name}.{stmt.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield methods.get(id(node), node.name), node


def test_every_definition_is_reached_by_program_code():
    program = _package_modules() + sorted((ROOT / "perfbench").rglob("*.py"))
    reached = set()
    for path in program:
        reached |= _names_used(_parse(path), with_strings=True)
    reached |= _names_used(_parse(PACKAGE / "__init__.py"), with_strings=True)
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        unreached |= {
            name for name, node in _definitions(_parse(path)) if node.name not in reached
        }
    assert unreached == set(TEST_ONLY), (
        f"reached by tests only, and not in TEST_ONLY: {sorted(unreached - set(TEST_ONLY))}; "
        f"in TEST_ONLY but reached or gone: {sorted(set(TEST_ONLY) - unreached)}"
    )


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
