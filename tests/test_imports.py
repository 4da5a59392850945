"""Every imported name is used, and every definition in the package is
referenced somewhere: plain stdlib-ast checks, since no linter runs on this
package."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "autostruct").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    found = [
        hit
        for path in files
        if path.name != "__init__.py"
        for hit in unused_imports(path)
    ]
    assert found == []


def _references(tree) -> tuple:
    """(names a module refers to: names, attributes, import aliases and the
    strings of an ``__all__`` list; the attribute names alone)."""
    out, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
            attrs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.add(alias.name.split(".")[-1])
                out.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(
                e.value
                for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return out, attrs


def _overrides(module_name: str, tree) -> set:
    """Methods of the module's classes that override a base class method,
    so the base calls them."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            cls = getattr(importlib.import_module(module_name), node.name)
            bases = cls.__mro__[1:]
            out.update(
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and any(item.name in vars(base) for base in bases)
            )
    return out


def unreferenced_definitions(package: Path, roots: list) -> list:
    """Functions, methods and classes defined under package that no module
    under roots refers to.  A method counts as referenced only through
    attribute access (``x.name``), so a plain function of the same name
    elsewhere does not keep it.  Special methods and overrides are called
    implicitly."""
    referenced, attributes = set(), set()
    for root in roots:
        for path in root.rglob("*.py"):
            names, attrs = _references(ast.parse(path.read_text(), str(path)))
            referenced |= names
            attributes |= attrs
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        implicit = _overrides(f"{package.name}.{path.stem}", tree)
        methods = {
            item
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, kinds)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, kinds)
                and node not in implicit
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in (attributes if node in methods else referenced)
            ):
                out.append(f"{path.name}:{node.lineno}: {node.name}")
    return sorted(out)


def test_no_unreferenced_definitions():
    roots = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
    assert unreferenced_definitions(ROOT / "src" / "autostruct", roots) == []
