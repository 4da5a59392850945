"""Every imported name is used: a plain stdlib-ast check, since no linter
runs on this package."""

import ast
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
