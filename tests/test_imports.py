"""Every imported name is used in the module that imports it, and no
runtime check under src/zakgross is an `assert`, which `python -O` strips."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/zakgross", "tests", "scripts")


def unused_imports(path: Path) -> list:
    """Names bound by import statements in `path` that nothing reads.

    A name listed in the module's __all__ counts as read (re-exports).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    files = sorted(p for d in SCANNED for p in (ROOT / d).glob("*.py"))
    assert len(files) > 10
    assert [hit for f in files for hit in unused_imports(f)] == []


def test_no_assert_statements_in_the_package():
    files = sorted((ROOT / "src/zakgross").glob("*.py"))
    hits = [f"{f.relative_to(ROOT)}:{node.lineno}"
            for f in files for node in ast.walk(ast.parse(f.read_text(), filename=str(f)))
            if isinstance(node, ast.Assert)]
    assert hits == []


def test_every_exported_name_exists():
    import zakgross

    assert [name for name in zakgross.__all__ if not hasattr(zakgross, name)] == []
