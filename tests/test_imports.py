"""Every imported name is used in the module that imports it, every
module-level name of the package is read somewhere, and no runtime check
under src/zakgross is an `assert`, which `python -O` strips."""
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


def assigned_names(path: Path) -> dict:
    """{name: line} of the names that top-level assignments in `path` bind, dunders excluded."""
    names = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not (name.id.startswith("__")
                                                       and name.id.endswith("__")):
                    names.setdefault(name.id, node.lineno)
    return names


def names_read(path: Path) -> set:
    """Names, attributes and imported names that `path` reads."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_module_level_name_is_read():
    # a constant or table nothing reads is a leftover: a knob of deleted code
    files = sorted(p for d in SCANNED for p in (ROOT / d).glob("*.py"))
    read = set().union(*map(names_read, files))
    hits = [f"{f.relative_to(ROOT)}:{line} {name}"
            for f in sorted((ROOT / "src/zakgross").glob("*.py"))
            for name, line in assigned_names(f).items() if name not in read]
    assert hits == []


def test_no_assert_statements_in_the_package():
    files = sorted((ROOT / "src/zakgross").glob("*.py"))
    hits = [f"{f.relative_to(ROOT)}:{node.lineno}"
            for f in files for node in ast.walk(ast.parse(f.read_text(), filename=str(f)))
            if isinstance(node, ast.Assert)]
    assert hits == []


def test_every_exported_name_exists():
    import zakgross

    assert [name for name in zakgross.__all__ if not hasattr(zakgross, name)] == []
