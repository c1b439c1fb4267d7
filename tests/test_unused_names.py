"""Every top-level name in the package, the tools and the tests has a reader,
so a helper, format or constant left without a caller fails here rather
than lingering."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded, read as attributes, imported or listed in `__all__`."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return read


def test_every_top_level_name_has_a_reader():
    trees = _trees(ROOT / "src" / "minorform")
    assert "engines.py" in trees
    read = set().union(*map(_read_names, trees.values()))
    unread = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _top_level_names(tree)
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )
    assert unread == []


def test_every_top_level_name_in_tools_has_a_reader_in_tools_or_tests():
    tools, tests = _trees(ROOT / "tools"), _trees(ROOT / "tests")
    assert "bench_record.py" in tools
    read = set().union(*map(_read_names, [*tools.values(), *tests.values()]))
    assert sorted(f"{module}:{name}" for module, tree in tools.items() for name in _top_level_names(tree) - read) == []


def test_every_top_level_name_in_tests_has_a_reader_in_tests_or_tools():
    # pytest collects `test_*` functions by name, so those need no reader
    tools, tests = _trees(ROOT / "tools"), _trees(ROOT / "tests")
    assert "test_unused_names.py" in tests
    read = set().union(*map(_read_names, [*tools.values(), *tests.values()]))
    unread = sorted(
        f"{module}:{name}" for module, tree in tests.items() for name in _top_level_names(tree) - read if not name.startswith("test_")
    )
    assert unread == []
