"""Every top-level name in the package, and in the tools, has a reader, so a
helper or format left without a caller fails here rather than lingering."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minorform"


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
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
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
    tools, tests = ({p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((PACKAGE.parents[1] / d).glob("*.py"))} for d in ("tools", "tests"))
    assert "bench_record.py" in tools
    read = set().union(*map(_read_names, [*tools.values(), *tests.values()]))
    assert sorted(f"{module}:{name}" for module, tree in tools.items() for name in _top_level_names(tree) - read) == []
