"""Everything defined in ``src/rfflow`` is reached from the package itself,
and every module uses what it imports.

A function or class that only the tests call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import rfflow

SRC = Path(rfflow.__file__).parent

# kept though nothing in src/ names them: name -> reason
ALLOWED = {
    "fit_profile_scale": "perfbench/spans.TRACED wraps it by name, and Tracer.install "
                         "fails on a missing name; it goes once TRACED drops it",
    "spectrum_feature_scale": "perfbench/spans.TRACED wraps it by name, and Tracer.install "
                              "fails on a missing name; it goes once TRACED drops it",
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):  # from .module import name
        return node.name
    return None


def test_every_src_definition_is_named_in_src_exported_or_allowed():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    unreferenced = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(sub) for sub in ast.walk(node)}
            named = any(_name(sub) == node.name
                        for other in trees for sub in ast.walk(other)
                        if id(sub) not in own)
            if not named and node.name not in rfflow.__all__:
                unreferenced.append(node.name)
    # a name beyond the allowlist moves to tests/oracles.py; an entry whose
    # reason has gone (a caller appeared) leaves the allowlist
    assert sorted(unreferenced) == sorted(ALLOWED)


def _bound_names(node):
    """Names a top-level import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [alias.asname or alias.name for alias in node.names]
    return []


def test_every_top_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        if path.name == "__init__.py":
            used |= set(rfflow.__all__)
        unused += [f"{path.stem}.{name}" for node in tree.body
                   for name in _bound_names(node) if name not in used]
    assert unused == []
