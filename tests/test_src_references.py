"""Everything defined in ``src/rfflow`` is reached from another ``src/``
module, every dataclass field is read there, and every module uses what it
imports.

A function or class that only the tests call belongs in ``tests/oracles.py``,
which builds its references from the package's public names only.
"""

import ast
from pathlib import Path

import rfflow

SRC = Path(rfflow.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")

# kept though nothing in src/ names them: name -> reason
ALLOWED = {
    "fit_profile_scale": "perfbench/spans.TRACED wraps it by name, and Tracer.install "
                         "fails on a missing name; it goes once TRACED drops it",
    "spectrum_feature_scale": "perfbench/spans.TRACED wraps it by name, and Tracer.install "
                              "fails on a missing name; it goes once TRACED drops it",
    "coefficients_at": "A01 checks this closed-form a(t) against the Euler oracle, so it "
                       "stays in src/ and does not move to tests/oracles.py",
}


# dataclass fields that nothing in src/ reads: "Class.field" -> reason
UNREAD_FIELDS = {
    "RunRecord.assumption": "the assumption report; a run sidecar is to write it",
    "AssumptionReport.c_prime": "waits for a run sidecar that writes it",
    "AssumptionReport.discrepancies": "waits for a run sidecar that writes it",
    "AssumptionReport.concentration_index": "waits for a run sidecar that writes it",
    "AssumptionReport.regime_constants": "waits for a run sidecar that writes it",
    "RegimeWindow.t_low": "waits for a run sidecar that writes regime_window",
    "RegimeWindow.t_high": "waits for a run sidecar that writes regime_window",
    "RegimeWindow.level": "waits for a run sidecar that writes regime_window",
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
            if not named:
                unreferenced.append(node.name)
    # a name beyond the allowlist moves to tests/oracles.py; an entry whose
    # reason has gone (a caller appeared) leaves the allowlist
    assert sorted(unreferenced) == sorted(ALLOWED)


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        _name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
        for dec in node.decorator_list)


def test_every_dataclass_field_is_read_in_src_or_allowed():
    """A field counts as read when some attribute load in src/ has its name,
    outside its own class's ``__post_init__``.  The match is by name only, so
    a read of an unrelated attribute of the same name (``args.config``, say,
    for a field ``config``) hides an unread field."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    loads = [sub for tree in trees for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]
    unread = []
    for cls in (node for tree in trees for node in tree.body if _is_dataclass(node)):
        own = {id(sub) for item in cls.body
               if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
               for sub in ast.walk(item)}
        for item in cls.body:
            if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                continue
            field = item.target.id
            if not any(load.attr == field and id(load) not in own for load in loads):
                unread.append(f"{cls.name}.{field}")
    # a field beyond the allowlist is written or deleted; an entry that is
    # read again leaves the allowlist
    assert sorted(unread) == sorted(UNREAD_FIELDS)


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
        unused += [f"{path.stem}.{name}" for node in tree.body
                   for name in _bound_names(node) if name not in used]
    assert unused == []


def test_oracles_import_no_private_rfflow_name():
    """An oracle built from the helper it checks is no independent reference."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "rfflow"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
