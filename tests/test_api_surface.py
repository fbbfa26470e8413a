"""Every public module-level function and class of wzcert has a caller in the
program (src/ or bench/), apart from an explicit allowlist of test seams.
Test oracles live in tests/oracles.py, not in the package."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wzcert"

# name -> why it may have no caller outside tests/
ALLOWED = {
    "set_cache": "test seam: points the memos at a scratch disk cache",
    "clear_memos": "test seam: empties the in-process memos between runs",
}


def _references(stmt, own):
    """Names a module-level statement refers to (Name, Attribute or import
    alias), leaving out the name the statement itself defines."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name != own:
            yield name


def test_every_public_name_has_a_caller_in_the_program():
    public = {}
    used = set()
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert len(files) > 10
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if path.parent == PACKAGE and not own.startswith("_"):
                    public[own] = f"{path.stem}.{own}"
            used.update(_references(stmt, own))
    assert set(ALLOWED) <= set(public), "allowlisted name no longer defined"
    unused = sorted(public[name] for name in public
                    if name not in used and name not in ALLOWED)
    assert unused == []
