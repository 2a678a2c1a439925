"""Rules on the source tree itself."""

import ast
from pathlib import Path

import x3y9z2


ROOT = Path(x3y9z2.__file__).parent


def _trees():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_src():
    """Soundness checks must raise: python -O strips assert statements."""
    found = [f"{rel}:{node.lineno}" for rel, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_memos_live_on_their_objects():
    """One memo rule: a memo lives on the object whose value it is
    (functools.cached_property or an instance attribute set by its own
    class) or on a pure function of its arguments (functools.lru_cache).
    So no hasattr(obj, "_...") probe for a memo attribute, and no
    module-level cache that can outlive the data it was computed from."""
    found = []
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "hasattr" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and str(node.args[1].value).startswith("_")):
                found.append(f"{rel}:{node.lineno} hasattr(..., {node.args[1].value!r})")
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            found += [f"{rel}:{stmt.lineno} {t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_cache")]
    assert found == []
