"""Rules on the source tree itself."""

import ast
from pathlib import Path

import x3y9z2


def test_no_assert_statements_in_src():
    """Soundness checks must raise: python -O strips assert statements."""
    root = Path(x3y9z2.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
