"""Source checks: library checks must not be ones that ``python -O`` strips."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "freegroups"


def test_no_assert_statements_in_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under -O; raise instead: {found}"
