import ast
from pathlib import Path

import s4mil


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so no runtime check may rely on it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(s4mil.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in {found}"
