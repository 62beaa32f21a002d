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


def _definition(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)


def test_every_tape_op_is_one_the_model_builds():
    # The tape's op set is the model's op set: an op no model graph uses is
    # dead weight that only its own tests would keep alive.
    package = Path(s4mil.__file__).parent
    tape_class = _definition(ast.parse((package / "autograd.py").read_text()), "Tape")
    ops = {node.name for node in tape_class.body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    ops -= {"leaf", "forward", "backward"}
    build_tape = _definition(ast.parse((package / "model.py").read_text()), "build_tape")
    called = {node.func.attr for node in ast.walk(build_tape)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "tape"}
    assert ops, "no Tape ops found"
    assert not ops - called, f"Tape ops that build_tape never calls: {sorted(ops - called)}"
