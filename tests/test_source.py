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


def test_the_convolution_engine_stays_in_the_ssm_module():
    # The tape hands the ssm-conv to ssm.causal_conv and its adjoint: chunks,
    # blocks and their dtypes are decided in ssm.py, so autograd.py reaches
    # none of the engine's parts, by import or through the ssm module.
    package = Path(s4mil.__file__).parent
    engine = {"parallel", "to_blocks", "conv_taps", "STATE_BLOCK", "block_causal_conv",
              "block_adjoint"}
    tree = ast.parse((package / "autograd.py").read_text())
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            reached |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        if isinstance(node, ast.ImportFrom) and node.module:
            reached.add(node.module.rsplit(".", 1)[-1])
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "ssm"):
            reached.add(node.attr)
    assert not reached & engine, f"autograd.py reaches {sorted(reached & engine)}"


def _where(match):
    """The "module.function" of every node of the package that match(node) accepts."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found.add(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(s4mil.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return found


def test_only_the_causal_convolution_and_its_adjoint_transform():
    # np.fft appears in fft_causal_conv and fft_causal_corr and nowhere else.
    def transforms(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return "fft" in ast.unparse(node)
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))

    found = _where(transforms)
    assert found == {"ssm.fft_causal_conv", "ssm.fft_causal_corr"}, sorted(found)


def test_powers_of_a_bar_are_formed_in_the_table_builder_alone():
    # Extended precision (np.clongdouble, np.longdouble) is named only in
    # ssm.power_tables, and the blocks read the op's tables: neither
    # block_causal_conv nor block_adjoint builds its own.
    def extended(node):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        return isinstance(name, str) and name.endswith("longdouble")

    def builds(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "power_tables"

    found = _where(extended)
    assert found == {"ssm.power_tables"}, sorted(found)
    found = _where(builds)
    assert not found & {"ssm.block_causal_conv", "ssm.block_adjoint"}, sorted(found)


def test_only_the_one_block_forward_reaches_a_transform():
    # One engine at every length: only the forward of an input of at most
    # STATE_BLOCK tokens, one block, is transformed, by block_causal_conv's
    # fft_causal_conv.  No backward transforms, so no package function
    # names fft_causal_corr, the oracles' reference correlation.
    for name, callers in (("fft_causal_conv", {"ssm.block_causal_conv"}),
                          ("fft_causal_corr", set())):
        def names(node, name=name):
            return ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == name))

        found = _where(names)
        assert found == callers, (name, sorted(found))
