"""Only ``device.py`` decides which blocks of H exist and which are kept.

``DeviceModel`` builds its parity blocks and co-tuned sectors once and
restricts any other block anew; a block made anywhere else would escape
that policy and its memory count. This reads the code of every module
instead of running it: outside ``device.py`` no module may construct a
``Block`` or subscript ``h_static`` with a square ``np.ix_(a, a)``. A
rectangular ``np.ix_(a, b)`` is allowed, as in the leakage check of
``dynamics._propagate``, which reads the couplings out of a block without
building it.
"""

import ast

from test_eigensolves import SOURCES


def _block_constructions(tree: ast.AST):
    """Every call of ``Block`` under ``tree``, by name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "Block") or (
                    isinstance(func, ast.Attribute) and func.attr == "Block"):
                yield node


def _ix(node: ast.AST) -> list[ast.AST] | None:
    """The arguments of an ``ix_`` call, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return node.args if name == "ix_" else None


def _h_static_subscripts(tree: ast.AST):
    """Every subscript of ``h_static`` under ``tree`` and whether its index is a
    square ``ix_``, the same expression twice."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript):
            continue
        value = node.value
        named = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", None)
        args = _ix(node.slice)
        if named == "h_static" and args is not None:
            yield node, len(args) == 2 and ast.dump(args[0]) == ast.dump(args[1])


def test_only_the_device_model_makes_blocks():
    made, square, rectangular = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        made += [f"{path.name}:{node.lineno}" for node in _block_constructions(tree)]
        for node, is_square in _h_static_subscripts(tree):
            (square if is_square else rectangular).append(f"{path.name}:{node.lineno}")
    assert [w for w in made if not w.startswith("device.py:")] == []
    assert [w for w in square if not w.startswith("device.py:")] == []
    # the guard sees the model's own restriction and sectors, and the leakage check
    assert any(w.startswith("device.py:") for w in made)
    assert [w.split(":")[0] for w in square] == ["device.py"]
    assert [w.split(":")[0] for w in rectangular] == ["dynamics.py"]
