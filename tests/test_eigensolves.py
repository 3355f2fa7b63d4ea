"""Every eigensolve of a Hamiltonian goes through ``spectroscopy._block_slices``.

That helper sizes each stack by STACK_SLICE_BYTES, so a solve made anywhere
else would bypass the budget, and it is the one place that can count the
solves. This reads the code of every module instead of running it: an
eigensolver (``eigh``, ``eigvalsh``, ``eig``, ``eigvals``, as an attribute or
an imported name) may appear only in the arguments of a ``_block_slices``
call, or in the one named exception, the positivity check of a density
matrix, ``DensityState.validate`` in ``dynamics``.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dresq").glob("*.py"))
SOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
EXCEPTION = ("dynamics.py", "validate")


def _solver_uses(tree: ast.AST):
    """Every node naming an eigensolver under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SOLVERS:
            yield node
        elif isinstance(node, ast.Name) and node.id in SOLVERS:
            yield node
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in SOLVERS:
            yield node


def _inside(tree: ast.AST, is_scope) -> set[int]:
    """ids of every node under the nodes of ``tree`` that ``is_scope`` picks."""
    return {id(node) for scope in ast.walk(tree) if is_scope(scope) for node in ast.walk(scope)}


def _slices_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_block_slices")


def test_every_hamiltonian_eigensolve_is_a_block_slice():
    outside, passed, excepted = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        sliced = _inside(tree, _slices_call)
        exception = _inside(tree, lambda f: isinstance(f, ast.FunctionDef)
                            and (path.name, f.name) == EXCEPTION)
        for node in _solver_uses(tree):
            where = f"{path.name}:{node.lineno}"
            if id(node) in sliced:
                passed.append(where)
            elif id(node) in exception:
                excepted.append(where)
            else:
                outside.append(where)
    assert len(SOURCES) >= 9
    assert outside == []
    # the spectrum's eigh, and the eigvalsh of the gap scans and co-tuned half gaps
    assert [w.split(":")[0] for w in passed] == ["spectroscopy.py"] * 2
    assert [w.split(":")[0] for w in excepted] == ["dynamics.py"]


def test_every_level_pair_is_solved_by_the_one_pair_helper():
    # the gap scans and the co-tuned half gaps take their odd-block level
    # pairs from spectroscopy._pair_separations alone: it is the one place
    # in the module that names eigvalsh
    path = next(p for p in SOURCES if p.name == "spectroscopy.py")
    tree = ast.parse(path.read_text(), str(path))
    helper = _inside(tree, lambda f: isinstance(f, ast.FunctionDef)
                     and f.name == "_pair_separations")
    named = [node for node in _solver_uses(tree)
             if "eigvalsh" in (getattr(node, "attr", None), getattr(node, "id", None),
                               getattr(node, "name", "").split(".")[-1])]
    assert len(named) == 1
    assert ast.unparse(named[0]) == "np.linalg.eigvalsh" and id(named[0]) in helper
