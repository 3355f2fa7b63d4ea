"""The runtime depends on numpy alone.

Other packages (scipy among them) may be installed where the tests run, so
an import of one would pass every other test; this reads the imports of
every module instead.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dresq").glob("*.py"))


def test_runtime_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert len(SOURCES) >= 9
    assert foreign == []


# the dresq modules each module may import; only cli imports the others
LAYERS = {
    "errors": set(),
    "fock": {"errors"},
    "device": {"errors", "fock"},
    "spectroscopy": {"errors", "fock", "device"},
    "dynamics": {"errors", "fock", "device"},
    "fitting": {"errors"},
    "svgplot": {"errors"},
    "__init__": {"errors", "fock", "device"},
}


def dresq_imports(path: Path) -> set[str]:
    """The dresq modules that the source file ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("dresq."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("dresq.")}
    return names


def test_each_module_imports_only_the_layers_below_it():
    found = {path.stem: dresq_imports(path) for path in SOURCES}
    assert set(found) == set(LAYERS) | {"cli"}
    beyond = {name: found[name] - allowed for name, allowed in LAYERS.items()}
    assert {name: extra for name, extra in beyond.items() if extra} == {}
