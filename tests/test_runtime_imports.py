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
