"""Every file dresq writes goes through ``cli._write_file``.

That helper writes over an existing file and cuts it to length; a write that
truncates on open (``write_bytes``, ``write_text``, ``open(..., "w")``,
``os.O_TRUNC``) costs a flush on ext4 at every rewrite. This reads the calls
of every module instead of running them.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dresq").glob("*.py"))
HELPER = ("cli.py", "_write_file")


def _mode(call: ast.Call) -> str:
    """The literal mode of an ``open`` call: ``open(path, mode)`` or ``path.open(mode)``."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    nodes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:position + 1]
    if not nodes:
        return "r"
    return nodes[0].value if isinstance(nodes[0], ast.Constant) else "?"


def _writes(tree: ast.AST):
    """(node, what) of every file write under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("write_bytes", "write_text", "O_TRUNC"):
            yield node, node.attr
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            is_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
            if name == "open" and not is_os and set(_mode(node)) & set("wax+?"):
                yield node, f"open(..., {_mode(node)!r})"
            elif is_os and name in ("open", "write", "ftruncate"):
                yield node, f"os.{name}"


def test_every_file_write_is_in_the_one_helper():
    outside, inside = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        helper = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and (path.name, f.name) == HELPER
                  for node in ast.walk(f)}
        for node, what in _writes(tree):
            if id(node) in helper:
                inside.add(what)
            else:
                outside.append(f"{path.name}:{node.lineno}: {what}")
    assert len(SOURCES) >= 9
    assert outside == []
    # the helper writes with os calls and opens no file with truncation
    assert sorted(inside) == ["os.ftruncate", "os.open", "os.write"]
