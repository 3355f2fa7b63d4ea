"""The README's examples run as written: every `dresq` line of its CLI block
through `cli.main`, and its library example."""

import math
import shlex
from pathlib import Path

import numpy as np

from dresq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    commands = [shlex.split(line) for line in
                code_block("## CLI", "sh").replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) >= 5 and all(argv[0] == "dresq" for argv in commands)
    # every --out and the trace of `fit` are relative paths: both land in tmp_path
    monkeypatch.chdir(tmp_path)
    t = np.linspace(0.0, 1000.0, 200)
    y = 0.5 * np.exp(-t / 800.0) * np.cos(2 * math.pi * 0.006 * t + 0.3) + 0.2
    Path("trace.csv").write_text("time_ns,value\n" + "".join(f"{a},{b}\n" for a, b in zip(t, y)))
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
        assert (tmp_path / argv[argv.index("--out") + 1] / "manifest.json").is_file()


def test_readme_library_example_runs(capsys):
    exec(compile(code_block("## Library example", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
