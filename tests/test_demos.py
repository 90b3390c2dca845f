"""Smoke test: every demo script runs to completion with its default
arguments, in process, and prints something."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_with_defaults(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_tour_runs(capsys):
    """The README's "Sixty-second tour" block runs in process and prints
    the root value with the first joint action, then the member's root
    value."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("## Sixty-second tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out == "0.78686375 (1, 0)\n0.824\n"
