"""Every demo script runs to completion in-process."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_all_four_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, capsys):
    runpy.run_path(str(path))["main"]()
    out = capsys.readouterr().out
    assert out.strip()
    assert "match = False" not in out
