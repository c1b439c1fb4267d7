"""Every script in demos/ runs to the end and prints its golden output."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"demo_{path.stem}.out").read_text(encoding="utf-8")
