"""The demo scripts run to the end, in-process, with their printout captured."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_three_demos():
    assert [p.stem for p in DEMOS] == [
        "multiple_kernel_weights", "single_kernel_adaptation", "tuning_cost_benchmark"
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    assert text.count("\n") >= 5 and "nan" not in text
