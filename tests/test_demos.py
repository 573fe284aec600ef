"""Each script under demos/ prints the bytes recorded in
tests/data/demos_golden.json, a map from the script's file name to its
standard output."""

import contextlib
import io
import json
import os
import runpy

import pytest

DATA = os.path.join(os.path.dirname(__file__), "data")
DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")

with open(os.path.join(DATA, "demos_golden.json")) as _handle:
    DEMOS_GOLDEN = json.load(_handle)


def test_every_demo_is_recorded():
    scripts = [name for name in os.listdir(DEMOS) if name.endswith(".py")]
    assert sorted(scripts) == sorted(DEMOS_GOLDEN)


@pytest.mark.parametrize("name", sorted(DEMOS_GOLDEN))
def test_demo_prints_golden_output(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert out.getvalue() == DEMOS_GOLDEN[name]
