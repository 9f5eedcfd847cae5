"""README.md's Python examples run as written."""

import re
from pathlib import Path

import pytest

from chaospi.series import TimeSeries
from helpers import ar2_values, write_series

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each block padded with blank lines, so that a traceback names its README
# line ("<README.md>", so that pytest does not print the file as its source)
BLOCKS = [
    "\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


# the example's AR(2) input has no divergence for the exponent to track
@pytest.mark.filterwarnings("ignore:divergence tracking failed:UserWarning")
@pytest.mark.parametrize("code", BLOCKS, ids=[f"block_{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(tmp_path, monkeypatch, code):
    # the library example reads cpi.csv from the working directory
    write_series(TimeSeries(values=ar2_values(84)), tmp_path / "cpi.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "<README.md>", "exec"), {"__name__": "readme_example"})
