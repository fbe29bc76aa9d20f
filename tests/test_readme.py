"""README's "Library tour" snippet must run as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour_code():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library tour holds one python block"
    return blocks[0]


def test_library_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_tour_code(), str(README), "exec"), {"__name__": "__readme__"})
    # The snippet prints the mean fusion rate, which the walker episode
    # keeps strictly between 0 and 1.
    assert 0.0 < float(out.getvalue()) < 1.0
