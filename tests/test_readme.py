"""The README's library quick start runs as written and prints what its comment promises."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The Python block under the README's "Library quick start" heading."""
    section = README.read_text().split("## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_the_quick_start_runs_and_prints_its_promised_value():
    code = _quick_start()
    promised = re.search(r"print\(eval_F\(3\.0, params\)\.f\)\s+# (\S+)", code)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert promised == "2.958661801343283"
    assert out.getvalue().splitlines()[0] == promised
