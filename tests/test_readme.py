"""README's Library example, run as written: the names it imports and the
results its comments and assertions state must hold for the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == "10 + 3*x^2\nIdealMatrixProduct\n"
    assert "eval_sweep(" in block and "rep.evaluate(1, 4)" in block
