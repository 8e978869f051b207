"""README's examples, run as written: each command-line example must print
its output byte for byte, and the names the Library example imports and the
results its comments and assertions state must hold for the package."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from cnomial import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == "10 + 3*x^2\nIdealMatrixProduct\n"
    assert "eval_sweep(" in block and "rep.evaluate(1, 4)" in block


def test_readme_command_line_examples_print_as_shown(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = [chunk.split("\n", 1) for chunk in block.split("$ ")[1:]]
    assert len(examples) == 6
    for command, shown in examples:
        argv = shlex.split(command)
        assert argv[0] == "cnomial"
        out = io.StringIO()
        assert cli.run(argv[1:], stdout=out) == 0, command
        assert out.getvalue() == shown.rstrip("\n") + "\n", command
        assert capsys.readouterr().err == "", command
