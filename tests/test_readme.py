"""README's library sketch runs against the package and prints what its
comments say, so the documented API cannot drift from the code."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs_and_prints_what_its_comments_say():
    text = README.read_text()
    code = re.search(r"```python\n(.*?)```", text[text.index("## Library sketch"):], re.S)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    # a printing line's comment is its output, or its output then ": why"
    said = [line.split("  # ", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(said)
    for got, comment in zip(printed, said):
        assert comment == got or comment.startswith(got + ":"), (got, comment)
