"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block under the ``## heading`` section."""
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    namespace = {}
    exec(compile(python_block("Library quickstart"), "README.md", "exec"), namespace)
    assert namespace["shifted"] == (1,)
    assert capsys.readouterr().out.startswith("(1,) ")
