"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(code, "README.md ## Library", "exec"), {})
