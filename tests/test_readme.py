"""README's Library example runs as written, so it cannot drift from the
API it shows."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python code block under README's Library heading."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert blocks, "README's Library section has no python block"
    return blocks[0]


def test_readme_library_example_runs():
    code = library_example()
    # the calls the example is there to show
    for name in ("verified", "count_accepted", "accepts_pair", "violations"):
        assert name in code, name
    exec(compile(code, f"{README}:Library", "exec"), {})
