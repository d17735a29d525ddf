"""README's code, run as written, so it cannot name a function the package lacks."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_block(section: str) -> str:
    """The first python code block under the README heading ``section``."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.DOTALL).search(text, start)
    assert match is not None and "\n## " not in text[start + 1:match.start()], section
    return match.group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(python_block("Library quick start"), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0].split()[1] == "200"  # bcg: 2*B*T value queries
    assert printed[1].endswith(" 400")  # dbg: 2*B*l*T set queries
