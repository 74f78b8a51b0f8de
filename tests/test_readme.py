"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "Status.OPTIMAL 4"
    # one line per improving incumbent, costs strictly decreasing
    costs = [int(line.split()[0]) for line in lines[:-1]]
    assert costs and costs == sorted(costs, reverse=True) and len(set(costs)) == len(costs)
    assert costs[-1] == 4
