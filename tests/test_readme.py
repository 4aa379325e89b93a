"""The README's library example runs against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    score, agreement = (float(word) for word in capsys.readouterr().out.split())
    assert math.isfinite(score)
    assert 0.0 <= agreement <= 1.0
