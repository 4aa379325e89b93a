"""The README's library example runs against the current API, and every
public name is used by the package or named in the README."""

import ast
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


def _readme_code_words():
    """Every word inside the README's code blocks and `code` spans."""
    text = README.read_text()
    blocks = re.findall(r"```.*?```", text, flags=re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def _package_references(package):
    """Names that each module of ``package`` (``__init__.py`` aside) reads
    or imports, outside the top-level statement that defines the name."""
    found = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            defined = {getattr(statement, "name", None)} | {
                target.id for target in getattr(statement, "targets", []) if isinstance(target, ast.Name)
            }
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            found |= names - defined
    return found


def test_every_public_name_has_a_package_caller_or_readme_text():
    # A name that only tests call is a second way into the package that
    # no command takes: it is either used by the package or documented.
    import nldm

    package = Path(nldm.__file__).parent
    unused = set(nldm.__all__) - _package_references(package) - _readme_code_words()
    assert not sorted(unused)
