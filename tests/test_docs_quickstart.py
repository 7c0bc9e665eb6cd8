"""The Quickstarts the docs show run as written.

README.md's ``## Quickstart`` block and the ``Quickstart::`` block of
the package docstring (``repro.__doc__``) are extracted and executed
in-process; each ends by printing the replayed GC time.
"""

import re
import textwrap
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parent.parent


def readme_quickstart() -> str:
    text = (REPO / "README.md").read_text()
    match = re.search(r"^## Quickstart\n\n```python\n(.*?)^```", text,
                      re.S | re.M)
    assert match, "README.md has no ## Quickstart python block"
    return match.group(1)


def docstring_quickstart() -> str:
    match = re.search(r"Quickstart::\n\n((?:    .*\n|\n)+)", repro.__doc__)
    assert match, "repro.__doc__ has no Quickstart:: block"
    return textwrap.dedent(match.group(1))


def run(code: str, filename: str, capsys) -> str:
    exec(compile(code, filename, "exec"), {"__name__": "quickstart"})
    return capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    out = run(readme_quickstart(), "README.md", capsys)
    assert re.fullmatch(r"GC took \d+\.\d us on Charon\n", out), out


def test_package_docstring_quickstart_runs(capsys):
    out = run(docstring_quickstart(), "repro/__init__.py", capsys)
    assert float(out) > 0, out
