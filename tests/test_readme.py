"""The README's `sigma eval` examples print the values their comments show.

The examples are read from README.md itself: a line `sigma eval -e "EXPR"`
with the value either as a trailing `# VALUE` comment or on the next line as
`# VALUE`.  Lines with global flags (`--field`, `--format`) are not examples
of a printed value and are skipped by the pattern.
"""

import re
from pathlib import Path

from click.testing import CliRunner

from sigmavect.cli import main
from sigmavect.expr import BUILTINS

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = re.compile(r'^sigma eval -e "(?P<expr>[^"]+)"\s*(?:#\s*(?P<value>.+))?$')
BUILTIN = re.compile(r"^- `(?P<name>\w+)\((?P<signature>.*)\)`:")


def readme_examples():
    lines = README.read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        m = EXAMPLE.match(line.strip())
        if not m:
            continue
        value = m.group("value")
        if value is None and i + 1 < len(lines) and lines[i + 1].startswith("# "):
            value = lines[i + 1][2:]
        if value is not None:
            out.append((m.group("expr"), value.strip()))
    return out


def test_readme_lists_the_four_valued_examples():
    heads = [expr.split("(")[0] for expr, _ in readme_examples()]
    assert heads == ["truncate", "pair", "perp", "derive"]


def test_readme_examples_print_their_values():
    for expr, value in readme_examples():
        r = CliRunner().invoke(main, ["eval", "-e", expr])
        assert r.exit_code == 0, (expr, r.output)
        assert r.output.strip() == value, expr


def test_readme_lists_every_builtin_with_its_signature():
    lines = README.read_text(encoding="utf-8").splitlines()
    listed = dict(m.group("name", "signature") for m in map(BUILTIN.match, lines) if m)
    assert listed == BUILTINS
