"""The README's scheme table against the scheme registry."""

import os
import re

from lagfwi.iterations import SCHEMES

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_scheme_table_names_each_scheme_once():
    """The name column of the `## Schemes` table names every entry of
    iterations.SCHEMES exactly once, and nothing else."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Schemes\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert rows and sorted(names) == sorted(SCHEMES)
