"""Documentation against the code it describes: the README's scheme table
against the scheme registry, the config module's schema against its key
table."""

import os
import re

from lagfwi import config
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


def test_config_docstring_names_each_key_once():
    """The key column of the config module docstring's schema (the text of
    each 4-space-indented line before its first run of two spaces) names
    every key of config._KEYS exactly once, <which> standing for true and
    init, and nothing else."""
    schema = config.__doc__.split("units:\n\n", 1)[1].split("\n\n", 1)[0]
    keys = []
    for line in schema.splitlines():
        if line.startswith(" " * 5):  # a description's continuation line
            continue
        for name in re.split(r"\s{2,}", line.strip(), maxsplit=1)[0].split():
            keys += [name.replace("<which>", w) for w in ("true", "init")] if "<which>" in name else [name]
    assert keys and sorted(keys) == sorted(config._KEYS)


def test_script_lines_set_the_package_path():
    """Every `python3 scripts/` line of the `## Scripts` block sets
    PYTHONPATH=src, so it runs from a checkout without an installed
    package."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("\n## Scripts\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if "python3 scripts/" in line]
    assert lines and all(line.startswith("PYTHONPATH=src python3 scripts/") for line in lines)
