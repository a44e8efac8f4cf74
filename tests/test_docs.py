"""The README names exactly the variants and config keys the code defines."""

import pathlib
import re

from ncopt.harness import CONFIG_KEYS, VARIANTS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_variants_line_lists_exactly_the_variants():
    line = README[README.index("Variants:"):]
    sentence = line[:line.index(". ")]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == VARIANTS


def test_config_table_lists_exactly_the_config_keys():
    rows = []
    for section, cell in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", README, re.M):
        # a cell's keys come before any remark after a semicolon
        for key, flag in re.findall(r"`(\w+)`(?: \(`(--[\w-]+)`)?",
                                    cell.split(";")[0]):
            rows.append((section, key, flag or None))
    expected = [(key.section, key.key, key.flag) for key in CONFIG_KEYS]
    assert sorted(rows, key=str) == sorted(expected, key=str)
