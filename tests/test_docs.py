"""The README names exactly the variants and config keys the code defines."""

import pathlib
import pkgutil
import re

import ncopt
from ncopt.harness import CONFIG_KEYS, VARIANTS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_variants_line_lists_exactly_the_variants():
    line = README[README.index("Variants:"):]
    sentence = line[:line.index(". ")]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == tuple(VARIANTS)


def test_config_table_lists_exactly_the_config_keys():
    rows = []
    for section, cell in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", README, re.M):
        # a cell's keys come before any remark after a semicolon
        for key, flag in re.findall(r"`(\w+)`(?: \(`(--[\w-]+)`)?",
                                    cell.split(";")[0]):
            rows.append((section, key, flag or None))
    expected = [(key.section, key.key, key.flag) for key in CONFIG_KEYS]
    assert sorted(rows, key=str) == sorted(expected, key=str)


def test_every_setting_the_readme_names_is_a_config_key():
    # a backticked lowercase `section.key` is a setting unless it names a
    # module, a file or an object attribute
    modules = {"ncopt"} | {m.name for m in pkgutil.iter_modules(ncopt.__path__)}
    not_settings = {"failures.csv", "report.records"}
    named = {"%s.%s" % pair for pair in
             re.findall(r"`([a-z_]+)\.([a-z_]+)\b(?![.\w])", README)}
    settings = {name for name in named - not_settings
                if name.partition(".")[0] not in modules}
    assert settings and settings <= {key.name for key in CONFIG_KEYS}
