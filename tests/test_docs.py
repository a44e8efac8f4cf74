"""The README names exactly the variants, trace columns and config keys the
code defines, and quotes the public functions' signatures as they are."""

import importlib
import inspect
import json
import pathlib
import pkgutil
import re

import ncopt
from ncopt.deterministic import TRACE_COLUMNS
from ncopt.harness import CONFIG_KEYS, VARIANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_variants_line_lists_exactly_the_variants():
    line = README[README.index("Variants:"):]
    sentence = line[:line.index(". ")]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == tuple(VARIANTS)


def test_trace_columns_are_exactly_the_trace_columns():
    columns = re.search(r"trace with fixed columns `([\w,]+)`", README)
    assert tuple(columns.group(1).split(",")) == TRACE_COLUMNS


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


def _ncopt_callable(name):
    """The public ncopt function, class or method a dotted name such as
    `descent_direction` or `StochasticReport.exact_gradient_norms` refers
    to, looked up in the package and each of its modules; None if none."""
    if name.startswith("_") or "._" in name:
        return None
    modules = [ncopt] + [importlib.import_module("ncopt." + m.name)
                         for m in pkgutil.iter_modules(ncopt.__path__)]
    for module in modules:
        found = module
        for part in name.split("."):
            found = getattr(found, part, None)
        if callable(found) and getattr(found, "__module__", "").startswith("ncopt"):
            return found
    return None


def test_every_quoted_signature_matches_the_code():
    # a backticked `name(params)` that names an ncopt function must list its
    # parameters in order, and any default it quotes must be the default
    checked = set()
    for name, quoted in re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", README):
        function = _ncopt_callable(name)
        if function is None:
            continue
        parameters = [p for p in inspect.signature(function).parameters.values()
                      if p.name != "self"]
        entries = [entry.strip() for entry in quoted.split(",") if entry.strip()]
        assert [entry.partition("=")[0] for entry in entries] == \
            [p.name for p in parameters], name
        for entry, parameter in zip(entries, parameters):
            if "=" in entry:
                assert entry.partition("=")[2] == repr(parameter.default), \
                    (name, entry)
        checked.add(name)
    assert {"descent_direction", "negative_curvature_direction",
            "certify_curvature_direction", "modified_newton_shift",
            "leftmost_eigenpair"} <= checked


def test_every_module_attribute_the_readme_names_resolves():
    # a backticked `module.attr`, or `ncopt.module.attr`, whose module is an
    # ncopt module must name something that module defines
    modules = {m.name for m in pkgutil.iter_modules(ncopt.__path__)}
    named = {(module, attr) for module, attr in
             re.findall(r"`(?:ncopt\.)?([a-z_]+)\.(\w+(?:\.\w+)*)", README)
             if module in modules}
    for module, attr in named:
        found = importlib.import_module("ncopt." + module)
        for part in attr.split("."):
            assert hasattr(found, part), "%s.%s" % (module, attr)
            found = getattr(found, part)
    assert len(named) >= 12


def test_fingerprint_count_is_the_golden_count():
    stated = re.search(r"field\s+of\s+(\d+)\s+solves", README)
    golden = json.loads((ROOT / "tests" / "golden" / "fingerprints.json").read_text())
    assert int(stated.group(1)) == len(golden)
