import pytest
from hypothesis import settings

from ncopt.harness import OUTPUT_DIR_ENV

# derandomized so every run of the suite draws the same examples
settings.register_profile("ncopt", derandomize=True, deadline=None)
settings.load_profile("ncopt")


@pytest.fixture(autouse=True)
def _output_dir_in_tmp(tmp_path, monkeypatch):
    """Runs that are given no output directory write under the test's
    temporary directory, never into the working tree."""
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ncopt_runs"))
