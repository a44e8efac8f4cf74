import pytest
from hypothesis import settings

from ncopt.harness import OUTPUT_DIR_ENV

# derandomized so every run of the suite draws the same examples
settings.register_profile("ncopt", derandomize=True, deadline=None)
# fresh random examples, thousands of them, for a long run selected with
# --hypothesis-profile=fuzz; a profile registered after "ncopt" inherits
# its derandomize=True, so it is set here
settings.register_profile("fuzz", derandomize=False, deadline=None,
                          max_examples=3000)
settings.load_profile("ncopt")


@pytest.fixture(autouse=True)
def _output_dir_in_tmp(tmp_path, monkeypatch):
    """Runs that are given no output directory write under the test's
    temporary directory, never into the working tree."""
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ncopt_runs"))
