import os

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci replays the same examples on every run, so a property
# test cannot flake CI; local runs keep exploring new examples
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep every test's coefficient/correlation cache in a throwaway dir."""
    monkeypatch.setenv("SDMCAP_CACHE_DIR", str(tmp_path / "cache"))
