from __future__ import annotations

import pytest

from objsearch import planning
from objsearch.assets import AssetContext


@pytest.fixture(scope="session")
def ctx() -> AssetContext:
    return AssetContext.load()


@pytest.fixture
def no_inflation(monkeypatch):
    """Fail a test that reaches map inflation, which allocates a disk of
    offsets as wide as the robot."""
    def inflate(*args):
        raise AssertionError("the map was inflated")

    monkeypatch.setattr(planning, "_disk_offsets", inflate)
