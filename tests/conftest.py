from __future__ import annotations

import pytest

from objsearch import planning
from objsearch.assets import AssetContext


@pytest.fixture(scope="session")
def ctx() -> AssetContext:
    return AssetContext.load()


@pytest.fixture
def no_inflation(monkeypatch):
    """Fail a test that reaches map inflation (:func:`planning.inflate_occupied`).
    A robot too wide for its map must be rejected before any map is
    inflated, and inflating for such a radius can take minutes."""
    def inflate(*args):
        raise AssertionError("the map was inflated")

    monkeypatch.setattr(planning, "inflate_occupied", inflate)
