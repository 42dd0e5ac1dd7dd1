"""Golden digest of generated scenarios.

The digest pins the exact serialized bytes of a small suite of the
benchmark's generation shape, so a change to map building, placement, the
scenario round trip or the SPL reference search that alters any scenario,
or which scenarios are rejected, fails here.
"""

from __future__ import annotations

import hashlib

from objsearch.suitegen import SuiteParams, generate_suite
from objsearch.world import load_scenario, serialize_scenario

SUITE = SuiteParams(count=6, rooms=4, landmarks=8, map_side=20.0)
SUITE_SEED = 0
SCENARIOS_SHA256 = "ad84d57db23b7db18f675bb3b713cdf07a11e25a38504f4ab20fba10831620d9"


def test_generated_scenarios_are_pinned(ctx):
    texts = [serialize_scenario(s) for s in generate_suite(SUITE, SUITE_SEED, ctx=ctx)]
    blob = "".join(text + "\n" for text in texts)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == SCENARIOS_SHA256
    for text in texts:
        assert serialize_scenario(load_scenario(text)) == text
