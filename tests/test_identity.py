"""The statkit kernels reproduce the identity corpus (``identity.py``) bit
for bit: each group's sha256 is the one stored in ``data/identity.json``."""

import json
from pathlib import Path

import pytest

import identity

EXPECTED = json.loads((Path(__file__).parent / "data" / "identity.json").read_text())


@pytest.mark.parametrize("group", list(identity.GROUPS))
def test_group_output_is_unchanged(group):
    digest = identity.hashes([group])[group]
    assert digest == EXPECTED[group], f"the {group} outputs changed"
