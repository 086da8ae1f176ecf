"""Each input rule has one owner.

The lower bound of an integer, the p0 interval and the 64-bit seed are
written in forgesim.errors, and the replica stream in forgesim.simulate;
every other module calls them. A copy elsewhere is a second wording of the
same rule, free to drift.
"""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "forgesim").glob("*.py"))


@pytest.mark.parametrize("text, owner", [
    ("must be >=", "errors.py"),
    ("must lie in (0,1)", "errors.py"),
    ("64-bit", "errors.py"),
    ("SeedSequence(", "simulate.py"),
])
def test_rule_is_written_only_in_its_owner(text, owner):
    assert [path.name for path in SOURCES if text in path.read_text()] == [owner]
