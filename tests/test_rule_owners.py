"""Each input rule has one owner.

The lower bound of an integer, the p0 interval and the 64-bit seed are
written in forgesim.errors, the replica stream in forgesim.simulate, and the
observed range that one month must lie in in forgesim.snapshots; every other
module calls them. A copy elsewhere is a second wording of the
same rule, free to drift.
"""

from pathlib import Path

import numpy as np
import pytest

from forgesim import DomainError, SimParams, iterate_master, rho_from_p0

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "forgesim").glob("*.py"))


@pytest.mark.parametrize("text, owner", [
    ("must be >=", "errors.py"),
    ("must lie in (0,1)", "errors.py"),
    ("64-bit", "errors.py"),
    ("SeedSequence(", "simulate.py"),
    ("outside observed range [", "snapshots.py"),
])
def test_rule_is_written_only_in_its_owner(text, owner):
    assert [path.name for path in SOURCES if text in path.read_text()] == [owner]


@pytest.mark.parametrize("call", [
    lambda p0: SimParams(p0=p0, n_steps=10, seed=1),
    lambda p0: rho_from_p0(p0),
    lambda p0: iterate_master(p0, 10),
], ids=["SimParams", "rho_from_p0", "iterate_master"])
@pytest.mark.parametrize("p0", [np.array([0.5]), np.array([0.2, 0.5]), [0.5]],
                         ids=["array1", "array2", "list1"])
def test_p0_rule_rejects_arrays_at_every_caller(call, p0):
    with pytest.raises(DomainError, match=r"^p0 must lie in \(0,1\), got "):
        call(p0)
