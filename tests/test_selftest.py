"""The invariant battery, one test per check; ``pytest -k <name>`` runs
one check."""

import pytest

from weldfcs import selftest


@pytest.mark.parametrize("name", [name for name, _, _ in selftest.CHECKS])
def test_check(name):
    [result] = selftest.run([name])
    assert result["status"] == "pass", result
