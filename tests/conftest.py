import os
from pathlib import Path

import pytest

from semiforge import Semigroup, enumerate_genus

# pyproject's ``pythonpath`` puts src/ on this process's path; the CLI
# subprocesses of the acceptance suite need it too when the package is
# run from a checkout without being installed
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def semigroups_by_genus() -> dict[int, list[Semigroup]]:
    """All semigroups of genus <= 9, grouped by genus."""
    table = {}
    for g in range(10):
        items: list[Semigroup] = []
        enumerate_genus(g, items.append)
        table[g] = items
    return table


@pytest.fixture(scope="session")
def small_semigroups(semigroups_by_genus) -> list[Semigroup]:
    return [s for group in semigroups_by_genus.values() for s in group]
