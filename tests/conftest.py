import pytest

from densilim import sampling


@pytest.fixture(autouse=True)
def empty_lattice_memo():
    """Every test samples from an empty memo: no tree or lattice that an
    earlier test built (perhaps with a patched builder) is read."""
    sampling._memo.clear()
    yield
    sampling._memo.clear()
