import pytest

from sievelab.lattice_points import build_sequence
from sievelab.localdata import build_local_table
from sievelab.quadforms import TernaryForm

REFERENCE_FORM = TernaryForm(1, 1, -3)
REFERENCE_T = 1


@pytest.fixture(scope="session")
def quadric():
    return REFERENCE_FORM


@pytest.fixture(scope="session")
def seq_cache():
    """Memoized weighted sequences on the reference quadric, projection x1."""
    cache = {}

    def get(T, projection="x1"):
        key = (float(T), projection)
        if key not in cache:
            [cache[key]] = build_sequence(REFERENCE_FORM, REFERENCE_T, [float(T)],
                                          2.0, projection)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def ref_table():
    return build_local_table(REFERENCE_FORM, REFERENCE_T, "x1", 200)
