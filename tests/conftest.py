import random
import shutil
from importlib import resources

import pytest

from x3y9z2.dataio import load_descent_data, load_mw_data, load_tables, quartic_field


@pytest.fixture(scope="session")
def K():
    return quartic_field()


@pytest.fixture(scope="session")
def descent_data():
    return load_descent_data()


@pytest.fixture(scope="session")
def mw_data():
    return load_mw_data()


@pytest.fixture(scope="session")
def tables():
    return load_tables()


@pytest.fixture()
def rng():
    return random.Random(239)



@pytest.fixture()
def data_copy(tmp_path):
    """A directory holding a copy of the three trusted data files, for
    set_data_dir or --data-dir after a test has edited one of them."""
    src = resources.files("x3y9z2.data")
    for name in ("selmer_generators.json", "mw_generators.json", "paper_tables.json"):
        shutil.copy(str(src.joinpath(name)), tmp_path / name)
    return tmp_path
