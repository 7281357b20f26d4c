"""Shared fixtures: kernel tables and constants.

The default-resolution tables are session-scoped because several test
modules share them.
"""

import numpy as np
import pytest

from homogenize import build_kernel_table, dimension_constants
from homogenize.kernel import DEFAULTS


@pytest.fixture(scope="session")
def table2_small():
    """Cheap 2D table for unit tests that only need rough values."""
    return build_kernel_table(2, 128, 10)


@pytest.fixture(scope="session")
def table2():
    return build_kernel_table(2, *DEFAULTS[2])


@pytest.fixture(scope="session")
def table3():
    return build_kernel_table(3, *DEFAULTS[3])


@pytest.fixture(scope="session")
def table4():
    return build_kernel_table(4, *DEFAULTS[4])


@pytest.fixture(scope="session")
def table5():
    return build_kernel_table(5, *DEFAULTS[5])


@pytest.fixture(scope="session")
def const2(table2):
    return dimension_constants(table=table2)[0]


@pytest.fixture(scope="session")
def const3(table3):
    return dimension_constants(table=table3)[0]


@pytest.fixture(scope="session")
def const4(table4):
    return dimension_constants(table=table4)[0]


@pytest.fixture(scope="session")
def const5(table5):
    return dimension_constants(table=table5)[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
