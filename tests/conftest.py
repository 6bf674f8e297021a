import pytest

from pudsim import (
    DEFAULT_PROFILE,
    Experiment,
    SimraGroupMap,
    SubarrayLayout,
    load_profile,
)


@pytest.fixture(scope="session")
def profile():
    return load_profile(DEFAULT_PROFILE)


@pytest.fixture(scope="session")
def worstcase():
    return load_profile("worstcase")


@pytest.fixture(scope="session")
def layout():
    return SubarrayLayout.uniform(1024, 256)


@pytest.fixture(scope="session")
def groups(layout):
    return SimraGroupMap.aligned_blocks(layout, 32)


@pytest.fixture()
def experiment(profile, groups):
    return Experiment(profile, groups, seed=7)
