import functools

import pytest

from kedges.constructions import SrConfig, build_sr


@pytest.fixture(scope="session")
def sr():
    """build_sr(SrConfig(r=r)) as a function of r, each r built once."""
    return functools.cache(lambda r: build_sr(SrConfig(r=r)))


@pytest.fixture(scope="session")
def s3(sr):
    return sr(3)
