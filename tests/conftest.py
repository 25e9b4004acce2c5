import pytest

from gbcsp.rng import SeedSpec


@pytest.fixture
def param_stream():
    return SeedSpec(20250809, 0).stream("test-params")
