import pytest

from synth import generate


@pytest.fixture(scope="session")
def small_corpus():
    """A compact synthetic corpus for unit-level end-to-end tests."""
    return generate(seed=0, n_groups=4, segs_per_chapter=12)
