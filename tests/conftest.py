import random

import pytest
from hypothesis import settings

from gptgeom import geometry
from gptgeom.gallery import polytopic_entries
from gptgeom.randomgen import random_system

SEED = 20260810

# Every property test is reproducible and untimed: a fixed example sequence,
# no example database, no per-example deadline.  Tests set only max_examples.
settings.register_profile("gptgeom", deadline=None, derandomize=True, database=None)
settings.load_profile("gptgeom")


@pytest.fixture(scope="session")
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def gallery_systems():
    """The seven exact-vertex gallery systems."""
    return [(e.name, e.gpt_system()) for e in polytopic_entries()]


@pytest.fixture(scope="session")
def random_systems():
    """Fifty random valid systems with ambient dimension up to five."""
    gen = random.Random(SEED + 1)
    systems = []
    for dim, count in ((2, 20), (3, 15), (4, 10), (5, 5)):
        for _ in range(count):
            systems.append(random_system(gen, dim))
    return systems


@pytest.fixture(scope="session")
def fifty_seven(gallery_systems, random_systems):
    return [s for _, s in gallery_systems] + random_systems


@pytest.fixture
def dd_calls(monkeypatch):
    """Count the passes that go through ``geometry._dd``: one entry, the
    row count, per pass."""
    calls = []
    real = geometry._dd

    def counted(normals, dim):
        calls.append(len(normals))
        return real(normals, dim)

    monkeypatch.setattr(geometry, "_dd", counted)
    return calls
