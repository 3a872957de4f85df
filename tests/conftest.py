import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from rncgeom import projective

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def computed(monkeypatch):
    """What the minor walks compute: (rows, minors) of each walk, whole
    or pruned, counting only the minors its reader takes."""
    log = SimpleNamespace(walks=[])
    walk = projective._maximal_minors

    def logged_walk(vectors, modulus=0, wanted=None):
        entry = len(log.walks)
        log.walks.append((len(vectors), 0))
        for taken, item in enumerate(walk(vectors, modulus, wanted), 1):
            log.walks[entry] = (len(vectors), taken)
            yield item

    monkeypatch.setattr(projective, "_maximal_minors", logged_walk)
    return log
