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
    """What the minor walks and bracket tables compute: (rows, minors) of
    each walk, counting only the minors its reader takes, and each label
    set computed on its own."""
    log = SimpleNamespace(walks=[], single=[])
    walk = projective._maximal_minors
    compute = projective.BracketTable.__missing__

    def logged_walk(vectors, modulus=0):
        entry = len(log.walks)
        log.walks.append((len(vectors), 0))
        for taken, item in enumerate(walk(vectors, modulus), 1):
            log.walks[entry] = (len(vectors), taken)
            yield item

    def logged(self, cols):
        log.single.append(cols)
        return compute(self, cols)

    monkeypatch.setattr(projective, "_maximal_minors", logged_walk)
    monkeypatch.setattr(projective.BracketTable, "__missing__", logged)
    return log
