"""Tests for the shared front-end every system inherits from ``ERSystem``:
the blocking substrate, the profile store and their cost charge."""

from __future__ import annotations

import pytest

from repro.api import ERSession
from repro.blocking.blocks import BlockCollection
from repro.core.increments import Increment
from repro.evaluation.experiments import SYSTEM_NAMES
from repro.progressive.base import BatchProgressiveSystem
from repro.streaming.system import PipelineCosts

from tests.conftest import make_profile

FIRST = Increment(0, (
    make_profile(0, "matrix 1999 wachowski", source=0),
    make_profile(1, "matrix wachowski 1999 film", source=1),
    make_profile(2, "heat 1995 mann", source=0),
))
SECOND = Increment(1, (
    make_profile(3, "inception 2010 nolan", source=0),
    make_profile(4, "inception nolan 2010 movie", source=1),
))


#: Token blocking is the one blocking substrate.  Case ids keep the ``token``
#: part they carried while the substrate was a parameter, so that a case
#: keeps its name across the history of the suite.
@pytest.fixture(params=SYSTEM_NAMES, ids=lambda name: f"{name}-token")
def system(request, toy_clean_clean_dataset):
    return ERSession(toy_clean_clean_dataset).build_system(request.param)


def test_index_charges_every_profile_in_order(system):
    costs = PipelineCosts()
    expected = 0.0
    for profile in FIRST:
        expected += costs.per_profile + costs.per_token * len(profile.tokens())
    assert system._index(FIRST) == expected
    assert system._index(Increment(2, ())) == 0.0
    assert system.collection.profiles_indexed() == len(FIRST)
    assert system.collection.clean_clean
    assert type(system.collection) is BlockCollection


def test_profiles_is_a_live_read_only_view(system):
    view = system.profiles
    assert len(view) == 0
    system._index(FIRST)
    assert [view[profile.pid] for profile in FIRST] == list(FIRST)
    with pytest.raises(KeyError):
        view[42]
    with pytest.raises(TypeError):
        view[42] = FIRST[0]


def test_reindexing_a_pid_raises(system):
    system._index(FIRST)
    with pytest.raises(ValueError, match="already indexed"):
        system._index(Increment(1, (make_profile(0, "matrix again", source=0),)))


def test_ingest_keeps_every_profile_and_local_scope_indexes_only_the_newest(system):
    """PPS-LOCAL starts its collection over at every increment but keeps its
    profile store: pairs charged before the increment still resolve."""
    system.ingest(FIRST)
    system.ingest(SECOND)
    newest_only = getattr(system, "scope", "all") == "last"
    indexed = SECOND.profiles if newest_only else FIRST.profiles + SECOND.profiles
    assert dict(system.profiles) == {p.pid: p for p in FIRST.profiles + SECOND.profiles}
    assert system.collection.profiles_indexed() == len(indexed)
    if isinstance(system, BatchProgressiveSystem):
        assert system.gauges()["profiles_indexed"] == system.describe()["profiles"] == len(indexed)
