"""Schedules are pure functions of the seed and have the shape the README claims."""

import itertools

import pytest

from workloads import CHURN_VERSIONS, PAPER_PAGES, WORKLOADS, schedule_sha1


def head(name, seed, client=0, n=300):
    return list(itertools.islice(WORKLOADS[name].schedule(seed, client), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_schedule_other_seed_other_schedule(name):
    assert head(name, 7) == head(name, 7)
    assert head(name, 7) != head(name, 8)
    assert schedule_sha1(WORKLOADS[name], 7) == schedule_sha1(WORKLOADS[name], 7)
    assert schedule_sha1(WORKLOADS[name], 7) != schedule_sha1(WORKLOADS[name], 8)


@pytest.mark.parametrize("name", ["direct_tcp", "gzip_inproc", "store_hit_async"])
def test_warm_schedules_cover_every_page_once_per_block(name):
    sessions = head(name, 3, n=2 * PAPER_PAGES)
    for block in (sessions[:PAPER_PAGES], sessions[PAPER_PAGES:]):
        assert sorted(s.page for s in block) == list(range(PAPER_PAGES))
    assert {(s.old_version, s.new_version, s.env) for s in sessions} == {(0, 1, None)}


def test_first_contact_blocks_mix_known_and_never_seen_environments():
    sessions = head("first_contact", 5, n=12 * 20)
    known = {e.device.cpu_mhz for e in (s.env for s in sessions)
             if e.device.cpu_mhz == int(e.device.cpu_mhz)}
    fresh = [s.env.device.cpu_mhz for s in sessions
             if s.env.device.cpu_mhz != int(s.env.device.cpu_mhz)]
    assert len(known) == 3
    assert len(fresh) == len(sessions) // 2      # proxy cache hit ratio 0.5
    assert len(set(fresh)) == len(fresh)         # each one a new cache key
    for i in range(0, len(sessions), 12):
        block = sessions[i:i + 12]
        assert sorted(s.page for s in block) == [0] * 6 + [1] * 6
        assert len({(s.env.label, s.page) for s in block}) == 6


def test_churn_never_repeats_a_pair_and_clients_own_disjoint_pages():
    a = list(WORKLOADS["store_churn_async"].schedule(1, 0))
    b = list(WORKLOADS["store_churn_async"].schedule(1, 1))
    pairs = [(s.page, s.old_version) for s in a + b]
    assert len(pairs) == len(set(pairs)) == PAPER_PAGES * (CHURN_VERSIONS - 1)
    assert {s.page % 2 for s in a} == {0} and {s.page % 2 for s in b} == {1}
    assert all(s.new_version == s.old_version + 1 for s in a + b)
    # One version step at a time: a page's records are reused one round later.
    assert [s.old_version for s in a] == sorted(s.old_version for s in a)
