"""System assembly (`build_case_study`) option tests."""

import pytest

from repro.core.system import APP_ID, build_case_study
from repro.workload.pages import PAGE_COUNT, Corpus
from repro.workload.profiles import DESKTOP_LAN


class TestBuildOptions:
    def test_pad_subset(self, small_corpus):
        system = build_case_study(
            corpus=small_corpus, calibrate=False, pad_ids=("direct", "bitmap")
        )
        pat = system.proxy.negotiation.pat(APP_ID)
        assert {n.pad_id for n in pat.leaves()} == {"direct", "bitmap"}

    def test_rho_threaded_into_model(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False, rho=0.6)
        assert system.proxy.negotiation.model.rho == 0.6

    def test_edge_count(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False, n_edges=5)
        assert len(system.deployment.edges) == 5

    def test_all_pads_pushed_to_every_edge(self, session_system):
        keys = set(session_system.deployment.origin.keys())
        assert len(keys) == 4
        for edge in session_system.deployment.edges:
            assert all(edge.has_cached(k) for k in keys)

    def test_signer_is_trusted_by_construction(self, session_system):
        from repro.core.system import SIGNER_NAME

        assert session_system.trust_store.is_trusted(SIGNER_NAME)

    def test_proactive_flag_reaches_server(self, small_corpus):
        system = build_case_study(
            corpus=small_corpus, calibrate=False, proactive=True
        )
        assert system.appserver.proactive

    def test_clients_round_robin_over_sites(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False)
        c1 = system.make_client(DESKTOP_LAN)
        c2 = system.make_client(DESKTOP_LAN)
        assert c1.name != c2.name

    def test_dropped_clients_are_not_pinned(self, small_corpus):
        import gc

        system = build_case_study(corpus=small_corpus, calibrate=False)
        kept = system.make_client(DESKTOP_LAN, name="kept")
        for _ in range(2000):
            system.make_client(DESKTOP_LAN)
        gc.collect()
        assert len(system.clients) <= 2
        assert kept in system.clients

    def test_live_clients_stay_visible_to_the_fault_injector(self, small_corpus):
        from repro.faults.injector import _case_study_link_of

        system = build_case_study(corpus=small_corpus, calibrate=False)
        held = [system.make_client(DESKTOP_LAN) for _ in range(3)]
        assert {c.name for c in system.clients} == {c.name for c in held}
        link_of = _case_study_link_of(system)
        assert link_of(held[1].name, "proxy") == DESKTOP_LAN.link.network_type.value
        system.clients.clear()
        assert len(system.clients) == 0
        assert link_of(held[1].name, "proxy") == "proxy"

    def test_default_overheads_cover_all_default_pads(self):
        from repro.core.appserver import default_pad_overheads

        assert {"direct", "gzip", "vary", "bitmap", "fixed"} <= set(
            default_pad_overheads()
        )


class TestFullScaleCorpus:
    """The paper's exact workload spec: '75 Web pages with the average
    size of about 135KB consisting of 5KB text and four images'."""

    def test_75_pages_at_135kb(self):
        corpus = Corpus()  # full defaults
        assert corpus.n_pages == PAGE_COUNT == 75
        sample = [corpus.page(i) for i in (0, 17, 42, 74)]
        for page in sample:
            assert len(page.images) == 4
            assert 125_000 <= page.size <= 145_000
        avg = sum(p.size for p in sample) / len(sample)
        assert abs(avg - 135_000) < 10_000

    def test_last_page_accessible_and_deterministic(self):
        assert Corpus().page(74).encode() == Corpus().page(74).encode()
