"""Synthetic site generator: corpus structure, determinism, churn."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import derive_rng
from repro.web.dom import Header, Heading
from repro.web.sites import CATEGORY_REFRESH_HOURS, SiteGenerator

#: Latest hour the query-order property asks about.
_MAX_HOUR = 40


@functools.lru_cache(maxsize=None)
def _passed_ticks(seed: int, url: str, category: str) -> tuple[int, ...]:
    """The refresh ticks of ``url`` up to :data:`_MAX_HOUR` whose churn
    gate passed: the direct definition of a page's version."""
    cadence = CATEGORY_REFRESH_HOURS[category]
    return tuple(
        h
        for h in range(cadence, _MAX_HOUR + 1, cadence)
        if derive_rng(seed, "churn", url, h).random()
        < SiteGenerator.diurnal_activity(h)
    )


def _direct_version(gen: SiteGenerator, url: str, hour: int) -> int:
    category = gen.website(url.partition("/")[0]).category
    return sum(1 for h in _passed_ticks(gen.seed, url, category) if h <= hour)


class TestCorpus:
    def test_paper_dimensions(self, site_generator):
        """25 sites, 100 pages: 25 landing + 75 internal (Section 4)."""
        sites = site_generator.websites()
        assert len(sites) == 25
        urls = site_generator.all_urls()
        assert len(urls) == 100
        assert sum(1 for u in urls if u.endswith("/")) == 25

    def test_all_pk_domains(self, site_generator):
        for site in site_generator.websites():
            assert site.domain.endswith(".pk") or ".pk" in site.domain

    def test_category_mix(self, site_generator):
        categories = {s.category for s in site_generator.websites()}
        assert {"news", "ecommerce", "government"} <= categories

    def test_ranks_sequential(self, site_generator):
        assert [s.rank for s in site_generator.websites()] == list(range(1, 26))

    def test_large_corpus_n200(self):
        """Figure 4(c)'s N=200 projection needs 50 .pk sites."""
        gen = SiteGenerator(seed=1, n_sites=50)
        assert len(gen.all_urls()) == 200

    def test_unknown_domain_raises(self, site_generator):
        with pytest.raises(KeyError):
            site_generator.website("not-a-site.pk")


class TestPages:
    def test_deterministic(self, site_generator):
        url = site_generator.all_urls()[0]
        a = site_generator.page(url, 5)
        b = site_generator.page(url, 5)
        assert a.elements == b.elements

    def test_landing_has_header_and_stories(self, site_generator):
        page = site_generator.page(site_generator.websites()[0].landing_url, 0)
        assert isinstance(page.elements[0], Header)
        assert any(isinstance(e, Heading) for e in page.elements)

    def test_internal_links_stay_on_site(self, site_generator):
        site = site_generator.websites()[0]
        page = site_generator.page(site.landing_url, 0)
        for href in page.internal_links():
            if href.startswith("action:"):
                continue
            assert href.startswith(site.domain)

    def test_article_pages_render(self, site_generator):
        site = site_generator.websites()[0]
        url = f"{site.domain}{site.internal_paths[0]}"
        page = site_generator.page(url, 0)
        assert len(page.elements) > 5


class TestChurn:
    def test_epoch_monotone(self, site_generator):
        url = site_generator.all_urls()[0]
        epochs = [site_generator.effective_epoch(url, h) for h in range(0, 48, 4)]
        assert all(a <= b for a, b in zip(epochs, epochs[1:]))

    def test_changed_at_consistent_with_epoch(self, site_generator):
        url = site_generator.all_urls()[0]
        for hour in range(1, 30):
            changed = site_generator.changed_at(url, hour)
            delta = site_generator.effective_epoch(
                url, hour
            ) != site_generator.effective_epoch(url, hour - 1)
            assert changed == delta

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.sampled_from([13, 14]),
        hours=st.lists(st.integers(-2, _MAX_HOUR), min_size=1, max_size=12),
    )
    def test_epoch_memo_independent_of_query_order(self, seed, hours):
        """``versions(h)`` equals the direct count of passed churn gates
        for every URL, whatever order a fresh generator is asked hours
        in; ``effective_epoch`` reads it, and a path outside the corpus
        on a corpus domain counts its own gates."""
        gen = SiteGenerator(seed=seed, n_sites=4)
        urls = gen.all_urls()
        outside = f"{gen.websites()[0].domain}/ads/promo"
        for hour in hours:
            versions = gen.versions(hour)
            assert not versions.flags.writeable
            assert versions.tolist() == [_direct_version(gen, u, hour) for u in urls]
            assert [gen.effective_epoch(u, hour) for u in urls] == versions.tolist()
            assert gen.effective_epoch(outside, hour) == _direct_version(
                gen, outside, hour
            )

    def test_news_churns_more_than_government(self, site_generator):
        by_cat = {}
        for site in site_generator.websites():
            by_cat.setdefault(site.category, site)
        if "news" in by_cat and "government" in by_cat:
            news_changes = sum(
                site_generator.changed_at(by_cat["news"].landing_url, h)
                for h in range(1, 72)
            )
            gov_changes = sum(
                site_generator.changed_at(by_cat["government"].landing_url, h)
                for h in range(1, 72)
            )
            assert news_changes > gov_changes

    def test_diurnal_activity_shape(self):
        assert SiteGenerator.diurnal_activity(3) < SiteGenerator.diurnal_activity(12)
        assert SiteGenerator.diurnal_activity(12) == 1.0

    def test_content_actually_changes_across_epochs(self, site_generator):
        url = site_generator.all_urls()[0]
        base = site_generator.page(url, 0)
        # Find an hour where a change was gated in.
        for hour in range(1, 48):
            if site_generator.changed_at(url, hour):
                assert site_generator.page(url, hour).elements != base.elements
                return
        pytest.fail("no content change in 48 hours")

    def test_refresh_cadences_defined(self):
        assert CATEGORY_REFRESH_HOURS["news"] == 1
        assert CATEGORY_REFRESH_HOURS["government"] == 24
