"""Deterministic generator of the paper's 100-page Pakistani web corpus.

The evaluation corpus is 25 popular .pk sites (from the Tranco slice),
each contributing its landing page plus three internal pages — 100 pages
total — re-rendered hourly for three days (Section 4).  Content is a
pure function of ``(seed, domain, path, content_epoch)``: a page's epoch
advances on its category's refresh cadence (news hourly, government
rarely), which is what drives the broadcast-backlog dynamics of
Figure 4(c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng
from repro.web.dom import (
    AdBanner,
    Divider,
    Footer,
    Header,
    Heading,
    ImageBlock,
    LinkGrid,
    LinkList,
    Page,
    Paragraph,
    SearchBox,
    Thumbnail,
)
from repro.web.tranco import TrancoList

__all__ = [
    "Website",
    "SiteGenerator",
    "CATEGORY_REFRESH_HOURS",
    "INTERNAL_PAGES_PER_SITE",
]

#: Internal pages each site contributes beside its landing page (the
#: paper's corpus: 25 sites, 100 pages).
INTERNAL_PAGES_PER_SITE = 3

#: Hours between content refreshes, per category.
CATEGORY_REFRESH_HOURS = {
    "news": 1,
    "sports": 2,
    "portal": 3,
    "ecommerce": 6,
    "education": 12,
    "government": 24,
}

_VOCAB = (
    "Pakistan Lahore Karachi Islamabad Punjab Sindh minister assembly court "
    "cricket match series wicket captain stadium rupee market price export "
    "budget economy education exam result university student campus degree "
    "government policy election party leader meeting announcement statement "
    "weather monsoon rain temperature city traffic road project development "
    "health hospital doctor vaccine mobile internet service network power "
    "electricity gas supply water agriculture wheat cotton farmer village "
    "business trade industry factory worker salary bank loan digital online "
    "shopping order delivery discount sale brand fashion food recipe family "
    "festival eid ramadan holiday travel tourism mountain valley river the "
    "for with over under after before against between during new latest big "
    "national local official special final first second third million crore"
).split()

_HEADLINE_TEMPLATES = [
    "{A} {B} announces {C} {D} plan",
    "{A} {B} rises as {C} {D} continues",
    "Breaking: {A} {B} in {C} after {D}",
    "{A} {B} wins {C} {D} title",
    "Report: {A} {B} to expand {C} {D}",
    "{A} {B} warns of {C} {D} shortage",
]

_CATEGORY_COLORS = {
    "news": (160, 30, 30),
    "sports": (20, 110, 50),
    "portal": (28, 60, 120),
    "ecommerce": (220, 90, 20),
    "education": (60, 40, 110),
    "government": (0, 70, 60),
}


@dataclass(frozen=True)
class Website:
    """One site of the corpus: a landing page plus internal paths."""

    domain: str
    category: str
    rank: int  # 1-based rank within the corpus
    weight: float  # popularity weight for scheduling
    internal_paths: tuple[str, ...]

    @property
    def landing_url(self) -> str:
        return f"{self.domain}/"

    def urls(self) -> list[str]:
        return [self.landing_url] + [f"{self.domain}{p}" for p in self.internal_paths]


def _categorise(domain: str) -> str:
    if ".gov." in domain or "gov" in domain.split(".")[0]:
        return "government"
    if ".edu." in domain or any(k in domain for k in ("edu", "campus", "portal", "uet", "nust", "aiou", "vu")):
        return "education"
    if any(k in domain for k in ("mart", "shop", "bazaar", "daraz", "zameen", "wheels", "foodpanda", "rozee", "bykea", "oladoc", "telemart")):
        return "ecommerce"
    if any(k in domain for k in ("cricket", "psl", "score")):
        return "sports"
    if any(k in domain for k in ("news", "dawn", "jang", "dunya", "tribune", "samaa", "ary", "geo", "express", "bol", "such", "headline")):
        return "news"
    return "portal"


class SiteGenerator:
    """Builds the ranked corpus and generates page content per hour."""

    def __init__(self, seed: int = 0, n_sites: int = 25) -> None:
        self.seed = seed
        self.n_sites = n_sites
        entries = TrancoList(seed=seed, min_pk=n_sites).top(n_sites, suffix=".pk")
        if len(entries) < n_sites:
            raise ValueError(
                f"Tranco slice has only {len(entries)} .pk domains, need {n_sites}"
            )
        self._sites: list[Website] = []
        for i, entry in enumerate(entries):
            category = _categorise(entry.domain)
            paths = tuple(
                f"/{category}/story-{j}"
                for j in range(1, INTERNAL_PAGES_PER_SITE + 1)
            )
            self._sites.append(
                Website(entry.domain, category, i + 1, entry.weight, paths)
            )
        self._by_domain = {site.domain: site for site in self._sites}
        self._urls = [url for site in self._sites for url in site.urls()]
        self._index = {url: i for i, url in enumerate(self._urls)}
        self._cadence = np.array(
            [
                CATEGORY_REFRESH_HOURS[site.category]
                for site in self._sites
                for _ in site.urls()
            ]
        )
        # versions(h) of every hour up to the latest asked; hour 0 is all 0.
        start = np.zeros(len(self._urls), dtype=np.int64)
        start.flags.writeable = False
        self._versions = [start]

    def websites(self) -> list[Website]:
        """The ranked 25-site corpus."""
        return list(self._sites)

    def website(self, domain: str) -> Website:
        try:
            return self._by_domain[domain]
        except KeyError:
            raise KeyError(f"unknown domain {domain!r}") from None

    def all_urls(self) -> list[str]:
        """All 100 corpus URLs (25 landing + 75 internal)."""
        return list(self._urls)

    # -- content ------------------------------------------------------------

    def content_epoch(self, category: str, hour: int) -> int:
        """Upper bound on refreshes this category has seen by ``hour``."""
        return hour // CATEGORY_REFRESH_HOURS[category]

    @staticmethod
    def diurnal_activity(hour_of_day: int) -> float:
        """Probability that a due refresh actually changes content.

        Newsrooms and shops update far more during the day; this gate is
        what gives the broadcast backlog its daily sawtooth (Fig. 4(c)).
        """
        h = hour_of_day % 24
        if 0 <= h < 6:
            return 0.2
        if 6 <= h < 9 or 18 <= h < 23:
            return 0.7
        if 9 <= h < 18:
            return 1.0
        return 0.4  # 23:00

    def versions(self, hour: int) -> np.ndarray:
        """Content version of every corpus page at ``hour``, in
        :meth:`all_urls` order (a read-only array).

        A page's version counts its category's refresh ticks up to
        ``hour`` that passed the diurnal gate, so its appearance changes
        exactly when a refresh really happened.  Each hour is computed
        once, from the hour before, and kept: one churn draw per (page,
        tick) in the generator's life, whatever order hours are asked in.
        """
        memo = self._versions
        while len(memo) <= hour:
            tick = len(memo)
            version = memo[-1].copy()
            for i in np.flatnonzero(tick % self._cadence == 0).tolist():
                if self._refreshed(self._urls[i], tick):
                    version[i] += 1
            version.flags.writeable = False
            memo.append(version)
        return memo[max(hour, 0)]

    def _refreshed(self, url: str, tick: int) -> bool:
        """Did the refresh of ``url`` due at ``tick`` change its content?"""
        gate = derive_rng(self.seed, "churn", url, tick)
        return gate.random() < self.diurnal_activity(tick)

    def effective_epoch(self, url: str, hour: int) -> int:
        """Content version of ``url`` at ``hour``: its entry in
        :meth:`versions`.  A path outside the corpus on a corpus domain
        (an SMS can name one) counts its own refresh ticks the same way.
        """
        i = self._index.get(url)
        if i is not None:
            return int(self.versions(hour)[i])
        site = self.website(url.partition("/")[0])
        cadence = CATEGORY_REFRESH_HOURS[site.category]
        return sum(
            self._refreshed(url, tick) for tick in range(cadence, hour + 1, cadence)
        )

    def changed_at(self, url: str, hour: int) -> bool:
        """Did ``url``'s content change at exactly ``hour``?"""
        if hour <= 0:
            return False
        return self.effective_epoch(url, hour) != self.effective_epoch(url, hour - 1)

    def page(self, url: str, hour: int = 0) -> Page:
        """Generate the page at ``url`` as it appears at ``hour``."""
        domain, _, path = url.partition("/")
        path = "/" + path
        site = self.website(domain)
        epoch = self.effective_epoch(url, hour)
        rng = derive_rng(self.seed, "page", domain, path, epoch)
        if path == "/":
            return self._landing_page(site, url, rng)
        return self._article_page(site, url, path, rng)

    def corpus(self, hour: int = 0) -> list[tuple[str, Page]]:
        """All 100 pages at a given hour."""
        return [(url, self.page(url, hour)) for url in self.all_urls()]

    # -- page builders ------------------------------------------------------------

    def _words(self, rng: np.random.Generator, n: int) -> str:
        return " ".join(rng.choice(_VOCAB, size=n))

    def _headline(self, rng: np.random.Generator) -> str:
        template = _HEADLINE_TEMPLATES[int(rng.integers(len(_HEADLINE_TEMPLATES)))]
        picks = {k: str(rng.choice(_VOCAB)).capitalize() for k in "ABCD"}
        return template.format(**picks)

    def _header(self, site: Website, rng: np.random.Generator) -> Header:
        nav = tuple(
            (str(rng.choice(_VOCAB)).capitalize(), f"{site.domain}{p}")
            for p in site.internal_paths
        )
        return Header(
            title=site.domain.split(".")[0].upper(),
            nav_items=nav,
            color=_CATEGORY_COLORS[site.category],
        )

    def _story_block(
        self,
        site: Website,
        rng: np.random.Generator,
        index: int,
        photo_prob: float = 0.20,
    ) -> list:
        path = site.internal_paths[index % len(site.internal_paths)]
        blocks: list = [
            Heading(self._headline(rng), level=2, href=f"{site.domain}{path}"),
            Paragraph(self._words(rng, int(rng.integers(12, 26)))),
        ]
        if rng.random() < photo_prob:
            blocks.insert(
                1,
                ImageBlock(
                    width=int(rng.integers(360, 720)),
                    height=int(rng.integers(150, 260)),
                    seed=int(rng.integers(1 << 31)),
                    caption=self._words(rng, 6),
                ),
            )
        if rng.random() < 0.10:
            blocks.append(
                Thumbnail(
                    width=640, height=300, seed=int(rng.integers(1 << 31))
                )
            )
        blocks.append(Divider())
        return blocks

    def _landing_page(self, site: Website, url: str, rng: np.random.Generator) -> Page:
        # Landing feeds are long — most exceed the 10k PH crop, which is
        # what makes Figure 4(b)'s PH:None tail heavier than PH:10k.
        n_stories = {
            "news": int(rng.integers(48, 80)),
            "sports": int(rng.integers(42, 70)),
            "portal": int(rng.integers(38, 64)),
            "ecommerce": int(rng.integers(34, 58)),
            "education": int(rng.integers(16, 34)),
            "government": int(rng.integers(10, 24)),
        }[site.category]
        if rng.random() < 0.15:
            # A few mega-portals with very long feeds: the CDF tail the
            # paper observes at roughly twice the 90th percentile.
            n_stories = int(n_stories * 1.7)

        # Per-page editorial style: photo-heavy portals compress very
        # differently from text walls, which is what spreads the size
        # CDF's tail (Figure 4(b)).
        photo_prob = float(rng.uniform(0.05, 0.50))
        directory_style = site.category == "portal" and rng.random() < 0.5
        elements: list = [self._header(site, rng), SearchBox()]
        if directory_style:
            # Link-directory portals: dense walls of links dominate the
            # page — the heavy tail of Figure 4(b)'s size CDF.
            n_stories = max(4, n_stories // 4)
            for _ in range(int(rng.integers(10, 16))):
                items = tuple(
                    (
                        str(rng.choice(_VOCAB)).capitalize()
                        + " "
                        + str(rng.choice(_VOCAB)),
                        f"{site.domain}{site.internal_paths[0]}",
                    )
                    for _ in range(int(rng.integers(90, 160)))
                )
                elements.append(LinkGrid(items))
        elements.append(
            AdBanner(self._words(rng, 4).upper(), href=f"{site.domain}/ads/promo")
        )
        for i in range(n_stories):
            elements.extend(self._story_block(site, rng, i, photo_prob))
            if i and i % 9 == 0:
                elements.append(
                    AdBanner(self._words(rng, 3).upper(), href=f"{site.domain}/ads/{i}")
                )
        elements.append(
            LinkList(
                tuple(
                    (self._headline(rng), f"{site.domain}{p}")
                    for p in site.internal_paths
                )
            )
        )
        elements.append(
            Footer(
                tuple(
                    (label, f"{site.domain}/{label.lower()}")
                    for label in ("About", "Contact", "Privacy", "Terms")
                )
            )
        )
        return Page(url=url, title=site.domain, elements=elements)

    def _article_page(
        self, site: Website, url: str, path: str, rng: np.random.Generator
    ) -> Page:
        n_paragraphs = int(rng.integers(34, 64))
        elements: list = [
            self._header(site, rng),
            Heading(self._headline(rng), level=1),
            Paragraph(self._words(rng, 12)),
        ]
        if rng.random() < 0.7:
            elements.append(
                ImageBlock(
                    width=int(rng.integers(480, 860)),
                    height=int(rng.integers(200, 340)),
                    seed=int(rng.integers(1 << 31)),
                    caption=self._words(rng, 8),
                )
            )
        for _ in range(n_paragraphs):
            elements.append(Paragraph(self._words(rng, int(rng.integers(18, 42)))))
        # Related stories + comment-like tail make articles long too.
        elements.append(Divider())
        elements.append(Heading("Related stories", level=3))
        elements.append(
            LinkList(
                tuple(
                    (self._headline(rng), f"{site.domain}{p}")
                    for p in site.internal_paths
                    if p != path
                )
            )
        )
        # Reader comments: short paragraphs that stretch articles well
        # past the fold, like real .pk news articles.
        for _ in range(int(rng.integers(30, 70))):
            elements.append(Paragraph(self._words(rng, int(rng.integers(8, 20)))))
        elements.append(Footer(tuple((l, f"{site.domain}/{l.lower()}") for l in ("About", "Contact"))))
        return Page(url=url, title=site.domain, elements=elements)
