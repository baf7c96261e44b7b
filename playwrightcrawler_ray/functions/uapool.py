"""User-agent rotation pool (reference T2).

The reference draws a random UA per browser context / HTTP request via
``fake_useragent`` (playwrightcrawler.py:143,156 — ``ua.random`` at
:4996, per-request at :4785, attached to headers at :5063).
``fake_useragent`` needs network access to refresh its database, so
this pool ships a small static set of current mainstream UA strings
and rotates DETERMINISTICALLY: the choice is a seeded hash of
(url, attempt), which keeps crawl behavior reproducible (the
reference's ``ua.random`` is the one seed of nondeterminism its own
reruns can't reproduce) while still spreading requests across agents
the way server-side rate limiters observe.

``corpus.httpserve.HttpFetchClient`` sends the pick as the
``User-Agent`` header of every request; the in-process corpus backend
has no headers to carry it.
"""

from __future__ import annotations

import hashlib

USER_AGENTS: tuple[str, ...] = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/126.0.0.0 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/126.0.0.0 Safari/537.36",
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/126.0.0.0 Safari/537.36",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:127.0) "
    "Gecko/20100101 Firefox/127.0",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 "
    "(KHTML, like Gecko) Version/17.5 Safari/605.1.15",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/126.0.0.0 Safari/537.36 Edg/126.0.0.0",
)


def pick_user_agent(url: str, attempt: int = 0,
                    pool: tuple[str, ...] = USER_AGENTS) -> str:
    """Deterministic per-(url, attempt) UA: same crawl → same headers."""
    h = hashlib.blake2b(f"{url}|{attempt}".encode(), digest_size=8).digest()
    return pool[int.from_bytes(h, "big") % len(pool)]
