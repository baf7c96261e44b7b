"""Stable URL identifiers.

The north rule keys every URL-seen structure on canonicalized + SHA1'd
URLs, so ``url_id`` is SHA1, the hex digest of the UTF-8 bytes of the
(already canonicalized) URL. The reference uses ``sha256(url)`` as its
Elasticsearch ``_id`` (playwrightcrawler.py:1431-1456); nothing here
needs that id.
"""

from __future__ import annotations

import hashlib


def url_id(url: str) -> str:
    """SHA1 hex id of a canonicalized URL (frontier/seen-set key)."""
    return hashlib.sha1(url.encode("utf-8", errors="surrogatepass")).hexdigest()


def url_id_64(url: str) -> int:
    """First 8 bytes of the SHA1 as an unsigned 64-bit int — the compact
    fingerprint source used by the cuckoo/bloom filters."""
    d = hashlib.sha1(url.encode("utf-8", errors="surrogatepass")).digest()
    return int.from_bytes(d[:8], "big")
