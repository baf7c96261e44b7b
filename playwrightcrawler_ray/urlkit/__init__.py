"""URL toolkit: canonicalization, ids, filters, structural decomposition.

Pure functions — no Ray, no I/O — usable identically from Dataset
``map_batches`` stages, frontier actors, and the reference-semantics
oracle simulator. Behavioral parity targets are cited per function
against /root/reference/playwrightcrawler.py.
"""

from .canonicalize import canonicalize_url
from .ids import url_id
from .filters import (
    is_embedded_url,
    has_repeated_segments,
    UrlPolicy,
)
from .levels import (
    get_host_levels,
    get_directory_levels,
    get_directory_tree,
    decompose_query,
    file_extension_of,
)
from .classify import classify_link, extract_email

__all__ = [
    "canonicalize_url",
    "url_id",
    "is_embedded_url",
    "has_repeated_segments",
    "UrlPolicy",
    "get_host_levels",
    "get_directory_levels",
    "get_directory_tree",
    "decompose_query",
    "file_extension_of",
    "classify_link",
    "extract_email",
]
