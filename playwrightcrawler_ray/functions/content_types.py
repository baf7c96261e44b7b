"""Content-type sanitization + routing.

The reference routes every fetched resource through a regex registry
of 15 category groups totalling ~720 patterns
(playwrightcrawler.py:168-958 for the tables, :2420-2455 for the
registry, :5112-5131 for the dispatch loop). Here the same routing is a
single **vectorized** stage: one precompiled alternation per category,
evaluated over an Arrow string column. The full verbatim pattern tables
live in ``content_type_tables.py`` (data = the behavioral spec, cited
per group); they are plain data, so widening a group is a config
change, not a code change — the same extension surface the reference
documents in README.md:203-212.

Dispatch-order fidelity: the reference's dispatch loop (:5112-5131)
has NO break — every matching handler runs, and
``page_data["crawledcontent"].update(urlresult)`` lets the
LAST-registered matching handler's record win. The effective category
is therefore the LAST match in handler registration order, reproduced
here by scanning ``REGISTRATION_ORDER`` reversed. The catch-all
``all_others`` group, registered first (:2640), consequently only wins
for MIMEs no specialized (later-registered) group lists.

Octet-stream handling follows USE_OCTET_STREAM (config.py:186;
reference :940-958): the octet-stream patterns are appended to every
*binary* category's alternation — with last-match dispatch this sends
``application/octet-stream`` itself to the LATEST octet-extended
group in registration order (image, registered :3771), exactly as the
reference does: octet-stream-served payloads reach the image handler.
"""

from __future__ import annotations

import re

from .content_type_tables import OCTETSTREAM_PATTERNS, REGISTRATION_ORDER

_SANITIZE_RE = re.compile(r'^\s*(?:content-type:)?\s*"?\'?', re.I)


def sanitize_content_type(raw: str) -> str:
    """MIME cleanup (reference sanitize_content_type, :4073-4103): strip
    quotes, a ``Content-Type:`` prefix, parameters after ``;`` and
    surrounding whitespace."""
    if not raw:
        return ""
    ct = raw.strip().strip("\"'")
    ct = re.sub(r"^content-type:\s*", "", ct, flags=re.I)
    ct = ct.split(";", 1)[0].strip().strip("\"'")
    return ct


# Binary categories that also claim octet-stream aliases when
# USE_OCTET_STREAM is on (reference :940-958).
_OCTET_CATEGORIES = {
    "image",
    "midi",
    "audio",
    "video",
    "pdf",
    "comic",
    "doc",
    "database",
    "font",
    "torrent",
    "compressed",
}


class ContentTypeRouter:
    """Last-match category router, vectorized over a string array.

    The reference runs EVERY matching handler and merges results with
    ``dict.update`` (:5112-5131), so the last-registered match defines
    the surviving record; this router returns that category directly.

    ``use_octet_stream`` appends the octet-stream alias patterns to each
    binary category — after that, dispatch for those MIMEs is decided by
    the *extension map* upstream, mirroring the reference's
    HEAD-validate flow (:4794-4829).
    """

    OTHER = "other"

    def __init__(self, use_octet_stream: bool = True, extra: dict | None = None):
        self.categories: list[str] = []
        self._compiled: list[re.Pattern] = []
        self._memo: dict[str, str] = {}  # sanitized MIME → category
        tables = [(name, pats) for name, pats in REGISTRATION_ORDER]
        if extra:
            tables += list(extra.items())
        for name, pats in tables:
            pats = list(pats)
            if use_octet_stream and name in _OCTET_CATEGORIES:
                pats = pats + OCTETSTREAM_PATTERNS
            self.categories.append(name)
            self._compiled.append(
                re.compile("|".join(f"(?:{p})" for p in pats), re.I)
            )

    def route_one(self, content_type: str) -> str:
        ct = sanitize_content_type(content_type)
        if not ct:
            # reference dispatch guards `and ctype` (:5107): an empty
            # MIME never reaches the registry (all_others lists ^$ but
            # can only see it via a raw value that sanitizes to empty)
            return self.OTHER
        got = self._memo.get(ct)
        if got is not None:
            return got
        out = self.OTHER
        # reference dispatch has no break: all matching handlers run and
        # crawledcontent.update() lets the LAST-registered match win —
        # scan reversed registration order, first hit = last match
        for name, pat in zip(reversed(self.categories),
                             reversed(self._compiled)):
            if pat.match(ct):
                out = name
                break
        if len(self._memo) < 65536:  # crawls see few distinct MIMEs
            self._memo[ct] = out
        return out


# Extension → expected category (reference EXTENSION_MAP, :969-1080 —
# ~95 entries mapping file extensions to the regex group a HEAD probe
# should confirm; condensed to category names here).
EXTENSION_MAP: dict[str, str] = {
    "html": "html", "htm": "html", "php": "html", "asp": "html", "aspx": "html",
    "txt": "plain_text", "json": "plain_text", "xml": "plain_text",
    "css": "plain_text", "js": "plain_text", "csv": "plain_text", "md": "plain_text",
    "jpg": "image", "jpeg": "image", "png": "image", "gif": "image",
    "webp": "image", "bmp": "image", "ico": "image", "svg": "image", "tiff": "image",
    "mid": "midi", "midi": "midi",
    "mp3": "audio", "ogg": "audio", "wav": "audio", "flac": "audio", "m4a": "audio",
    "mp4": "video", "mkv": "video", "avi": "video", "webm": "video", "mov": "video",
    "pdf": "pdf",
    "cbr": "comic", "cbz": "comic",
    "doc": "doc", "docx": "doc", "xls": "doc", "xlsx": "doc", "ppt": "doc",
    "pptx": "doc", "odt": "doc", "epub": "doc", "rtf": "doc",
    "db": "database", "sqlite": "database", "sql": "database",
    "ttf": "font", "otf": "font", "woff": "font", "woff2": "font", "eot": "font",
    "torrent": "torrent",
    "zip": "compressed", "gz": "compressed", "tar": "compressed", "tgz": "compressed",
    "bz2": "compressed", "xz": "compressed", "7z": "compressed", "rar": "compressed",
}
