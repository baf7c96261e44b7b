"""Content-type router + opendir + text function tests."""

from __future__ import annotations

import pytest

from playwrightcrawler_ray.functions.content_types import (
    EXTENSION_MAP,
    ContentTypeRouter,
    sanitize_content_type,
)
from playwrightcrawler_ray.functions.html import extract_page
from playwrightcrawler_ray.functions.opendir import is_open_directory
from playwrightcrawler_ray.functions.text import (
    detect_language,
    extract_top_words,
    fingerprint64,
    quality_signals,
)


def test_sanitize_content_type():
    assert sanitize_content_type("text/html; charset=UTF-8") == "text/html"
    assert sanitize_content_type('"text/html"') == "text/html"
    assert sanitize_content_type("Content-Type: image/png") == "image/png"
    assert sanitize_content_type("  application/json ;x=1") == "application/json"
    assert sanitize_content_type("") == ""


# ≥5 MIMEs per reference regex group (all of them for the groups with
# fewer patterns). The reference dispatch loop (:5112-5131) runs every
# matching handler and merges with dict.update, so the LAST-registered
# match wins: comic over doc, audio over video, image over font for the
# octet-stream aliases — shadowing reproduced.
ROUTE_CASES = [
    # html (:189-203)
    ("text/html", "html"),
    ("application/xhtml+xml", "html"),
    ("text/html; charset=iso-8859-1", "html"),
    ("application/x-php", "html"),
    ("text/x-html-fragment", "html"),
    ("text/fragment+html", "html"),
    # plain_text (:205-348)
    ("text/plain", "plain_text"),
    ("application/json", "plain_text"),
    ("text/markdown", "plain_text"),
    ("text/x-python", "plain_text"),
    ("application/ld+json", "plain_text"),
    ("text/calendar", "plain_text"),
    # image (:361-494)
    ("image/png", "image"),
    ("image/jpeg", "image"),
    ("IMAGE/PNG", "image"),
    ("image/webp", "image"),
    ("image/avif", "image"),
    ("image/x-icon", "image"),
    ("image/svg+xml", "image"),
    # midi (:496-499 — both patterns)
    ("audio/midi", "midi"),
    ("audio/sp-midi", "midi"),
    # audio (:501-538)
    ("audio/mpeg", "audio"),
    ("audio/flac", "audio"),
    ("audio/x-m4a", "audio"),
    ("audio/opus", "audio"),
    ("audio/wav", "audio"),
    # video (:540-572)
    ("video/mp4", "video"),
    ("video/webm", "video"),
    ("video/x-matroska", "video"),
    ("video/quicktime", "video"),
    ("application/x-shockwave-flash", "video"),
    # pdf (:574-585)
    ("application/pdf", "pdf"),
    ("adobe/pdf", "pdf"),
    ("image/pdf", "pdf"),
    ("application/x-pdf", "pdf"),
    ("application/.pdf", "pdf"),
    # comic (:588-593) — registers after doc, so it wins x-cbr/x-cbz
    ("application/vnd.comicbook+zip", "comic"),
    ("application/vnd.comicbook-rar", "comic"),
    ("application/x-cbr", "comic"),
    ("application/x-cbz", "comic"),
    # doc (:596-630)
    ("application/msword", "doc"),
    ("application/vnd.ms-excel", "doc"),
    ("application/docx", "doc"),
    ("application/vnd.oasis.opendocument.text", "doc"),
    ("application/vnd.openxmlformats-officedocument.wordprocessingml.document",
     "doc"),
    # database (:632-637 — all four patterns)
    ("application/sql", "database"),
    ("application/x-sql", "database"),
    ("application/msaccess", "database"),
    ("application/x-msaccess", "database"),
    # font (:639-683)
    ("font/woff2", "font"),
    ("font/ttf", "font"),
    ("woff2", "font"),
    ("application/x-font-woff", "font"),
    ("application/vnd.ms-fontobject", "font"),
    # torrent (:685-687 — its single pattern)
    ("application/x-bittorrent", "torrent"),
    # compressed (:689-718)
    ("application/zip", "compressed"),
    ("application/gzip", "compressed"),
    ("application/x-7z-compressed", "compressed"),
    ("multipart/x-zip", "compressed"),
    ("application/vnd.rar", "compressed"),
    # all_others catch-all (:720-938)
    ("text/css", "all_others"),
    ("application/javascript", "all_others"),
    ("application/xml", "all_others"),
    ("application/wasm", "all_others"),
    ("multipart/form-data", "all_others"),
    ("application/postscript", "all_others"),
    # unmatched → other (reference found=False path)
    ("application/x-madeup-thing", "other"),
    ("application/x-sqlite3", "other"),  # not in the reference tables
]


@pytest.mark.parametrize("ct,expected", ROUTE_CASES)
def test_route(ct, expected):
    router = ContentTypeRouter()
    assert router.route_one(ct) == expected


def test_route_last_match_order():
    router = ContentTypeRouter()
    # audio/midi only appears in the midi table, so it routes there
    # (reference :496-499).
    assert router.route_one("audio/midi") == "midi"
    # audio registers after video (:2942 vs :2894): the shared aliases
    # application/ogg and application/mp4 resolve to audio (its handler
    # runs second and dict.update keeps its record).
    assert router.route_one("application/ogg") == "audio"
    assert router.route_one("application/mp4") == "audio"
    # text/javascript appears only in all_others → routes there.
    assert router.route_one("text/javascript") == "all_others"
    # comic registers after doc (:3185 vs :3035); both list x-cbr/x-cbz
    # → comic wins under last-match.
    assert router.route_one("application/x-cbr") == "comic"
    assert router.route_one("application/x-cbz") == "comic"


def test_octet_stream_patterns():
    # octet-stream aliases join every binary category when enabled
    # (USE_OCTET_STREAM, reference :940-958); with last-match dispatch
    # the LATEST octet-extended group in registration order is IMAGE
    # (:3771) — octet-stream-served payloads reach the image handler,
    # reference behavior reproduced. Disabled → "other".
    assert ContentTypeRouter(use_octet_stream=True).route_one(
        "application/octet-stream"
    ) == "image"
    assert ContentTypeRouter(use_octet_stream=True).route_one(
        "binary/octet-stream"
    ) == "image"
    assert ContentTypeRouter(use_octet_stream=False).route_one(
        "application/octet-stream"
    ) == "other"


def test_extension_map():
    assert EXTENSION_MAP["jpg"] == "image"
    assert EXTENSION_MAP["pdf"] == "pdf"
    assert EXTENSION_MAP["tgz"] == "compressed"


OPENDIR_CASES = [
    "<html><head><title>Index of /files</title></head><body></body></html>",
    '<A HREF="/x/">[To Parent Directory]</A>',
    "<h1>Listing of /stuff</h1>",
    '<img src="/icons/back.gif" alt="[PARENTDIR]">',
    '<a href="?C=N;O=D">Name</a>',
    "<ListBucketResult xmlns='http://s3.amazonaws.com/doc/2006-03-01/'>",
    "powered by h5ai",
]


@pytest.mark.parametrize("content", OPENDIR_CASES)
def test_opendir_positive(content):
    flag, pattern = is_open_directory(content, "https://files.example/")
    assert flag and pattern


def test_opendir_negative_and_hostpattern():
    flag, _ = is_open_directory("<html><body>A normal page</body></html>",
                                "https://x.example/")
    assert not flag
    flag, _ = is_open_directory(
        "<title>files.example:8080 - /</title>", "https://files.example:8080/"
    )
    assert flag


def test_extract_page():
    html = """
    <html><head><title>T</title><script>var x=1;</script>
    <link href="/style.css"><script src="/app.js"></script></head>
    <body><h1>Hello World</h1>
    <a href="/a">A</a> <a href="https://other.example/b">B</a>
    <img src="/img/cat.png" alt="a cat">
    <p>Some  text
    here</p><style>.x{}</style></body></html>
    """
    out = extract_page(html)
    assert "/a" in out.links and "https://other.example/b" in out.links
    assert "/style.css" in out.links and "/app.js" in out.links
    assert ("/img/cat.png", "a cat") in out.images
    # reference parity: each text node is end-stripped only
    # (playwrightcrawler.py:3758-3762) — internal whitespace survives.
    assert out.min_webcontent == "Hello World A B Some  text\n    here"


def test_extract_top_words():
    text = "Apple apple BANANA banana banana x yz the the the the"
    # len filter: > 3 chars; 'the' (3) and shorter dropped
    words = extract_top_words(text)
    assert words == ["banana", "apple"]
    # length cap is inclusive at max_len
    assert extract_top_words("a" * 40 + " " + "b" * 41) == ["a" * 40]


def test_text_ops():
    assert detect_language("the cat and the dog are in the house") == "en"
    assert detect_language("der hund und die katze sind nicht im haus") == "de"
    assert detect_language("") == "und"
    q = quality_signals("The quick brown fox.")
    assert q["n_tokens"] == 4 and 0 < q["alpha_ratio"] < 1
    assert fingerprint64("abc") == fingerprint64("abc")
    assert fingerprint64("some longer document text") != fingerprint64(
        "other longer document text"
    )
    from playwrightcrawler_ray.functions.text import rolling_min_fingerprint

    # similarity fingerprint: shared long substring → shared fingerprint
    assert rolling_min_fingerprint("xx some longer document text") == (
        rolling_min_fingerprint("yy some longer document text")
    )
