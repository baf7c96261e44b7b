"""Pure per-resource processing shared by the Ray parse/decode stages
and the oracle simulator: content-type routing, HTML extraction, link
classification + admission, content enrichment, image decode.

This module is deliberately Ray-free. The golden test's independence
comes from the *state* side (the oracle reimplements seen-set,
scheduling, politeness and dedup sequentially); the per-record
transforms are shared here and unit-tested against reference semantics
on their own (tests/test_urlkit.py etc.).

Reference map: fetch+extract kernel get_page_async
(playwrightcrawler.py:4926-5207), content handlers :2420-3930,
preprocess enrichment :1783-1946.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from urllib.parse import urljoin, urlsplit

from ..config import CrawlConfig
from ..core.schemas import MAX_LEVELS, empty_unified_row
from ..functions.content_types import ContentTypeRouter
from ..functions.html import extract_page
from ..functions.opendir import is_open_directory
from ..functions.text import extract_top_words
from ..imaging.codec import (
    CodecUnavailable,
    DecompressionBombError,
    UnidentifiedImageError,
    decode_image,
    dhash64,
    pixel_hash,
)
from ..urlkit.canonicalize import canonicalize_url
from ..urlkit.classify import classify_link
from ..urlkit.filters import UrlPolicy
from ..urlkit.ids import url_id, url_id_64
from ..urlkit.levels import (
    decompose_query,
    file_extension_of,
    get_directory_levels,
    get_host_levels,
)

Offer = tuple[str, int, str, str, int]  # (url, id64, host, path, wave)

MAX_WEBCONTENT_SIZE = 900_000  # reference MAX_WEBCONTENT_SIZE

# --- user-extension surface (reference §2.10: @function_for_content_type
# registry + README.md:203-212 extension recipe). A handler is
# ``fn(url, body, content_type, ctx) -> dict`` of extra row fields
# merged into the category's content doc; registering a NEW category
# also requires a ContentTypeRouter ``extra`` pattern group (pass
# ``extra_categories`` through CrawlConfig-derived ProcessContext
# construction or register patterns via functions/content_types). ---
CONTENT_HANDLERS: dict[str, "callable"] = {}


def register_content_handler(category: str, fn) -> None:
    """Register (or replace) the handler for a router category. Pure
    per-record functions only — they run inside map_batches tasks and
    inside the oracle, so they must be deterministic and Ray-free."""
    CONTENT_HANDLERS[category] = fn


def _media_handler(url, body, content_type, ctx) -> dict:
    """Built-in audio/video handler: header-level container probe
    (functions/mediaprobe) — duration, codec, rate/channels or
    dimensions — summarized into ``min_webcontent`` the same way the
    plugin recipe does (reference audio/video handlers store the file
    and record the doc, playwrightcrawler.py:2741-2843; neither
    decodes samples or pixels)."""
    from ..functions.mediaprobe import probe_media

    try:
        info = probe_media(body)
    except ValueError as e:
        return {"min_webcontent": f"media:unreadable:{e}"}
    tracks = info.get("tracks") or []
    vid = next((t for t in tracks if t.get("kind") == "video"), {})
    parts = [
        "media",
        str(info.get("container")),
        str(info.get("codec") or vid.get("codec_id")
            or vid.get("fourcc") or "?"),
        f"dur={info.get('duration_sec')}",
    ]
    if info.get("sample_rate"):
        parts.append(f"rate={info['sample_rate']}")
    if info.get("channels"):
        parts.append(f"ch={info['channels']}")
    if vid.get("w"):
        parts.append(f"{vid['w']}x{vid['h']}")
    return {"min_webcontent": ":".join(parts)}


CONTENT_HANDLERS.setdefault("audio", _media_handler)
CONTENT_HANDLERS.setdefault("video", _media_handler)


@dataclass
class ProcessContext:
    """Per-process compiled state: router + policy + config.

    ``script_fetch(abs_url) -> str | None`` is the external-script
    subresource resolver the render pass uses (browser semantics: a
    ``<script src=…>`` is fetched during navigation and executed in
    document order). The engine wires a memoized fetcher over the
    crawl's fetch client (stages/ray_stages.py), the oracle a
    corpus-dict one —
    both through :func:`make_script_fetcher` so decode + URL
    canonicalization are shared. ``None`` skips external scripts."""

    cfg: CrawlConfig
    router: ContentTypeRouter = field(init=False)
    policy: UrlPolicy = field(init=False)
    script_fetch: object = field(default=None, compare=False)
    # memo over the pure offer pipeline (urlsplit → admit → url_id_64 →
    # ancestor-directory expansion) keyed by canonical URL. Policy and
    # config are frozen after __post_init__, so entries never go stale;
    # capped + cleared wholesale (hit patterns are host-local, so a
    # cold restart costs one page's worth of recompute).
    offer_memo: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        import importlib

        for mod in self.cfg.plugin_modules:
            importlib.import_module(mod)  # registers content handlers
        self.router = ContentTypeRouter()
        self.policy = UrlPolicy(
            host_block=self.cfg.host_regex_block_list,
            host_allow=self.cfg.host_regex_allow_list,
            url_block=self.cfg.url_regex_block_list,
        )


def make_script_fetcher(lookup_bytes):
    """Adapt a ``url -> bytes | None`` byte source into the
    ``script_fetch`` contract: canonicalize the URL (same form the
    corpus keys on) and charset-decode the body to JS source text.
    Shared by engine and oracle so both sides resolve + decode
    identically."""
    from ..functions.charset import decode_text

    def fetch(abs_url: str) -> str | None:
        body = lookup_bytes(canonicalize_url(abs_url))
        if body is None:
            return None
        text, _enc = decode_text(body, "application/javascript")
        return text

    return fetch


def enrich_content_row(row: dict, ctx: ProcessContext) -> dict | None:
    """Admission-filter + enrich one content row (reference
    preprocess_crawler_data content loop, :1875-1944). Returns None when
    the row is dropped."""
    url = row["url"]
    parts = urlsplit(url)
    host = parts.hostname
    if not ctx.policy.admit(url, host):
        return None
    row["host"] = host
    row["url_id"] = url_id(url)
    has_q, qvars, qvals = decompose_query(parts.query)
    row["has_query"] = has_q
    row["query_variables"] = qvars
    row["query_values"] = qvals
    row.update(get_host_levels(host, MAX_LEVELS))
    row.update(get_directory_levels(parts.path, MAX_LEVELS))
    row["file_extension"] = file_extension_of(parts.path)
    row["node_id"] = ctx.cfg.node_id
    return row


def _base_row(url: str, host: str, wave: int, **kw) -> dict:
    row = empty_unified_row()
    row.update(
        kind="page", url=url, host=host, wave=wave, visited=True,
        isopendir=False, emails=[], words=[],
    )
    row.update(kw)
    return row


def offers_for(ctx: ProcessContext, cu: str, expand_tree: bool) -> tuple:
    """The ``(url, id64, host, path)`` frontier offers of one canonical
    URL: admission check, id64, and (for top-level links) the
    ancestor-directory expansion (reference preprocess expansion,
    playwrightcrawler.py:1837-1845 via get_directory_tree). Empty when
    the URL is not admitted. Memoized per process on the context —
    links repeat heavily across the pages of a host, and every admitted
    URL fans out into the same ancestor chain."""
    key = (cu, expand_tree)
    hit = ctx.offer_memo.get(key)
    if hit is not None:
        return hit
    out: list[tuple] = []
    p = urlsplit(cu)
    h = p.hostname
    if h and ctx.policy.admit(cu, h):
        out.append((cu, url_id_64(cu), h, p.path or "/"))
        if expand_tree and ctx.cfg.hunt_open_directories:
            from ..urlkit.levels import get_directory_tree

            for ancestor in get_directory_tree(cu):
                out.extend(offers_for(ctx, canonicalize_url(ancestor), False))
    res = tuple(out)
    if len(ctx.offer_memo) >= 1 << 16:
        ctx.offer_memo.clear()
    ctx.offer_memo[key] = res
    return res


def process_fetched(
    url: str,
    host: str,
    wave: int,
    status: int,
    content_type_raw: str,
    body: bytes,
    redirect_to: str,
    ctx: ProcessContext,
) -> tuple[list[dict], list[Offer], list[dict]]:
    """Process one fetched resource.

    Returns (content_rows, offers, imgrefs):
    - content_rows: enriched page-kind rows (already admission-filtered);
    - offers: (url, id64, host, path, wave+1) for the frontier, with
      this page's in-wave image subresources suppressed (the reference's
      in-batch link-vs-content suppression, :1865);
    - imgrefs: imgref-kind rows (url, caption, parent_host, body=None —
      the image fetch stage resolves them; for a *direct* image fetch
      the body is carried through).
    """
    from ..functions.content_types import sanitize_content_type

    ctype = sanitize_content_type(content_type_raw or "")
    category = ctx.router.route_one(ctype) if ctype else "other"
    content_rows: list[dict] = []
    offers: list[Offer] = []
    imgrefs: list[dict] = []
    next_wave = wave + 1

    def offer_canonical(cu: str, expand_tree: bool = True) -> None:
        for u, i, h, pth in offers_for(ctx, cu, expand_tree):
            offers.append((u, i, h, pth, next_wave))

    def offer_link(link_url: str) -> None:
        offer_canonical(canonicalize_url(link_url))

    if status == 200 and len(body) > ctx.cfg.max_body_mb * 1_000_000:
        # memory guard: oversized payload → abort with a minimal doc
        # (reference monitor_memory abort, playwrightcrawler.py:5294-5307)
        row = _base_row(url, host, wave, status=status, content_type=ctype,
                        category=category, source="get_page_outofmemory",
                        parent_host=host)
        r = enrich_content_row(row, ctx)
        if r:
            content_rows.append(r)
        return content_rows, offers, imgrefs

    if status != 200:
        row = _base_row(url, host, wave, status=status, content_type=ctype,
                        category=category, source=f"fetch_error_{status}")
        if redirect_to:
            row["source"] = "redirect"
            offer_link(urljoin(url, redirect_to))
        r = enrich_content_row(row, ctx)
        if r:
            content_rows.append(r)
        return content_rows, offers, imgrefs

    if category == "html":
        from ..functions.charset import decode_text

        # charset-tolerant decode (reference chardet flow, :5091-5099):
        # BOM → header charset → meta charset → utf-8 → latin-1
        text, _enc = decode_text(body, content_type_raw)
        if ctx.cfg.render_js:
            # JS render (reference Playwright navigation, :4926-5207):
            # inline scripts — and external <script src> sources when a
            # subresource fetcher is wired — execute in the sandboxed
            # deterministic interpreter in document order, see
            # functions/render + functions/jsinterp
            from ..functions.render import render_html

            text = render_html(text, url, script_fetch=ctx.script_fetch)
        ex = extract_page(text)
        is_od, od_pattern = is_open_directory(text, url)
        page = _base_row(
            url, host, wave, status=status, content_type=ctype, category=category,
            source="content_type_download", isopendir=is_od,
            opendir_pattern=od_pattern,
            words=extract_top_words(ex.min_webcontent),
            min_webcontent=ex.min_webcontent[:MAX_WEBCONTENT_SIZE],
        )
        r = enrich_content_row(page, ctx)
        if r:
            content_rows.append(r)

        # image subresources: fetched this wave; suppressed as links (J3)
        seen_img: set[str] = set()
        subresource_urls: set[str] = set()
        for src, alt in ex.images:
            img_url = canonicalize_url(urljoin(url, src))
            ip = urlsplit(img_url)
            if not ip.hostname or not ctx.policy.admit(img_url, ip.hostname):
                continue
            subresource_urls.add(img_url)
            if img_url in seen_img:
                continue  # one response per subresource URL per page
            seen_img.add(img_url)
            ir = empty_unified_row()
            ir.update(
                kind="imgref", url=img_url, url_id=url_id(img_url),
                host=ip.hostname, parent_host=host, wave=wave,
                caption=alt or "", image_id=url_id(img_url),
                subresource=True,
            )
            imgrefs.append(ir)

        if ctx.cfg.hunt_open_directories:
            # ancestors of the page itself and of its subresources
            # (reference expands crawledcontent + crawledlinks,
            # :1839-1845)
            from ..urlkit.levels import get_directory_tree

            for src_url in [url, *subresource_urls]:
                for ancestor in get_directory_tree(src_url):
                    offer_canonical(canonicalize_url(ancestor), expand_tree=False)

        # links: classify → canonicalize → admission → offer.
        # classify_link(raw, page_url) is memoized for page-PATH-
        # independent hrefs (host-absolute "/x" and full "scheme://"
        # forms — the overwhelming majority on real sites): their
        # resolution depends only on (scheme, netloc, raw), so nav
        # links shared by every page of a host classify once per
        # process. Path-relative / mailto / javascript hrefs keep the
        # uncached call (their result depends on the full page URL).
        seen_email_urls: set[str] = set()
        pu = urlsplit(url)
        cls_memo = ctx.offer_memo  # shared cap/clear policy
        for raw in ex.links:
            if raw.startswith(("/", "http://", "https://")):
                ck = (pu.scheme, pu.netloc, raw)
                recs = cls_memo.get(ck)
                if recs is None:
                    recs = tuple(classify_link(raw, url))
                    if not any(r["source"] == "email_url" for r in recs):
                        if len(cls_memo) >= 1 << 16:
                            cls_memo.clear()
                        cls_memo[ck] = recs
            else:
                recs = classify_link(raw, url)
            for rec in recs:
                if rec["source"] == "email_url":
                    if rec["url"] in seen_email_urls:
                        continue
                    seen_email_urls.add(rec["url"])
                    erow = _base_row(
                        rec["url"], rec["host"], wave, status=status,
                        content_type="", category="email", source="email_url",
                        emails=rec["emails"],
                    )
                    er = enrich_content_row(erow, ctx)
                    if er:
                        er["parent_host"] = rec["parent_host"]
                        content_rows.append(er)
                    continue
                cu = canonicalize_url(rec["url"])
                if cu in subresource_urls:
                    continue  # in-batch suppression (reference :1865)
                offer_canonical(cu)
        for r in content_rows:
            if r.get("parent_host") is None:
                r["parent_host"] = host
        return content_rows, offers, imgrefs

    if category == "image":
        # direct image fetch (frontier-popped image URL): decode stage
        # emits the content doc + image row; carry the body through.
        ir = empty_unified_row()
        ir.update(
            kind="imgref", url=url, url_id=url_id(url), host=host,
            parent_host=host, wave=wave, caption="", image_id=url_id(url),
            content_type=ctype, subresource=False,
        )
        ir["body"] = body  # transit column consumed by the decode stage
        imgrefs.append(ir)
        return content_rows, offers, imgrefs

    # other non-HTML categories: metadata-only content doc, one per URL
    # (reference handlers for plain text/audio/video/… produce docs with
    # a source naming the handler, :2741-3770). A registered custom
    # handler (register_content_handler, §2.10) contributes extra fields.
    row = _base_row(url, host, wave, status=status, content_type=ctype,
                    category=category, source=f"content_type_{category}",
                    parent_host=host)
    handler = CONTENT_HANDLERS.get(category)
    if handler is not None:
        try:
            extra = handler(url, body, ctype, ctx) or {}
        except Exception:
            extra = {"source": f"content_type_{category}_handler_error"}
        row.update(extra)
    r = enrich_content_row(row, ctx)
    if r:
        content_rows.append(r)
    return content_rows, offers, imgrefs


# per-process decode memo: body sha1 → ("ok", w, h, fmt, phash, psha)
# or ("err", source_label). Byte-identical payloads (the common case on
# a real crawl: one logo/thumbnail served from many URLs) pay the codec
# ONCE per worker process; everything downstream — pixel-hash dedup
# claims, ord-keyed conflict resolution, the oracle — is unchanged
# because the memo is a pure-function cache over the payload bytes.
# Derived fields only (~100 B/entry), LRU-capped.
_DECODE_MEMO: OrderedDict = OrderedDict()
_DECODE_MEMO_CAP = 65536

_ERR_SOURCES = {
    UnidentifiedImageError: "content_type_images_unidentified_image_error",
    DecompressionBombError: "content_type_images_decompression_bomb_error",
    CodecUnavailable: "content_type_images_codec_unavailable",
    OSError: "content_type_images_oserror",
}


def _decode_image_memo(body: bytes) -> tuple:
    import hashlib

    key = hashlib.sha1(bytes(body)).digest()
    hit = _DECODE_MEMO.get(key)
    if hit is not None:
        _DECODE_MEMO.move_to_end(key)
        return hit
    try:
        pixels, fmt = decode_image(body)
        h, w = pixels.shape[:2]
        out = ("ok", int(w), int(h), fmt, int(dhash64(pixels)),
               pixel_hash(pixels))
    except (UnidentifiedImageError, DecompressionBombError,
            CodecUnavailable, OSError) as e:
        for klass in (UnidentifiedImageError, DecompressionBombError,
                      CodecUnavailable):
            if isinstance(e, klass):
                out = ("err", _ERR_SOURCES[klass])
                break
        else:
            out = ("err", _ERR_SOURCES[OSError])
    _DECODE_MEMO[key] = out
    if len(_DECODE_MEMO) > _DECODE_MEMO_CAP:
        _DECODE_MEMO.popitem(last=False)
    return out


def process_image_payload(
    url: str,
    host: str,
    parent_host: str,
    wave: int,
    caption: str,
    body: bytes,
    ctx: ProcessContext,
) -> tuple[dict, dict | None]:
    """Decode one image payload → (content doc row, image row | None).

    The image row carries pixel_sha1; the caller applies global dedup
    (engine: DedupShard actors; oracle: a dict). Error taxonomy follows
    the reference image handler (:3896-3930) plus the explicit
    ``codec_unavailable`` stub label for formats PIL would have decoded
    but this container cannot (module docstring in imaging/). Decode
    results are memoized per process by payload sha1 (``_DECODE_MEMO``)."""
    base = dict(status=200, category="image", content_type="",
                parent_host=parent_host)
    res = _decode_image_memo(body)
    if res[0] == "err":
        row = _base_row(url, host, wave, **base, source=res[1])
        return enrich_content_row(row, ctx), None

    _, w, h, fmt, phash, psha = res
    doc = _base_row(url, host, wave, **base,
                    source="content_type_images_download")
    doc["resolution"] = h * w
    doc = enrich_content_row(doc, ctx)
    image_row = empty_unified_row()
    image_row.update(
        kind="image", url=url, url_id=url_id(url), image_id=url_id(url),
        host=host, parent_host=parent_host, wave=wave, visited=True,
        source="image_payload", bytes=body, w=int(w), h=int(h), fmt=fmt,
        caption=caption or "", phash=int(phash), pixel_sha1=psha,
        resolution=int(h * w), content_type="", category="image",
        status=200,
    )
    return doc, image_row
