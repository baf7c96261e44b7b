"""Seeded synthetic web-graph generator (FIXTURES.md §3).

A pure function of ``(seed, n_hosts, pages_per_host)`` producing the
corpus both the engine ("fetch" resolves against it) and the oracle
simulator crawl — byte-identical inputs on both sides:

- Zipf-skewed host sizes (host 0 holds ~30% of pages — exercises the
  mega-host skew path);
- pages with relative + absolute + malformed (``htpps://``) hrefs,
  ~10% cross-host edges;
- crawler traps (``/loop/a/b/a/b/a/b``), ``mailto:`` (+ misspellings),
  ``data:`` URIs that must be dropped;
- one Apache-style open-directory page per 8 hosts;
- per-host robots.txt, some disallowing ``/private/``;
- images: PNG + qimg payloads with ``alt`` captions, including exact
  duplicates (same bytes at two URLs), near-duplicates (same pixels in
  both formats; 1-bit perturbations), a truncated payload and a real
  JPEG magic (decoder stub path) for the error taxonomy.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..imaging.codec import encode_image

_CAPTION_WORDS = (
    "amber basalt cobalt dune ember fjord glacier harbor island juniper "
    "kelp lagoon meadow nimbus onyx prairie quartz reef summit tundra "
    "umber valley willow zephyr canyon delta mesa grove atoll cliff"
).split()


@dataclass
class CorpusData:
    """The synthetic web: url → response, plus per-host robots and seeds."""

    pages: dict[str, dict] = field(default_factory=dict)  # url -> {status, content_type, body, redirect_to}
    robots: dict[str, str] = field(default_factory=dict)  # host -> robots.txt body
    seeds: list[str] = field(default_factory=list)
    latency_ms: dict[str, int] = field(default_factory=dict)  # host -> simulated fetch latency
    # failure injection for retry tests: url -> number of transient
    # failures before success (reference downloader backoff, S10)
    flaky: dict[str, int] = field(default_factory=dict)
    # url → max bytes served per request: the server truncates every
    # response, forcing the fetch client's HTTP Range-resume loop
    # (reference downloader.py:212-302) to reassemble the payload
    partial: dict[str, int] = field(default_factory=dict)
    # ground truth for test assertions (not visible to the engine):
    truth_images: dict[str, dict] = field(default_factory=dict)  # img url -> {pixels_shape, caption, fmt}


def _make_pixels(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth seeded RGB image: low-res noise upsampled + gradient."""
    base = rng.integers(0, 256, size=(max(2, size // 8), max(2, size // 8), 3),
                        dtype=np.uint8)
    img = np.repeat(np.repeat(base, 8, axis=0), 8, axis=1)[:size, :size]
    grad = np.linspace(0, 64, size, dtype=np.uint8)[None, :, None]
    return ((img.astype(np.uint16) + grad) % 256).astype(np.uint8)


def _caption(rng: random.Random, n: int = 4) -> str:
    return " ".join(rng.choice(_CAPTION_WORDS) for _ in range(n))


def build_corpus(
    seed: int = 42,
    n_hosts: int = 16,
    pages_per_host: int = 12,
    img_sizes: tuple[int, ...] = (16, 24, 32, 48, 64),
    n_seeds: int = 8,
    text_words: int = 6,
) -> CorpusData:
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    corpus = CorpusData()

    hosts = [f"host{h:02d}.test" for h in range(n_hosts)]
    # Zipf-ish skew: host 0 gets ~30% of all pages
    total_pages = n_hosts * pages_per_host
    counts = [max(2, int(total_pages * 0.3))] + [
        max(2, int((total_pages * 0.7) / (n_hosts - 1))) for _ in range(n_hosts - 1)
    ]

    page_urls: dict[str, list[str]] = {}
    for host, count in zip(hosts, counts):
        urls = [f"https://{host}/"]
        for p in range(1, count):
            depth = rng.choice([1, 1, 1, 2, 2, 3])
            segs = "/".join(f"d{rng.randrange(6)}" for _ in range(depth - 1))
            name = f"page{p}.html"
            urls.append(f"https://{host}/{segs + '/' if segs else ''}{name}")
        page_urls[host] = urls

    # per-host simulated fetch latency (FIXTURES.md §3 latency_ms) —
    # used only when CrawlConfig.simulate_latency is on (bench realism)
    corpus.latency_ms = {h: int(rng.uniform(50, 250)) for h in hosts}

    # robots: every 3rd host disallows /private/, host 1 has crawl-delay
    for i, host in enumerate(hosts):
        lines = ["User-agent: *"]
        if i % 3 == 0:
            lines.append("Disallow: /private/")
        if i == 1:
            lines.append("Crawl-delay: 2")
        corpus.robots[host] = "\n".join(lines) + "\n"

    # image payload pool with deliberate dup structure
    images: list[tuple[str, bytes, str, str]] = []  # (url, body, content_type, caption)

    def add_image(host: str, name: str, body: bytes, ctype: str,
                  caption: str, truth: dict | None = None):
        url = f"https://{host}/img/{name}"
        images.append((url, body, ctype, caption))
        corpus.truth_images[url] = truth or {}
        return url

    img_truth_pixels: dict[str, np.ndarray] = {}
    for i in range(n_hosts * 3):
        host = hosts[i % n_hosts]
        size = img_sizes[i % len(img_sizes)]
        px = _make_pixels(nprng, size)
        cap = _caption(rng)
        if i % 9 == 4:
            # palette-quantized GIF (≤64 colors) through the real codec
            px = ((px >> 6) << 6).astype(px.dtype)
            body, ctype, name = encode_image(px, "gif"), "image/gif", f"pic{i}.gif"
        elif i % 9 == 7:
            # TIFF through the real codec — rotating uncompressed,
            # LZW+predictor, TILED (§15), PLANAR (§12) and
            # JPEG-in-TIFF (compression 7) profiles so every decoder
            # layout sees golden-path traffic
            tfmt = ("tiff", "tiff_lzw", "tiff_tiled",
                    "tiff_planar", "tiff_jpeg")[(i // 9) % 5]
            body, ctype, name = (encode_image(px, tfmt), "image/tiff",
                                 f"pic{i}.tiff")
        elif i % 9 == 2:
            # REAL progressive (SOF2), arithmetic-coded (SOF9),
            # lossless (SOF3) and hierarchical (Annex J DHP/SOF5/SOF7)
            # JPEGs through the codec, rotating: spectral selection +
            # successive approximation, the QM-coder entropy layer,
            # the Annex-H DPCM process and the differential-frame
            # pyramid, all in the golden path
            jfmt = ("pjpeg", "ajpeg", "ljpeg", "hjpeg")[(i // 9) % 4]
            body, ctype, name = (encode_image(px, jfmt), "image/jpeg",
                                 f"pic{i}.jpg")
        elif i % 9 == 5:
            # REAL lossless WebP (VP8L) through the codec
            body, ctype, name = (encode_image(px, "webp"), "image/webp",
                                 f"pic{i}.webp")
        elif i % 9 == 8:
            # REAL lossy WebP (RFC 6386 VP8 keyframe) through the codec —
            # alternating plain / multi-partition+loop-filter streams so
            # the golden path exercises both decoder layouts
            from playwrightcrawler_ray.imaging.vp8 import vp8_encode_webp

            if (i // 9) % 2:
                body = vp8_encode_webp(px, qi=12, n_parts=2, filter_level=20)
            else:
                body = encode_image(px, "webp_lossy")
            ctype, name = "image/webp", f"pic{i}l.webp"
        elif i % 3 == 0:
            # PNG — every third one Adam7-interlaced (real decode path)
            pfmt = "png_adam7" if (i // 3) % 3 == 0 else "png"
            body, ctype, name = encode_image(px, pfmt), "image/png", f"pic{i}.png"
        elif i % 3 == 1:
            # REAL baseline JPEG through the pure-Python codec
            body, ctype, name = encode_image(px, "jpeg"), "image/jpeg", f"pic{i}.jpg"
        else:
            # qimg bytes served with a messy real-world MIME
            body, ctype, name = encode_image(px, "qimg"), "image/jpeg", f"pic{i}.jpg"
        fmt_truth = (
            "gif" if i % 9 == 4
            else "tiff" if i % 9 == 7
            else "jpeg" if i % 9 == 2
            else "webp" if i % 9 in (5, 8)
            else "png" if i % 3 == 0
            else "jpeg" if i % 3 == 1
            else "qimg"
        )
        url = add_image(host, name, body, ctype, cap,
                        {"caption": cap, "fmt": fmt_truth})
        img_truth_pixels[url] = px
        if i % 7 == 0:
            # exact duplicate: same bytes at a second URL (collapses on pixel hash)
            add_image(hosts[(i + 1) % n_hosts], f"dup{i}{name[-4:]}", body, ctype, cap,
                      {"caption": cap, "dup_of": url})
        if i % 5 == 0:
            # near-duplicate: same pixels, other format (phash-close, pixel-hash distinct)
            alt_fmt = "qimg" if i % 3 == 0 else "png"
            body2 = encode_image(px, alt_fmt)
            add_image(host, f"near{i}.{ 'jpg' if alt_fmt == 'qimg' else 'png'}",
                      body2, "image/png" if alt_fmt == "png" else "image/jpeg", cap,
                      {"caption": cap, "near_of": url})
        if i % 11 == 0:
            # 1-bit perturbed variant
            px2 = px.copy()
            px2[0, 0, 0] ^= 1
            add_image(host, f"perturb{i}.png", encode_image(px2, "png"),
                      "image/png", cap, {"caption": cap, "near_of": url})
    # malformed payloads → error taxonomy rows
    good_png = encode_image(_make_pixels(nprng, 24), "png")
    add_image(hosts[0], "broken.png", good_png[: len(good_png) // 2], "image/png",
              "truncated", {"error": "oserror"})
    add_image(hosts[0], "notimage.png", b"this is not an image, honest",
              "image/png", "junk", {"error": "unidentified"})
    add_image(hosts[0], "headeronly.jpg", b"\xff\xd8\xff\xe0" + b"\x00" * 64,
              "image/jpeg", "truncated jpeg", {"error": "oserror"})
    # real formats this container genuinely cannot decode → stub rows
    # (a VP8 INTERFRAME — an animation delta frame, not a still image;
    # lossy keyframes and VP8L lossless both DO decode)
    add_image(hosts[0], "photo.webp",
              b"RIFF" + (4 + 8 + 56).to_bytes(4, "little") + b"WEBP"
              + b"VP8 " + (56).to_bytes(4, "little")
              + b"\x01\x00\x00" + b"\x00" * 53,
              "image/webp", "stub", {"error": "codec_unavailable"})
    add_image(hosts[0], "hier.jpg",
              b"\xff\xd8\xff\xcd" + (11).to_bytes(2, "big")
              + b"\x08\x00\x10\x00\x10\x01\x01\x11\x00",
              "image/jpeg", "hierarchical stub",
              {"error": "codec_unavailable"})
    # a large-ish image served in ~3 chunks: only a fetch stage that
    # implements Range-resume reassembles it (the oracle reads the full
    # body directly, so golden equality proves the resume path)
    rng_px = _make_pixels(nprng, 64)
    ranged_body = encode_image(rng_px, "png")
    ranged_url = add_image(hosts[0], "ranged.png", ranged_body, "image/png",
                           "ranged download", {"caption": "ranged download"})
    corpus.partial[ranged_url] = max(1, len(ranged_body) // 3 + 1)

    # media fixtures on host 2 (audio/video category rows — the
    # reference stores these via handle_content_type; here the built-in
    # media handler records a real header-level probe on the doc row)
    if n_hosts > 2:
        import numpy as _np

        from ..stages.multimodal import encode_wav

        h2 = hosts[2]
        tone = (_np.sin(_np.linspace(0, 440.0, 8000)) * 12000).astype(
            _np.int16)
        corpus.pages[f"https://{h2}/media/clip.wav"] = {
            "status": 200, "content_type": "audio/x-wav",
            "body": encode_wav(tone, rate=16_000), "redirect_to": "",
        }
        # REAL compressed audio through the pure-Python FLAC codec
        # (round 5): losslessly decodable, MD5-verified on decode
        from ..functions.flac import flac_encode

        corpus.pages[f"https://{h2}/media/tone.flac"] = {
            "status": 200, "content_type": "audio/flac",
            "body": flac_encode(tone.astype(_np.int64), rate=16_000,
                                bits=16),
            "redirect_to": "",
        }
        # 128 kbps 44100 Hz MPEG-1 L3 frames (header-walkable; the
        # canonical 417-byte frame)
        mp3_frame = bytes([0xFF, 0xFB, 0x90, 0x40]) + b"\x00" * 413
        corpus.pages[f"https://{h2}/media/song.mp3"] = {
            "status": 200, "content_type": "audio/mpeg",
            "body": b"ID3\x04\x00\x00\x00\x00\x00\x00" + mp3_frame * 12,
            "redirect_to": "",
        }
        # minimal ISO-BMFF skeleton: ftyp + moov(mvhd ts=1000 dur=4000)
        import struct as _st

        def _box(name: bytes, payload: bytes) -> bytes:
            return _st.pack(">I", 8 + len(payload)) + name + payload

        mvhd = _box(b"mvhd", b"\x00\x00\x00\x00" + b"\x00" * 8
                    + _st.pack(">II", 1000, 4000) + b"\x00" * 80)
        corpus.pages[f"https://{h2}/media/movie.mp4"] = {
            "status": 200, "content_type": "video/mp4",
            "body": _box(b"ftyp", b"isom" + b"\x00" * 8)
            + _box(b"moov", mvhd) + _box(b"mdat", b"\x00" * 32),
            "redirect_to": "",
        }

    img_by_host: dict[str, list[tuple[str, str]]] = {}
    for url, body, ctype, cap in images:
        host = url.split("/")[2]
        img_by_host.setdefault(host, []).append((url, cap))
        corpus.pages[url] = {
            "status": 200, "content_type": ctype, "body": body, "redirect_to": "",
        }

    # build HTML pages
    for hi, host in enumerate(hosts):
        urls = page_urls[host]
        for pi, url in enumerate(urls):
            # stable per-page RNG (NOT tuple hash — PYTHONHASHSEED varies)
            prng = random.Random(seed ^ zlib.crc32(f"{host}|{pi}".encode()))
            links: list[str] = []
            # intra-host edges
            for _ in range(min(8, len(urls) - 1)):
                tgt = prng.choice(urls)
                if prng.random() < 0.6:
                    links.append("/" + tgt.split("/", 3)[3])  # relative form
                else:
                    links.append(tgt)
            # ~10% cross-host edges
            if prng.random() < 0.5:
                other = prng.choice(hosts)
                links.append(f"https://{other}/")
            # noise links
            if pi == 1:
                links.append("htpps://" + host + "/page1.html")  # malformed scheme
                links.append("data:image/png;base64,AAAA")
                links.append("mailto:contact@" + host)
                links.append("maito:typo@" + host)
            if hi == 0 and pi == 1:
                # non-UTF-8 fixture pages (charset-tolerant decode path)
                links.append("/latin1.html")
                links.append("/sjis.html")
            if hi == 1 and pi == 1:
                links.append("/dynamic.html")   # JS-rendered fixture
                links.append("/computed.html")  # computed-JS fixture

            if hi == 2 and pi == 1:
                links.append("/media/clip.wav")   # audio rows (probe)
                links.append("/media/tone.flac")  # REAL compressed decode
                links.append("/media/song.mp3")
                links.append("/media/movie.mp4")  # video row (probe)
            if hi == 3 and pi == 1:
                links.append("/external.html")  # external-script fixture
            if pi == 2:
                links.append(f"/loop/a/b/a/b/a/b/x{pi}.html")  # trap
            if hi % 3 == 0 and pi == 3:
                links.append("/private/secret.html")  # robots-blocked target
            body_links = "\n".join(f'<a href="{l}">link</a>' for l in links)
            imgs = ""
            host_imgs = img_by_host.get(host, [])
            if host_imgs and pi % 2 == 0:
                # rotate so every image (incl. malformed ones) is referenced
                start = (pi // 2 * 3) % len(host_imgs)
                rotated = (host_imgs * 2)[start : start + 3]
            else:
                rotated = []
            for iu, cap in rotated:
                rel = "/" + iu.split("/", 3)[3]
                imgs += f'<img src="{rel}" alt="{cap}">\n'
            opendir = ""
            if hi % 8 == 0 and pi == len(urls) - 1:
                opendir = "<title>Index of /files</title>"
            text = f"<p>Synthetic page {pi} on {host} with words "
            text += " ".join(_caption(prng, text_words).split()) + "</p>"
            html = (
                f"<html><head>{opendir}<title>{host} p{pi}</title></head>"
                f"<body><h1>{host} page {pi}</h1>\n{text}\n{body_links}\n{imgs}"
                f"</body></html>"
            )
            corpus.pages[url] = {
                "status": 200,
                "content_type": "text/html; charset=UTF-8",
                "body": html.encode("utf-8"),
                "redirect_to": "",
            }
        # robots-blocked page exists but must never be fetched
        corpus.pages[f"https://{host}/private/secret.html"] = {
            "status": 200, "content_type": "text/html",
            "body": b"<html><body>secret</body></html>", "redirect_to": "",
        }

    # non-UTF-8 fixture pages on host 0: Latin-1 declared in the HTTP
    # header, Shift-JIS declared in a <meta> tag (charset-tolerant
    # decode — reference chardet flow, playwrightcrawler.py:5091-5099)
    latin1_html = (
        "<html><body><p>café façade naïve entrée "
        "résumé jalapeño</p></body></html>"
    )
    corpus.pages[f"https://{hosts[0]}/latin1.html"] = {
        "status": 200, "content_type": "text/html; charset=ISO-8859-1",
        "body": latin1_html.encode("iso8859-1"), "redirect_to": "",
    }
    sjis_html = (
        '<html><head><meta charset="shift_jis"></head>'
        "<body><p>日本語のテキスト "
        "tokyo words page</p></body></html>"
    )
    corpus.pages[f"https://{hosts[0]}/sjis.html"] = {
        "status": 200, "content_type": "text/html",
        "body": sjis_html.encode("shift_jis"), "redirect_to": "",
    }

    # JS-rendered fixture on host 1 (the render hook's golden path): a
    # link and a lazy-loaded image exist ONLY after rendering
    if n_hosts > 1:
        h1 = hosts[1]
        h1_imgs = img_by_host.get(h1, [])
        lazy_img = (
            f'<img data-src="/{h1_imgs[0][0].split("/", 3)[3]}" '
            f'alt="{h1_imgs[0][1]}">' if h1_imgs else ""
        )
        dynamic_html = (
            "<html><body><p>static shell content here</p>\n"
            "<script>document.write('<a href=\"/jsonly.html\">late</a>');"
            "</script>\n" + lazy_img + "</body></html>"
        )
        corpus.pages[f"https://{h1}/dynamic.html"] = {
            "status": 200, "content_type": "text/html",
            "body": dynamic_html.encode(), "redirect_to": "",
        }
        corpus.pages[f"https://{h1}/jsonly.html"] = {
            "status": 200, "content_type": "text/html",
            "body": b"<html><body><p>only reachable through the "
                    b"rendered DOM</p></body></html>",
            "redirect_to": "",
        }
        # COMPUTED-JS fixture: these links exist in no string literal —
        # they are built by a loop + DOM construction, so only real
        # script execution (functions/jsinterp.py) discovers them; the
        # round-3 literal scan finds nothing here
        computed_html = (
            "<html><body><p>links are computed, not written</p>\n"
            "<script>\n"
            "var base = '/js';\n"
            "for (var i = 0; i < 2; i++) {\n"
            "  document.write('<a href=\"' + base + 'gen' + i +"
            " '.html\">g</a>');\n"
            "}\n"
            "var a = document.createElement('a');\n"
            "a.href = base + 'dom.html';\n"
            "document.body.appendChild(a);\n"
            "</script></body></html>"
        )
        corpus.pages[f"https://{h1}/computed.html"] = {
            "status": 200, "content_type": "text/html",
            "body": computed_html.encode(), "redirect_to": "",
        }
        for name in ("jsgen0", "jsgen1", "jsdom"):
            corpus.pages[f"https://{h1}/{name}.html"] = {
                "status": 200, "content_type": "text/html",
                "body": (f"<html><body><p>{name}: computed-JS target"
                         f"</p></body></html>").encode(),
                "redirect_to": "",
            }
    # EXTERNAL-script fixture (host 3 — no crawl-delay, so the targets
    # are reached within the wave budget): the link URLs exist ONLY
    # inside a fetched /app.js (computed there, no literal in the
    # page), and a following inline script reads a global the external
    # script defined — only a renderer that FETCHES and EXECUTES
    # external scripts in document order (round 5) discovers
    # /extgen*.html and /extdom.html
    if n_hosts > 3:
        h3 = hosts[3]
        app_js = (
            "var extbase = '/ext';\n"
            "function mk(n) { return extbase + 'gen' + n + '.html'; }\n"
            "for (var i = 0; i < 2; i++) {\n"
            "  document.write('<a href=\"' + mk(i) + '\">x</a>');\n"
            "}\n"
        )
        corpus.pages[f"https://{h3}/app.js"] = {
            "status": 200, "content_type": "application/javascript",
            "body": app_js.encode(), "redirect_to": "",
        }
        external_html = (
            "<html><body><p>links live in the external script</p>\n"
            '<script src="/app.js"></script>\n'
            "<script>\n"
            "var a = document.createElement('a');\n"
            "var kind = 'go:dom!'.match(/go:(\\w+)/)[1];\n"
            "a.href = extbase + kind + '.html';\n"
            "document.body.appendChild(a);\n"
            "</script></body></html>"
        )
        corpus.pages[f"https://{h3}/external.html"] = {
            "status": 200, "content_type": "text/html",
            "body": external_html.encode(), "redirect_to": "",
        }
        for name in ("extgen0", "extgen1", "extdom"):
            corpus.pages[f"https://{h3}/{name}.html"] = {
                "status": 200, "content_type": "text/html",
                "body": (f"<html><body><p>{name}: external-JS target"
                         f"</p></body></html>").encode(),
                "redirect_to": "",
            }

    # seeds: n_seeds hosts incl. one deliberately malformed scheme
    # (FIXTURES.md §2); default 8
    k = max(1, min(n_seeds - 1, n_hosts))
    corpus.seeds = [f"https://{hosts[i]}/" for i in range(k)]
    corpus.seeds.append("htpps://" + hosts[-1] + "/")
    return corpus
