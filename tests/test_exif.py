"""EXIF parse / strip / orientation normalization (imaging/exif.py),
with payloads from the test-side writer (_exif_writer): round-trip
both endiannesses, per-container attach→parse→strip cycles with
bit-identical pixels, and the 8 orientation transforms against hand-written ground-truth matrices
(the chirality of tags 6/8 is the classic bug — pinned literally)."""

from __future__ import annotations

import numpy as np
import pytest

from playwrightcrawler_ray.imaging.codec import decode_image, encode_image
from playwrightcrawler_ray.imaging.exif import (
    decode_image_oriented,
    exif_parse,
    exif_strip,
    find_exif,
    orient_pixels,
    parse_exif_tiff,
)

from _exif_writer import attach_exif, build_exif

TAGS = dict(orientation=6, make="GraftCam", model="GC-100 Pro",
            datetime="2026:08:18 12:34:56",
            gps=(48.858370, 2.294481))


@pytest.mark.parametrize("endian", ["<", ">"])
def test_build_parse_roundtrip(endian):
    payload = build_exif(endian=endian, **TAGS)
    got = parse_exif_tiff(payload)
    assert got["orientation"] == 6
    assert got["make"] == "GraftCam" and got["model"] == "GC-100 Pro"
    assert got["datetime"] == "2026:08:18 12:34:56"
    assert got["has_gps"]
    # DMS rationals quantize seconds to 1e-6 — well inside 1e-9 deg
    assert abs(got["gps_lat"] - 48.858370) < 1e-8
    assert abs(got["gps_lon"] - 2.294481) < 1e-8


def test_build_parse_southern_western_hemisphere():
    got = parse_exif_tiff(build_exif(gps=(-33.856784, -151.215297 + 360 - 360)))
    assert got["gps_lat"] < 0
    got = parse_exif_tiff(build_exif(gps=(-33.9, -151.2)))
    assert got["gps_lat"] < 0 and got["gps_lon"] < 0
    assert abs(got["gps_lat"] + 33.9) < 1e-8
    assert abs(got["gps_lon"] + 151.2) < 1e-8


def _test_image(h=10, w=14):
    rng = np.random.default_rng(42)
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


@pytest.mark.parametrize("fmt", ["jpeg", "png"])
def test_attach_parse_strip_cycle(fmt):
    px = _test_image()
    data = encode_image(px, fmt)
    assert find_exif(data) is None
    assert exif_parse(data)["orientation"] == 1

    tagged = attach_exif(data, build_exif(**TAGS))
    info = exif_parse(tagged)
    assert info["orientation"] == 6 and info["has_gps"]
    assert info["make"] == "GraftCam"
    # the attach is metadata-only: pixels decode identically
    np.testing.assert_array_equal(decode_image(tagged)[0],
                                  decode_image(data)[0])

    scrubbed = exif_strip(tagged)
    assert find_exif(scrubbed) is None
    gone = exif_parse(scrubbed)
    assert not gone["has_gps"] and gone["gps_lat"] is None
    assert gone["orientation"] == 1 and gone["make"] is None
    np.testing.assert_array_equal(decode_image(scrubbed)[0],
                                  decode_image(data)[0])
    # the GPS rationals' byte patterns must be gone from the file
    assert find_exif(tagged)[:4] in (b"II*\x00", b"MM\x00*")
    assert b"GraftCam" not in scrubbed


def test_attach_parse_strip_webp_vp8x():
    """WebP EXIF rides beside VP8X: attach sets the EXIF flag bit,
    strip clears it, and the animation still decodes identically."""
    from playwrightcrawler_ray.imaging.webp import webp_decode_frames

    from _webp_writer import webp_encode_anim

    px = _test_image(8, 8)
    data = webp_encode_anim((8, 8), [{"pixels": px}])
    tagged = attach_exif(data, build_exif(**TAGS))
    assert tagged[tagged.index(b"VP8X") + 8] & 0x08
    info = exif_parse(tagged)
    assert info["orientation"] == 6 and info["has_gps"]

    scrubbed = exif_strip(tagged)
    assert find_exif(scrubbed) is None
    assert not scrubbed[scrubbed.index(b"VP8X") + 8] & 0x08
    f0 = webp_decode_frames(data)[0][0]
    f1 = webp_decode_frames(scrubbed)[0][0]
    np.testing.assert_array_equal(f0, f1)


def test_attach_webp_without_vp8x_refused():
    data = encode_image(_test_image(), "webp")
    with pytest.raises(ValueError, match="VP8X"):
        attach_exif(data, build_exif())


def test_tiff_strip_refused_parse_works():
    """Bare TIFF: the EXIF tags live in IFD0 — parse must see a
    payload (the file itself), strip must refuse."""
    data = encode_image(_test_image(), "tiff")
    assert find_exif(data) == data
    with pytest.raises(ValueError, match="structural"):
        exif_strip(data)


# Visual ground truth: V is what the viewer must see. For each tag,
# STORED is the literal byte layout a camera writes — hand-computed
# from EXIF 2.32 table 5, NOT via the inverse transform (so a
# chirality bug in orient_pixels cannot cancel itself out).
_V = np.array([[1, 2, 3],
               [4, 5, 6]])
_STORED = {
    1: _V,
    2: np.array([[3, 2, 1], [6, 5, 4]]),          # mirrored horiz
    3: np.array([[6, 5, 4], [3, 2, 1]]),          # rot 180
    4: np.array([[4, 5, 6], [1, 2, 3]]),          # mirrored vert
    5: np.array([[1, 4], [2, 5], [3, 6]]),        # transpose
    6: np.array([[3, 6], [2, 5], [1, 4]]),        # stored = V rot CCW
    7: np.array([[6, 3], [5, 2], [4, 1]]),        # transverse
    8: np.array([[4, 1], [5, 2], [6, 3]]),        # stored = V rot CW
}


@pytest.mark.parametrize("tag", sorted(_STORED))
def test_orientation_ground_truth_2d(tag):
    np.testing.assert_array_equal(
        orient_pixels(_STORED[tag], tag), _V)


@pytest.mark.parametrize("tag", sorted(_STORED))
def test_orientation_ground_truth_rgb(tag):
    v3 = np.stack([_V, _V * 10, _V + 100], axis=2).astype(np.uint8)
    s3 = np.stack([_STORED[tag]] * 1, axis=0)[0]
    s3 = np.stack([s3, s3 * 10, s3 + 100], axis=2).astype(np.uint8)
    out = orient_pixels(s3, tag)
    np.testing.assert_array_equal(out, v3)
    assert out.flags["C_CONTIGUOUS"]


def test_decode_image_oriented_png_exact():
    """Lossless end-to-end: a PNG stored sideways (tag 6) decodes
    upright, pixel-exact, and reports its EXIF."""
    v = _test_image(6, 9)
    stored = np.ascontiguousarray(np.rot90(v, 1))  # camera wrote CCW
    data = attach_exif(encode_image(stored, "png"),
                       build_exif(orientation=6, make="GraftCam"))
    px, fmt, info = decode_image_oriented(data)
    assert fmt == "png" and info["orientation"] == 6
    np.testing.assert_array_equal(px, v)
    # and an untagged image passes through untouched
    px2, _, info2 = decode_image_oriented(encode_image(v, "png"))
    assert info2["orientation"] == 1
    np.testing.assert_array_equal(px2, v)


def test_exif_parse_garbage_safe():
    """Truncated / hostile payloads must yield defaults, never
    raise: the crawler feeds this arbitrary web bytes."""
    assert parse_exif_tiff(b"")["orientation"] == 1
    assert parse_exif_tiff(b"II*\x00\x08\x00\x00\x00")["orientation"] == 1
    rng = np.random.default_rng(3)
    for n in (4, 16, 64, 256):
        blob = b"II*\x00" + rng.integers(0, 256, n, dtype=np.uint8
                                         ).tobytes()
        parse_exif_tiff(blob)  # must not raise
    # orientation out of range → default
    bad = build_exif(orientation=99)
    assert parse_exif_tiff(bad)["orientation"] == 1


def test_exif_extractor_stage(ray_session):
    """Actor-pool EXIF stage: signals appended per row, scrub column
    carries GPS-free bytes with identical pixels; hostile bytes are
    error-tolerant (defaults), never crashed tasks."""
    import pyarrow as pa
    import ray.data

    from playwrightcrawler_ray.stages.multimodal import ExifExtractor

    clean = encode_image(_test_image(), "png")
    tagged = attach_exif(clean, build_exif(**TAGS))
    tbl = pa.table({"bytes": pa.array(
        [clean, tagged, b"\x89PNG\r\n\x1a\nhostile"], pa.binary())})
    out = (
        ray.data.from_arrow(tbl)
        .map_batches(ExifExtractor, batch_format="pyarrow",
                     batch_size=2, concurrency=2,
                     fn_constructor_kwargs={"scrub": True})
        .to_pandas()
    )
    assert list(out["exif_orientation"]) == [1, 6, 1]
    assert list(out["exif_has_gps"]) == [False, True, False]
    assert out["exif_make"][1] == "GraftCam"
    # scrub: the tagged row's scrubbed bytes lose their EXIF but
    # decode to the same pixels
    sb = out["scrubbed_bytes"][1]
    assert find_exif(bytes(sb)) is None
    np.testing.assert_array_equal(decode_image(bytes(sb))[0],
                                  decode_image(clean)[0])
    assert bytes(out["scrubbed_bytes"][0]) == clean


def test_export_media_scrub_exif(ray_session, tmp_path):
    """export_media_files(scrub_exif=True) writes GPS-free files with
    bit-identical pixels; the manifest reflects the scrubbed sizes."""
    from playwrightcrawler_ray.config import CrawlConfig
    from playwrightcrawler_ray.corpus import build_corpus
    from playwrightcrawler_ray.pipelines.crawl import run_crawl
    from playwrightcrawler_ray.pipelines.export import export_media_files

    out_dir = str(tmp_path / "crawl")
    run_crawl(build_corpus(seed=42, n_hosts=4, pages_per_host=4),
              CrawlConfig(output_dir=out_dir, max_waves=20))
    dest = str(tmp_path / "media")
    manifest = export_media_files(out_dir, dest, scrub_exif=True)
    assert len(manifest) > 0
    for _, row in manifest.iterrows():
        data = open(f"{dest}/{row['path']}", "rb").read()
        assert len(data) == row["n_bytes"]
        assert find_exif(data) is None or data[:4] in (
            b"II*\x00", b"MM\x00*")  # bare TIFF passes through
        decode_image(data)  # still a valid image


def test_exif_survives_crawl_end_to_end(ray_session, tmp_path):
    """Real-crawl e2e: tag a corpus image with EXIF (incl. GPS) after
    build, crawl it, and confirm (a) the stored image bytes carry the
    tag verbatim (the engine stores fetched bytes, it must not mangle
    metadata), (b) ExifExtractor over the crawl's own images table
    surfaces the signals, (c) the scrub pipeline writes a GPS-free
    copy with identical pixels."""
    import pyarrow.compute as pc

    from playwrightcrawler_ray.config import CrawlConfig
    from playwrightcrawler_ray.corpus import build_corpus
    from playwrightcrawler_ray.pipelines.crawl import load_unified, run_crawl
    from playwrightcrawler_ray.stages.multimodal import ExifExtractor

    corpus = build_corpus(seed=42, n_hosts=4, pages_per_host=4)
    # tag EVERY decodable JPEG/PNG image response (pixels unchanged,
    # so the crawl's content identities are untouched) — guarantees
    # the crawl stores at least one tagged payload
    tagged_urls = set()
    for url, resp in sorted(corpus.pages.items()):
        body = resp.get("body")
        if not isinstance(body, (bytes, bytearray)):
            continue
        if bytes(body[:2]) == b"\xff\xd8" or bytes(body[:8]) == b"\x89PNG\r\n\x1a\n":
            resp["body"] = attach_exif(bytes(body), build_exif(**TAGS))
            tagged_urls.add(url)
    assert tagged_urls, "corpus has no jpeg/png image"

    out_dir = str(tmp_path / "crawl")
    run_crawl(corpus, CrawlConfig(output_dir=out_dir, max_waves=30))

    ds = load_unified(out_dir, columns=["kind", "url", "bytes"])
    ds = ds.filter(lambda r: r["kind"] == "image")
    out = (
        ds.map_batches(ExifExtractor, batch_format="pyarrow",
                       concurrency=1, fn_constructor_kwargs={"scrub": True})
        .to_pandas()
    )
    assert len(out) > 0
    tagged = out[out["url"].isin(tagged_urls)]
    assert len(tagged) > 0, "crawl stored no tagged jpeg/png image"
    for _, row in tagged.iterrows():
        assert row["exif_orientation"] == 6
        assert bool(row["exif_has_gps"])
        assert row["exif_make"] == "GraftCam"
        # scrubbed twin: no EXIF, identical pixels
        sb = bytes(row["scrubbed_bytes"])
        assert find_exif(sb) is None
        orig = corpus.pages[row["url"]]["body"]
        np.testing.assert_array_equal(decode_image(sb)[0],
                                      decode_image(bytes(orig))[0])
    # untouched (non-jpeg/png) images keep orientation 1 / no GPS
    rest = out[~out["url"].isin(tagged_urls)]
    assert (rest["exif_orientation"] == 1).all()
    assert (~rest["exif_has_gps"]).all()


def test_exif_parse_structured_fuzz():
    """Structured-adversarial fuzz: valid TIFF headers with random
    IFD entry tables (random tags/types/counts/offsets, including
    pointers past EOF and into the header) must never raise and never
    return out-of-domain values."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150, deadline=None)
    @given(
        endian=st.sampled_from(["<", ">"]),
        entries=st.lists(
            st.tuples(
                st.integers(0, 0xFFFF),      # tag
                st.integers(0, 13),          # type (incl. invalid)
                st.integers(0, 1 << 22),     # count (incl. huge)
                st.integers(0, 1 << 32 - 1), # inline value / offset
            ),
            min_size=0, max_size=12,
        ),
        ifd_off=st.integers(0, 64),
        trailing=st.binary(max_size=64),
    )
    def run(endian, entries, ifd_off, trailing):
        import struct as s

        magic = b"II*\x00" if endian == "<" else b"MM\x00*"
        body = s.pack(endian + "H", len(entries))
        for tag, typ, count, val in entries:
            body += s.pack(endian + "HHII", tag, typ, count,
                           val & 0xFFFFFFFF)
        body += s.pack(endian + "I", 0)
        payload = magic + s.pack(endian + "I", ifd_off) + body + trailing
        out = parse_exif_tiff(payload)
        assert 1 <= out["orientation"] <= 8
        assert isinstance(out["has_gps"], bool)
        if out["gps_lat"] is not None:
            assert np.isfinite(out["gps_lat"])

    run()


def test_exif_parse_mistyped_tags_never_raise():
    """Regression (review): hostile files type anything as anything —
    an ASCII-typed Orientation, ASCII-typed sub-IFD pointers, and a
    1-char ASCII GPS latitude all used to raise TypeError/ValueError
    through decode_image_oriented, turning decodable images into
    error rows. They must yield defaults."""
    import struct as s

    def tiff(entries, heap=b""):
        body = s.pack("<H", len(entries))
        for tag, typ, count, val in entries:
            body += s.pack("<HHI", tag, typ, count) + val
        body += s.pack("<I", 0)
        return b"II*\x00" + s.pack("<I", 8) + body + heap

    # Orientation typed ASCII ("6\0\0\0" inline)
    out = parse_exif_tiff(tiff([(0x0112, 2, 4, b"6\x00\x00\x00")]))
    assert out["orientation"] == 1
    # Exif/GPS IFD pointers typed ASCII
    out = parse_exif_tiff(tiff([(0x8769, 2, 4, b"ab\x00\x00"),
                                (0x8825, 2, 4, b"cd\x00\x00")]))
    assert out["orientation"] == 1 and not out["has_gps"]
    # GPS IFD whose latitude is a 1-char ASCII and longitude absent
    gps_off = 8 + 2 + 12 + 4
    payload = tiff(
        [(0x8825, 4, 1, s.pack("<I", gps_off))],
        heap=s.pack("<H", 1) + s.pack("<HHI", 0x0002, 2, 2)
        + b"N\x00\x00\x00" + s.pack("<I", 0),
    )
    out = parse_exif_tiff(payload)
    assert not out["has_gps"] and out["gps_lat"] is None
    # negative (type-9) sub-IFD pointer
    out = parse_exif_tiff(tiff([(0x8769, 9, 1, s.pack("<i", -40))]))
    assert out["orientation"] == 1


def test_gps_ifd_without_coordinates_not_reported():
    """Regression (review): a GPS IFD containing only GPSVersionID —
    what phones write with location off (the spec makes the version
    tag mandatory whenever the IFD exists) — must NOT report
    has_gps=True at (0, 0)."""
    import struct as s

    gps_off = 8 + 2 + 12 + 4
    gps_ifd = (s.pack("<H", 1)
               + s.pack("<HHI", 0x0000, 1, 4) + b"\x02\x03\x00\x00"
               + s.pack("<I", 0))
    payload = (b"II*\x00" + s.pack("<I", 8)
               + s.pack("<H", 1)
               + s.pack("<HHI", 0x8825, 4, 1) + s.pack("<I", gps_off)
               + s.pack("<I", 0)
               + gps_ifd)
    out = parse_exif_tiff(payload)
    assert not out["has_gps"]
    assert out["gps_lat"] is None and out["gps_lon"] is None


def test_attach_exif_oversized_payload_refused():
    """Regression (review): a payload over one APP1 segment must be a
    clean ValueError, not struct.error."""
    data = encode_image(_test_image(), "jpeg")
    with pytest.raises(ValueError, match="APP1"):
        attach_exif(data, build_exif() + b"\x00" * 70000)


def test_image_semdedup_embedding_is_orientation_normalized(
        ray_session, tmp_path):
    """Regression (review): the image-SemDeDup embedding path must
    fold EXIF orientation — a sideways-stored (tag 6) copy of a photo
    collapses onto the upright original instead of surviving as a
    spurious unique."""
    from playwrightcrawler_ray.imaging.exif import decode_image_oriented
    from playwrightcrawler_ray.pipelines.export import thumb_embedding

    v = _test_image(24, 36)
    upright = encode_image(v, "png")
    sideways = attach_exif(
        encode_image(np.ascontiguousarray(np.rot90(v, 1)), "png"),
        build_exif(orientation=6))
    ea = thumb_embedding(decode_image_oriented(upright)[0])
    eb = thumb_embedding(decode_image_oriented(sideways)[0])
    np.testing.assert_allclose(ea, eb, atol=1e-12)
    # and WITHOUT the fold they would not collide (sanity that the
    # test discriminates)
    raw = thumb_embedding(decode_image(sideways)[0])
    assert float(np.dot(ea, raw)) < 0.99
