"""Imaging codec tests: PNG round-trip, lossy PSNR invariant, dHash,
error taxonomy (SURVEY.md §5 item 3 per-row invariants)."""

from __future__ import annotations

import numpy as np
import pytest

from playwrightcrawler_ray.imaging import (
    CodecUnavailable,
    DecompressionBombError,
    UnidentifiedImageError,
    decode_image,
    dhash64,
    encode_image,
    pixel_hash,
)
from playwrightcrawler_ray.imaging.png import png_decode, png_encode

from _image_metrics import psnr


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


def _pixels(seed: int, h: int = 48, w: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # smooth-ish image: random low-res grid upsampled, like real photos
    base = rng.integers(0, 256, size=(h // 8, w // 8, 3), dtype=np.uint8)
    return np.repeat(np.repeat(base, 8, axis=0), 8, axis=1)


def test_png_roundtrip_exact():
    px = _pixels(1)
    data = png_encode(px)
    out = png_decode(data)
    assert np.array_equal(out, px)


def test_png_rgba_flatten():
    rgba = np.dstack([_pixels(2), np.full((48, 64), 128, np.uint8)])
    data = png_encode(rgba)
    out, fmt = decode_image(data)
    assert fmt == "png" and out.shape == (48, 64, 3)


def test_qimg_lossy_psnr_over_40db():
    px = _pixels(3)
    data = encode_image(px, "qimg")
    out, fmt = decode_image(data)
    assert fmt == "qimg"
    assert psnr(px, out) >= 40.0  # BASELINE.json per-row invariant


def test_decode_errors_taxonomy():
    with pytest.raises(UnidentifiedImageError):
        decode_image(b"this is not an image at all....")
    with pytest.raises(CodecUnavailable):
        decode_image(  # WebP VP8 INTERFRAME: not a still image — the one
            # WebP variant left undecodable (keyframes + VP8L both decode)
            b"RIFF" + (4 + 8 + 56).to_bytes(4, "little") + b"WEBP"
            + b"VP8 " + (56).to_bytes(4, "little")
            + b"\x01\x00\x00" + b"\x00" * 53
        )
    with pytest.raises(CodecUnavailable):
        decode_image(  # hierarchical JPEG (SOF13): genuinely out of scope
            b"\xff\xd8\xff\xcd" + (11).to_bytes(2, "big")
            + b"\x08\x00\x10\x00\x10\x01\x01\x11\x00"
        )
    with pytest.raises(OSError):
        decode_image(b"\xff\xd8\xff\xe0" + b"\x00" * 64)  # truncated JPEG
    # truncated PNG → OSError family
    good = png_encode(_pixels(4))
    with pytest.raises((OSError, ValueError)):
        decode_image(good[:40] + b"\x00" * 8)
    # decompression bomb: forge a qimg header claiming 1e9 pixels
    import struct, zlib

    bomb = b"QIM1" + struct.pack(">II", 100_000, 100_000) + zlib.compress(b"")
    with pytest.raises(DecompressionBombError):
        decode_image(bomb)


def test_png_idat_bomb_bounded_inflate():
    """Small declared w/h passing the max_pixels guard, but IDAT inflates
    to ~64 MiB: the bounded decompressobj must bail without inflating it."""
    import struct
    import zlib

    def chunk(tag, payload):
        c = struct.pack(">I", len(payload)) + tag + payload
        return c + struct.pack(">I", zlib.crc32(tag + payload))

    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)  # 4x4 RGB
    idat = zlib.compress(b"\x00" * (64 * 1024 * 1024), 9)  # ~64 KiB packed
    bomb = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )
    with pytest.raises((MemoryError, ValueError)):
        png_decode(bomb)


def test_pixel_hash_format_independent():
    px = _pixels(5)
    # identical pixels via different wire bytes → same exact-dup key
    assert pixel_hash(px) == pixel_hash(px.copy())
    h1 = pixel_hash(decode_image(png_encode(px))[0])
    assert h1 == pixel_hash(px)


def test_dhash_nearness():
    px = _pixels(6, 64, 64)
    h_orig = dhash64(px)
    # lossy re-encode: phash should be very close (near-dup bucket)
    lossy, _ = decode_image(encode_image(px, "qimg"))
    assert hamming64(h_orig, dhash64(lossy)) <= 4
    # a different image should be far
    other = _pixels(99, 64, 64)
    assert hamming64(h_orig, dhash64(other)) > 10
    # int64 range for Arrow
    assert -(2**63) <= h_orig < 2**63


def test_psnr_identical_inf():
    px = _pixels(7)
    assert psnr(px, px) == float("inf")


def test_png_roundtrip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def roundtrip(h, w, seed):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(png_decode(png_encode(px)), px)
        # qimg PSNR invariant holds for arbitrary content too
        out, _ = decode_image(encode_image(px, "qimg"))
        assert psnr(px, out) >= 40.0

    roundtrip()


def test_png_decode_foreign_filters():
    # defilter path: synthesize filter-2 (Up) scanlines by hand
    import struct
    import zlib

    px = _pixels(8, 8, 8)
    h, w, ch = px.shape
    raw = bytearray()
    prev = np.zeros(w * ch, np.int32)
    for y in range(h):
        cur = px[y].reshape(-1).astype(np.int32)
        raw.append(2)  # Up filter
        raw.extend(((cur - prev) % 256).astype(np.uint8).tobytes())
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)

    def chunk(tag, payload):
        return (
            struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    data = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b""))
    assert np.array_equal(png_decode(data), px)


def test_jpeg_roundtrip_psnr():
    """Pure-Python baseline JPEG codec: 4:4:4 and 4:2:0 round trips.
    Corpus-statistics images must clear the 40 dB lossy invariant at
    the corpus quality (q95, 4:4:4)."""
    from playwrightcrawler_ray.corpus.generate import _make_pixels
    from playwrightcrawler_ray.imaging.jpeg import jpeg_decode, jpeg_encode

    rng = np.random.default_rng(3)
    for size in (24, 48):
        px = _make_pixels(rng, size)
        dec = jpeg_decode(jpeg_encode(px, quality=95, subsampling="444"))
        assert dec.shape == px.shape
        assert psnr(px, dec) >= 40
        d420 = jpeg_decode(jpeg_encode(px, quality=95, subsampling="420"))
        assert d420.shape == px.shape
        assert psnr(px, d420) >= 20  # chroma subsampling is lossy by design
        # and the luma channel survives sharply despite 4:2:0 chroma
        def luma(a):
            return (0.299 * a[:, :, 0] + 0.587 * a[:, :, 1]
                    + 0.114 * a[:, :, 2]).astype(np.float64)

        lum_mse = np.mean((luma(px) - luma(d420)) ** 2)
        assert 10 * np.log10(255.0**2 / max(lum_mse, 1e-9)) >= 40


def test_jpeg_420_constant_chroma_near_lossless():
    # constant chroma: 4:2:0 subsampling loses nothing → both layouts
    # decode to the same high-PSNR result (validates the MCU/upsample path)
    from playwrightcrawler_ray.imaging.jpeg import jpeg_decode, jpeg_encode

    h, w = 40, 56
    yy, xx = np.mgrid[0:h, 0:w]
    g = ((xx + yy) * 255 / (h + w)).astype(np.uint8)
    px = np.stack([g, g, g], axis=2)
    p444 = psnr(px, jpeg_decode(jpeg_encode(px, 95, "444")))
    p420 = psnr(px, jpeg_decode(jpeg_encode(px, 95, "420")))
    assert p444 >= 45 and p420 >= 45
    assert abs(p444 - p420) < 1.0


def test_jpeg_odd_dimensions_and_gray():
    from playwrightcrawler_ray.imaging.jpeg import jpeg_decode, jpeg_encode

    rng = np.random.default_rng(9)
    for h, w in [(1, 1), (7, 9), (17, 23), (8, 8)]:
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        for ss in ("444", "420"):
            dec = jpeg_decode(jpeg_encode(px, quality=97, subsampling=ss))
            assert dec.shape == (h, w, 3)


def test_jpeg_through_facade_and_hashes():
    from playwrightcrawler_ray.corpus.generate import _make_pixels
    from playwrightcrawler_ray.imaging.codec import (
        decode_image, dhash64, encode_image,
    )

    rng = np.random.default_rng(11)
    px = _make_pixels(rng, 48)
    dec, fmt = decode_image(encode_image(px, "jpeg"))
    assert fmt == "jpeg"
    # dhash of q95 decode stays Hamming-close to the original's
    assert hamming64(dhash64(px), dhash64(dec)) <= 4


def test_png_palette_gray_variants():
    """Decoder reads every non-interlaced PNG color type: palette (with
    and without tRNS), grayscale at sub-byte depths, gray+alpha, and
    16-bit — hand-crafted streams, verified against known pixels."""
    import struct
    import zlib

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    def make(w, h, depth, ctype, scanlines, extra=b""):
        ihdr = struct.pack(">IIBBBBB", w, h, depth, ctype, 0, 0, 0)
        return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + extra
                + chunk(b"IDAT", zlib.compress(scanlines))
                + chunk(b"IEND", b""))

    from playwrightcrawler_ray.imaging.png import png_decode

    # palette 8-bit, 2x2: indexes 0,1,2,3
    plte = bytes([255, 0, 0,  0, 255, 0,  0, 0, 255,  9, 9, 9])
    img = make(2, 2, 8, 3, b"\x00\x00\x01\x00\x02\x03",
               chunk(b"PLTE", plte))
    px = png_decode(img)
    assert px.shape == (2, 2, 3)
    assert px[0, 0].tolist() == [255, 0, 0] and px[1, 1].tolist() == [9, 9, 9]
    # palette + tRNS → RGBA with per-index alpha
    img_t = make(2, 2, 8, 3, b"\x00\x00\x01\x00\x02\x03",
                 chunk(b"PLTE", plte) + chunk(b"tRNS", bytes([0, 128])))
    px = png_decode(img_t)
    assert px.shape == (2, 2, 4)
    assert px[0, 0, 3] == 0 and px[0, 1, 3] == 128 and px[1, 0, 3] == 255
    # 1-bit grayscale 8x1: bits 10110001 → 255/0 scaling
    img_g1 = make(8, 1, 1, 0, b"\x00\xb1")
    px = png_decode(img_g1)
    assert px.shape == (1, 8, 3)
    assert px[0, 0, 0] == 255 and px[0, 1, 0] == 0 and px[0, 7, 0] == 255
    # 4-bit palette 2x1: indexes 1,2 packed in one byte
    img_p4 = make(2, 1, 4, 3, b"\x00\x12", chunk(b"PLTE", plte))
    px = png_decode(img_p4)
    assert px[0, 0].tolist() == [0, 255, 0] and px[0, 1].tolist() == [0, 0, 255]
    # gray+alpha 8-bit 1x2
    img_ga = make(2, 1, 8, 4, b"\x00\x10\xff\x80\x40")
    px = png_decode(img_ga)
    assert px.shape == (1, 2, 4)
    assert px[0, 0].tolist() == [16, 16, 16, 255]
    assert px[0, 1].tolist() == [128, 128, 128, 64]
    # 16-bit RGB 1x1: high bytes kept
    img_16 = make(1, 1, 16, 2, b"\x00\xab\xcd\x12\x34\x56\x78")
    px = png_decode(img_16)
    assert px[0, 0].tolist() == [0xAB, 0x12, 0x56]
    # Adam7 interlace DECODES now (no longer a stub); a malformed
    # interlaced stream (wrong scanline byte count) is a ValueError
    ihdr_i = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1)
    img_i = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr_i)
             + chunk(b"IDAT", zlib.compress(b"\x00" * 10))
             + chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        png_decode(img_i)
    good_i = png_encode(_pixels(30, 8, 8), interlace=True)
    assert np.array_equal(png_decode(good_i), _pixels(30, 8, 8))


def test_tiff_roundtrip_and_variants():
    """Baseline TIFF: uncompressed RGB round trip, PackBits + grayscale
    + bilevel decode, big-endian, unsupported variants → stub."""
    import struct

    from playwrightcrawler_ray.imaging.tiff import (
        _unpackbits, tiff_decode, tiff_encode,
    )

    px = _pixels(13, 24, 40)
    enc = tiff_encode(px)
    dec, fmt = decode_image(enc)
    assert fmt == "tiff" and np.array_equal(dec, px)

    # PackBits: literal run + repeat run
    assert _unpackbits(bytes([2, 1, 2, 3, 254, 9]), 6) == bytes(
        [1, 2, 3, 9, 9, 9])

    def mk(entries, pixel_data, extra=b""):
        # tiny hand-rolled little-endian TIFF writer for variants
        out = bytearray(b"II*\x00")
        ifd_off = 8 + len(pixel_data)
        out += struct.pack("<I", ifd_off) + pixel_data
        out += struct.pack("<H", len(entries))
        for tag, typ, count, val in entries:
            out += struct.pack("<HHII", tag, typ, count, val)
        out += struct.pack("<I", 0)
        return bytes(out + extra)

    # 8-bit grayscale 4x2, BlackIsZero
    gray = bytes(range(8))
    g = mk([(256, 3, 1, 4), (257, 3, 1, 2), (258, 3, 1, 8), (259, 3, 1, 1),
            (262, 3, 1, 1), (273, 4, 1, 8), (277, 3, 1, 1), (278, 3, 1, 2),
            (279, 4, 1, 8)], gray)
    out = tiff_decode(g)
    assert out.shape == (2, 4, 3) and out[0, 1, 0] == 1
    # WhiteIsZero inverts
    g0 = mk([(256, 3, 1, 4), (257, 3, 1, 2), (258, 3, 1, 8), (259, 3, 1, 1),
             (262, 3, 1, 0), (273, 4, 1, 8), (277, 3, 1, 1), (278, 3, 1, 2),
             (279, 4, 1, 8)], gray)
    assert tiff_decode(g0)[0, 1, 0] == 254
    # bilevel 8x1: 0xB1 → bits 10110001
    b = mk([(256, 3, 1, 8), (257, 3, 1, 1), (258, 3, 1, 1), (259, 3, 1, 1),
            (262, 3, 1, 1), (273, 4, 1, 8), (277, 3, 1, 1), (278, 3, 1, 1),
            (279, 4, 1, 1)], b"\xb1")
    bl = tiff_decode(b)
    assert bl[0, 0, 0] == 255 and bl[0, 1, 0] == 0
    # LZW compression (5) DECODES now; garbage LZW payload (no leading
    # Clear code) is stream corruption → OSError taxonomy via facade
    lzw = mk([(256, 3, 1, 2), (257, 3, 1, 1), (258, 3, 1, 8), (259, 3, 1, 5),
              (262, 3, 1, 1), (273, 4, 1, 8), (277, 3, 1, 1), (278, 3, 1, 1),
              (279, 4, 1, 2)], b"\x00\x00")
    with pytest.raises(OSError):
        decode_image(lzw)


def test_codec_fuzz_never_hangs_or_leaks_exceptions():
    """Arbitrary bytes behind each format magic must produce a TYPED
    taxonomy error (or a valid decode) quickly — never a hang, never an
    unexpected exception class escaping the facade."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    magics = [
        b"\x89PNG\r\n\x1a\n", b"\xff\xd8\xff", b"GIF89a", b"BM",
        b"II*\x00", b"MM\x00*", b"QIM1",
    ]

    @settings(max_examples=120, deadline=2000)
    @given(st.integers(0, len(magics) - 1), st.binary(min_size=8, max_size=300))
    def fuzz(mi, tail):
        data = magics[mi] + tail
        try:
            px, _ = decode_image(data)
            assert px.dtype == np.uint8 and px.ndim == 3
        except (UnidentifiedImageError, DecompressionBombError,
                CodecUnavailable, OSError, ValueError):
            pass  # the documented taxonomy

    fuzz()


def test_jpeg_dqt_written_zigzag_matches_annex_k():
    """The DQT segment stores quant tables in zigzag scan order (T.81
    B.2.4.1): de-zigzagging the written bytes must recover the scaled
    Annex-K table in natural raster order — at quality 50 the scale
    factor is 1.0, so it must equal Annex K.1 exactly."""
    import struct

    import numpy as np

    from playwrightcrawler_ray.imaging.jpeg import (
        _QUANT_CHROMA, _QUANT_LUMA, ZIGZAG, jpeg_encode,
    )

    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    data = jpeg_encode(px, quality=50)
    tables = {}
    pos = 2
    while pos < len(data) - 1:
        marker = data[pos + 1]
        if marker == 0xDA:
            break
        (seglen,) = struct.unpack_from(">H", data, pos + 2)
        seg = data[pos + 4 : pos + 2 + seglen]
        if marker == 0xDB:
            tq = seg[0] & 0xF
            zzt = np.frombuffer(seg[1:65], dtype=np.uint8).astype(np.int32)
            nat = np.zeros(64, dtype=np.int32)
            nat[ZIGZAG] = zzt  # spec: entry k is natural index ZIGZAG[k]
            tables[tq] = nat
        pos += 2 + seglen
    assert np.array_equal(tables[0], _QUANT_LUMA)
    assert np.array_equal(tables[1], _QUANT_CHROMA)


def test_jpeg_progressive_roundtrip_and_equivalence():
    """Progressive (SOF2) decode: (a) clears the 40 dB lossy invariant
    at corpus quality on corpus-statistics images, and (b) decodes
    BIT-IDENTICALLY to the baseline decode of the same quantized
    coefficients — the strongest cross-check of the multi-scan
    spectral-selection + successive-approximation + EOB-run paths
    against the already-golden baseline path."""
    from playwrightcrawler_ray.corpus.generate import _make_pixels
    from playwrightcrawler_ray.imaging.jpeg import (
        jpeg_decode, jpeg_encode, jpeg_encode_progressive,
    )

    rng = np.random.default_rng(11)
    for size in (24, 48):
        px = _make_pixels(rng, size)
        prog = jpeg_encode_progressive(px, quality=95, subsampling="444")
        assert prog[2:4] == b"\xff\xe0" and b"\xff\xc2" in prog[:256]
        dec = jpeg_decode(prog)
        assert psnr(px, dec) >= 40
        base = jpeg_decode(jpeg_encode(px, quality=95, subsampling="444"))
        assert np.array_equal(dec, base)
    # 4:2:0 progressive: interleaved DC MCU + subsampled AC grids,
    # odd dims via cropping (exercises padded-vs-true block dims)
    px = _make_pixels(np.random.default_rng(12), 40)[:33, :37]
    p420 = jpeg_encode_progressive(px, quality=95, subsampling="420")
    b420 = jpeg_decode(jpeg_encode(px, quality=95, subsampling="420"))
    assert np.array_equal(jpeg_decode(p420), b420)


def test_jpeg_progressive_through_facade():
    """decode_image routes progressive payloads through the real
    decoder (fmt sniffs as jpeg) — no codec_unavailable row."""
    from playwrightcrawler_ray.corpus.generate import _make_pixels
    from playwrightcrawler_ray.imaging.codec import decode_image, encode_image

    px = _make_pixels(np.random.default_rng(13), 32)
    body = encode_image(px, "pjpeg")
    out, fmt = decode_image(body)
    assert fmt == "jpeg" and out.shape == px.shape
    assert psnr(px, out) >= 40


def test_png_adam7_interlace_roundtrip():
    """Adam7 interlaced PNG decodes for real now (was a typed stub):
    all 7 passes defiltered as sub-images and scattered by stride —
    round-trips exactly against the sequential encoding, including
    dimensions smaller than one pass grid."""
    from playwrightcrawler_ray.imaging.png import png_decode, png_encode

    rng = np.random.default_rng(21)
    for shape in [(1, 1), (2, 3), (7, 7), (8, 8), (9, 10), (33, 47)]:
        px = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        assert np.array_equal(png_decode(png_encode(px, interlace=True)), px)
        assert np.array_equal(png_decode(png_encode(px)), px)
    # RGBA through the facade (alpha flattened over white)
    px4 = rng.integers(0, 256, size=(11, 13, 4), dtype=np.uint8)
    from playwrightcrawler_ray.imaging.png import png_encode as enc

    out, fmt = decode_image(enc(px4, interlace=True))
    assert fmt == "png" and out.shape == (11, 13, 3)


def test_tiff_lzw_roundtrip():
    """LZW-compressed TIFF (compression 5, MSB-first early-change
    codes) with and without the horizontal predictor (tag 317) —
    lossless round trips incl. a stream long enough to exercise the
    9→12-bit width ladder and the table reset."""
    from playwrightcrawler_ray.imaging.tiff import tiff_decode, tiff_encode

    rng = np.random.default_rng(22)
    for shape in [(1, 1), (3, 5), (33, 47), (100, 100)]:
        px = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        for pred in (False, True):
            out = tiff_decode(tiff_encode(px, compression="lzw",
                                          predictor=pred))
            assert np.array_equal(out, px), (shape, pred)
    # predictor pays on smooth content (the real-world pairing)
    base = np.repeat(np.repeat(
        rng.integers(0, 256, (4, 4, 3), dtype=np.uint8), 16, 0), 16, 1)
    plain = tiff_encode(base, compression="lzw")
    pred = tiff_encode(base, compression="lzw", predictor=True)
    assert len(pred) < len(plain)
    assert np.array_equal(tiff_decode(pred), base)


def test_tiff_lzw_through_facade():
    from playwrightcrawler_ray.corpus.generate import _make_pixels

    px = _make_pixels(np.random.default_rng(23), 32)
    out, fmt = decode_image(encode_image(px, "tiff_lzw"))
    assert fmt == "tiff"
    assert np.array_equal(out, px)


def test_tiff_16bit_samples_high_byte():
    """16-bit TIFF samples reduce to their high byte (the PIL I;16→L
    convention, same as the PNG decoder) — grayscale and RGB, both
    uncompressed little-endian."""
    import struct

    from playwrightcrawler_ray.imaging.tiff import tiff_decode

    def mk(entries, pixel_data):
        out = bytearray(b"II*\x00")
        ifd_off = 8 + len(pixel_data)
        out += struct.pack("<I", ifd_off) + pixel_data
        out += struct.pack("<H", len(entries))
        for tag, typ, count, val in entries:
            out += struct.pack("<HHII", tag, typ, count, val)
        out += struct.pack("<I", 0)
        return bytes(out)

    # 2x2 grayscale, values chosen so high bytes are distinct
    gray16 = struct.pack("<4H", 0x1234, 0xAB00, 0x00FF, 0xFFFF)
    g = mk([(256, 3, 1, 2), (257, 3, 1, 2), (258, 3, 1, 16), (259, 3, 1, 1),
            (262, 3, 1, 1), (273, 4, 1, 8), (277, 3, 1, 1), (278, 3, 1, 2),
            (279, 4, 1, 8)], gray16)
    out = tiff_decode(g)
    assert out[0, 0, 0] == 0x12 and out[0, 1, 0] == 0xAB
    assert out[1, 0, 0] == 0x00 and out[1, 1, 0] == 0xFF
    # 1x2 RGB 16-bit (bits tag value block doesn't fit inline: use a
    # single SHORT count-3 written as offset-free via count 1 trick is
    # invalid — emit count 3 pointing past the IFD)
    rgb16 = struct.pack("<6H", 0x1100, 0x2200, 0x3300, 0x4400, 0x5500, 0x6600)
    base = bytearray(b"II*\x00")
    ifd_off = 8 + len(rgb16)
    entries = [(256, 3, 1, 2), (257, 3, 1, 1), (258, 3, 3, None),
               (259, 3, 1, 1), (262, 3, 1, 2), (273, 4, 1, 8),
               (277, 3, 1, 3), (278, 3, 1, 1), (279, 4, 1, len(rgb16))]
    bits_off = ifd_off + 2 + 12 * len(entries) + 4
    base += struct.pack("<I", ifd_off) + rgb16
    base += struct.pack("<H", len(entries))
    for tag, typ, count, val in entries:
        base += struct.pack("<HHII", tag, typ, count,
                            bits_off if tag == 258 else val)
    base += struct.pack("<I", 0)
    base += struct.pack("<HHH", 16, 16, 16)
    out2 = tiff_decode(bytes(base))
    assert out2.shape == (1, 2, 3)
    assert out2[0, 0].tolist() == [0x11, 0x22, 0x33]
    assert out2[0, 1].tolist() == [0x44, 0x55, 0x66]


def test_tiff_tiled_and_planar_roundtrips():
    """TIFF §15 tiles (right/bottom padding) and §12 planar layout —
    every encoder variant decodes bit-exactly, including combinations
    with LZW and the horizontal predictor."""
    import numpy as np

    from playwrightcrawler_ray.imaging.tiff import tiff_decode, tiff_encode

    rng = np.random.default_rng(11)
    for (h, w) in [(16, 16), (17, 23), (48, 33), (1, 1)]:
        px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        for comp in ("none", "lzw"):
            for pred in ((False, True) if comp == "lzw" else (False,)):
                for layout in ("strips", "tiles"):
                    for planar in (False, True):
                        data = tiff_encode(px, compression=comp,
                                           predictor=pred, layout=layout,
                                           planar=planar)
                        assert np.array_equal(tiff_decode(data), px), (
                            h, w, comp, pred, layout, planar)


def test_tiff_tiled_planar_through_facade():
    import numpy as np

    from playwrightcrawler_ray.imaging.codec import decode_image, encode_image

    px = _pixels(20)
    for fmt in ("tiff_tiled", "tiff_planar"):
        out, kind = decode_image(encode_image(px, fmt))
        assert kind == "tiff"
        assert np.array_equal(out, px)


def test_tiff_tiled_malformed():
    import struct

    import numpy as np
    import pytest as _pytest

    from playwrightcrawler_ray.imaging.tiff import tiff_decode, tiff_encode

    good = tiff_encode(np.zeros((20, 20, 3), np.uint8), layout="tiles")
    # truncations raise the corruption family codec.py maps to OSError
    # (ValueError / struct.error / NotImplementedError) — never crash
    for cut in range(8, len(good), max(1, len(good) // 17)):
        with _pytest.raises((ValueError, NotImplementedError,
                             struct.error)):
            tiff_decode(good[:cut])


def test_tiff_jpeg_compression7():
    """New-style JPEG-in-TIFF (TTN2): shared JPEGTables + abbreviated
    per-segment streams, strips and tiles — decoded by composing the
    in-repo T.81 codec; the strips layout is BIT-IDENTICAL to decoding
    the equivalent standalone JPEG."""
    import numpy as np

    from playwrightcrawler_ray.imaging.codec import decode_image, encode_image
    from playwrightcrawler_ray.imaging.jpeg import jpeg_decode, jpeg_encode
    from playwrightcrawler_ray.imaging.tiff import (
        tiff_decode, tiff_encode_jpeg,
    )

    px = _pixels(13)
    for layout in ("strips", "tiles"):
        data = tiff_encode_jpeg(px, quality=95, layout=layout)
        out = tiff_decode(data)
        assert out.shape == px.shape
        assert psnr(px, out) >= 40
    full = jpeg_encode(px, quality=95, subsampling="444")
    assert np.array_equal(
        tiff_decode(tiff_encode_jpeg(px, 95, "strips")), jpeg_decode(full))
    # through the facade
    out, kind = decode_image(encode_image(px, "tiff_jpeg"))
    assert kind == "tiff" and psnr(px, out) >= 40


def test_tiff_variant_matrix_property():
    """Property fuzz over the full TIFF encoder matrix: arbitrary
    sizes/content round-trip bit-exactly through every lossless
    layout combination."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from playwrightcrawler_ray.imaging.tiff import tiff_decode, tiff_encode

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.integers(0, 2**32 - 1),
           st.sampled_from(["none", "lzw"]),
           st.sampled_from(["strips", "tiles"]),
           st.booleans())
    def roundtrip(h, w, seed, comp, layout, planar):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        data = tiff_encode(px, compression=comp,
                           predictor=(comp == "lzw"), layout=layout,
                           planar=planar)
        assert np.array_equal(tiff_decode(data), px)

    roundtrip()


def test_jpeg_arithmetic_roundtrip_matches_huffman_twin():
    """Arithmetic (SOF9) encode/decode: for the same pixels at the same
    quality, the QM-coded stream and the Huffman stream carry IDENTICAL
    quantized coefficients, so our decode of both must be bit-identical
    — across subsampling, odd dims, and restart intervals (which reset
    all adaptive QM state mid-scan)."""
    from playwrightcrawler_ray.corpus.generate import _make_pixels
    from playwrightcrawler_ray.imaging.jpeg import (
        jpeg_decode, jpeg_encode, jpeg_encode_arithmetic,
    )

    rng = np.random.default_rng(21)
    for size, sub, rst in ((24, "444", 0), (48, "420", 0), (40, "444", 3),
                           (48, "420", 2)):
        px = _make_pixels(rng, size)
        if rst:  # odd crop with restarts: edge-MCU + reset interplay
            px = px[: size - 7, : size - 3]
        arith = jpeg_encode_arithmetic(px, quality=95, subsampling=sub,
                                       restart_interval=rst)
        assert b"\xff\xc9" in arith[:256]  # SOF9
        huff = jpeg_encode(px, quality=95, subsampling=sub)
        a, h = jpeg_decode(arith), jpeg_decode(huff)
        assert np.array_equal(a, h)
        # 40 dB lossy invariant at 4:4:4; 4:2:0 chroma is lossy by design
        assert psnr(px, a) >= (40 if sub == "444" else 20)
        assert len(arith) < len(huff)  # QM coding must actually compress


def test_jpeg_arithmetic_interop_foreign_encoder():
    """Decode arithmetic streams produced by a FOREIGN encoder (the
    system libjpeg, arith_code=TRUE; committed fixtures): sequential
    SOF9 and progressive SOF10 must decode bit-identically to our
    decode of libjpeg's Huffman twin of the same pixels (libjpeg
    quantizes identically for both entropy layers)."""
    from playwrightcrawler_ray.imaging.jpeg import jpeg_decode

    from fixtures_jpeg_arith import CASES

    assert len(CASES) >= 4
    for name, (arith, huff) in CASES.items():
        marker = b"\xff\xca" if name.startswith("prog") else b"\xff\xc9"
        assert marker in arith[:512], name
        assert np.array_equal(jpeg_decode(arith), jpeg_decode(huff)), name


def test_jpeg_arithmetic_through_facade():
    """decode_image routes SOF9 payloads through the real decoder —
    no codec_unavailable row — and the corpus 'ajpeg' slot clears the
    40 dB invariant."""
    from playwrightcrawler_ray.corpus.generate import _make_pixels
    from playwrightcrawler_ray.imaging.codec import decode_image, encode_image

    px = _make_pixels(np.random.default_rng(22), 32)
    body = encode_image(px, "ajpeg")
    out, fmt = decode_image(body)
    assert fmt == "jpeg" and out.shape == px.shape
    assert psnr(px, out) >= 40


def test_jpeg_arithmetic_fuzz_truncation_and_bitflips():
    """Truncations and bit-flips of a valid SOF9 stream must decode or
    raise a typed taxonomy error quickly — never hang (the QM decoder
    zero-feeds past the data end, so every walk must stay bounded)."""
    from playwrightcrawler_ray.corpus.generate import _make_pixels
    from playwrightcrawler_ray.imaging.jpeg import jpeg_encode_arithmetic

    px = _make_pixels(np.random.default_rng(31), 32)
    good = jpeg_encode_arithmetic(px, quality=95, subsampling="420",
                                  restart_interval=2)
    rng = np.random.default_rng(32)
    for trial in range(120):
        data = bytearray(good)
        if trial % 2:
            data = data[: int(rng.integers(2, len(data)))]
        else:
            for _ in range(int(rng.integers(1, 5))):
                i = int(rng.integers(2, len(data)))
                data[i] ^= 1 << int(rng.integers(0, 8))
        try:
            out, _ = decode_image(bytes(data))
            assert out.dtype == np.uint8 and out.ndim == 3
        except (UnidentifiedImageError, DecompressionBombError,
                CodecUnavailable, OSError, ValueError):
            pass  # documented taxonomy


# ---------------------------------------------- lossless JPEG (SOF3)


def test_jpeg_lossless_roundtrip_matrix():
    """Bit-exact round trip across every predictor, both scan layouts
    and restart intervals — the lossless process has no tolerance: any
    prediction/reconstruction bug shows as inequality."""
    from playwrightcrawler_ray.imaging.jpeg import (
        jpeg_decode, jpeg_encode_lossless,
    )

    px = _pixels(41, 24, 32)
    for pred in range(1, 8):
        for interleaved in (True, False):
            for ri in (0, 5):
                data = jpeg_encode_lossless(
                    px, predictor=pred, interleaved=interleaved,
                    restart_interval=ri,
                )
                assert np.array_equal(jpeg_decode(data), px), (pred, interleaved, ri)
    # grayscale + point transform (decoder recovers (x >> pt) << pt)
    g = px[:, :, 0].copy()
    assert np.array_equal(
        jpeg_decode(jpeg_encode_lossless(g, predictor=7)),
        np.stack([g, g, g], axis=2),
    )
    out = jpeg_decode(jpeg_encode_lossless(px, predictor=4, pt=2))
    assert np.array_equal(out, (px >> 2) << 2)


def test_jpeg_lossless_hand_computed_spec_vector():
    """A hand-built SOF3 stream decoded against hand-computed Annex-H
    arithmetic — anchors the decoder to the spec independently of our
    own encoder. 2×2 grayscale, predictor 1, Pt 0, one hand-rolled
    Huffman table (codes 00→SSSS1, 01→SSSS2, 10→SSSS5):

    sample (0,0): pred = 2^7 = 128, diff −28 → SSSS5, bits 00011
    sample (0,1): first line, Ra=100, diff +1 → SSSS1, bit 1
    sample (1,0): first column, Rb=100, diff +3 → SSSS2, bits 11
    sample (1,1): predictor 1, Ra=103, diff +1 → SSSS1, bit 1

    Entropy bits 10 00011 00 1 01 11 00 1 + seven 1-pad = 86 5C FF,
    and the 0xFF byte must be stuffed (FF 00) per F.1.2.3.
    """
    from playwrightcrawler_ray.imaging.jpeg import jpeg_decode

    dht = bytes([0x00] + [0, 3] + [0] * 14 + [1, 2, 5])
    stream = (
        b"\xff\xd8"
        + b"\xff\xc4" + (2 + len(dht)).to_bytes(2, "big") + dht
        + b"\xff\xc3" + bytes([0, 11, 8, 0, 2, 0, 2, 1, 1, 0x11, 0])
        + b"\xff\xda" + bytes([0, 8, 1, 1, 0x00, 1, 0, 0])
        + bytes([0x86, 0x5C, 0xFF, 0x00])
        + b"\xff\xd9"
    )
    want = np.array([[100, 101], [103, 104]], dtype=np.uint8)
    assert np.array_equal(jpeg_decode(stream), np.stack([want] * 3, axis=2))


def test_jpeg_lossless_through_facade():
    """decode_image routes SOF3 payloads through the real decoder — no
    codec_unavailable row — and the corpus 'ljpeg' slot is EXACT (the
    one JPEG variant where the 40 dB invariant tightens to equality)."""
    from playwrightcrawler_ray.corpus.generate import _make_pixels

    px = _make_pixels(np.random.default_rng(23), 32)
    body = encode_image(px, "ljpeg")
    assert b"\xff\xc3" in body[:256]
    out, fmt = decode_image(body)
    assert fmt == "jpeg" and np.array_equal(out, px)


def test_jpeg_lossless_rejects_unsupported_variants():
    """Subsampled lossless stays an honest typed stub
    (CodecUnavailable); a differential frame OUTSIDE a hierarchical
    sequence is a malformed stream (OSError taxonomy), not silent
    wrong pixels."""
    from playwrightcrawler_ray.imaging.jpeg import jpeg_encode_lossless

    good = bytearray(jpeg_encode_lossless(_pixels(42, 16, 16)))
    sof = good.index(b"\xff\xc3")
    # mutate component 1's sampling byte (0x11 → 0x21): subsampled
    # (FF C3 len2 P H2 W2 Nf → component 1's h/v byte is sof+11)
    sub = bytearray(good)
    sub[sof + 11] = 0x21
    with pytest.raises(CodecUnavailable):
        decode_image(bytes(sub))
    # SOF7 without a DHP segment: differential frames are only defined
    # inside hierarchical sequences → corrupt-stream taxonomy
    hier = bytearray(good)
    hier[sof + 1] = 0xC7
    with pytest.raises(OSError):
        decode_image(bytes(hier))


def test_jpeg_lossless_fuzz_truncation_and_bitflips():
    """Truncations and bit-flips of a valid SOF3 stream must decode or
    raise a typed taxonomy error quickly — never hang or leak an
    unexpected exception type."""
    from playwrightcrawler_ray.imaging.jpeg import jpeg_encode_lossless

    px = _pixels(43, 24, 24)
    good = jpeg_encode_lossless(px, predictor=4, restart_interval=7)
    rng = np.random.default_rng(44)
    for trial in range(120):
        data = bytearray(good)
        if trial % 2:
            data = data[: int(rng.integers(2, len(data)))]
        else:
            for _ in range(int(rng.integers(1, 5))):
                i = int(rng.integers(2, len(data)))
                data[i] ^= 1 << int(rng.integers(0, 8))
        try:
            out, _ = decode_image(bytes(data))
            assert out.dtype == np.uint8 and out.ndim == 3
        except (UnidentifiedImageError, DecompressionBombError,
                CodecUnavailable, OSError, ValueError):
            pass  # documented taxonomy


# ------------------------------------------------ hierarchical (Annex J)


def test_jpeg_hierarchical_bitexact_roundtrip():
    """DHP/EXP/SOF5 pyramid + SOF7 lossless correction frame: decode
    recovers the source exactly — RGB and grayscale, even and odd
    dimensions, 1 to 4 pyramid levels, noise and natural content."""
    from playwrightcrawler_ray.imaging.jpeg import (
        jpeg_decode, jpeg_encode_hierarchical,
    )

    rng = np.random.default_rng(91)
    for px, levels in (
        (_pixels(91, 48, 64), 3),
        (_pixels(92, 33, 47), 4),          # odd dims, deep pyramid
        (_pixels(93, 16, 16), 1),          # single frame + correction
        (rng.integers(0, 256, (25, 19, 3)).astype(np.uint8), 2),  # noise
    ):
        body = jpeg_encode_hierarchical(px, levels=levels, quality=88)
        assert body.startswith(b"\xff\xd8\xff\xde")  # DHP right after SOI
        assert np.array_equal(jpeg_decode(body), px), levels
    # grayscale component count 1
    g = _pixels(94, 24, 40)[:, :, 0]
    out = jpeg_decode(jpeg_encode_hierarchical(g, levels=2))
    assert np.array_equal(out[:, :, 0], g) and np.array_equal(
        out[:, :, 0], out[:, :, 2])
    # through the codec facade (taxonomy + sniffing path)
    px = _pixels(95, 32, 32)
    out2, fmt = decode_image(encode_image(px, "hjpeg"))
    assert fmt == "jpeg" and np.array_equal(out2, px)


def test_jpeg_hierarchical_lossy_psnr():
    """Without the correction frame the pyramid is a plain lossy
    coder: PSNR stays high and each added level refines (the base
    frame alone would be a blurry quarter-res image)."""
    from playwrightcrawler_ray.imaging.jpeg import (
        jpeg_decode, jpeg_encode_hierarchical,
    )

    px = _pixels(96, 64, 64)
    body = jpeg_encode_hierarchical(px, levels=3, quality=92,
                                    lossless_final=False)
    assert psnr(px, jpeg_decode(body)) >= 35
    # the lossless-final stream decodes identically but is larger
    exact = jpeg_encode_hierarchical(px, levels=3, quality=92)
    assert len(exact) > len(body)


def test_hier_expand_spec_vector():
    """J.1.1.2 interpolation filter on a hand-computed vector:
    even outputs copy the input, odd outputs are the rounded mean of
    the neighbours, edges replicate."""
    from playwrightcrawler_ray.imaging.jpeg import _hier_expand

    p = np.array([[1, 5], [9, 13]], dtype=np.int32)
    both = _hier_expand(p, 1, 1)
    expect = np.array([
        [1, 3, 5, 5],
        [5, 7, 9, 9],
        [9, 11, 13, 13],
        [9, 11, 13, 13],
    ], dtype=np.int32)
    assert np.array_equal(both, expect)
    h_only = _hier_expand(p, 1, 0)
    assert np.array_equal(h_only, np.array([[1, 3, 5, 5], [9, 11, 13, 13]]))
    v_only = _hier_expand(p, 0, 1)
    assert np.array_equal(v_only, np.array(
        [[1, 5], [5, 9], [9, 13], [9, 13]]))


def test_jpeg_hierarchical_taxonomy():
    """Malformed hierarchical sequences raise typed errors; the
    genuinely-unimplemented differential processes stay
    CodecUnavailable."""
    import struct

    from playwrightcrawler_ray.imaging.jpeg import (
        jpeg_decode, jpeg_encode_hierarchical,
    )

    def dhp(nc=1):
        seg = struct.pack(">BHHB", 8, 8, 8, nc)
        for ci in range(nc):
            seg += bytes((ci + 1, 0x11, 0))
        return b"\xff\xde" + struct.pack(">H", 2 + len(seg)) + seg

    sof5 = (b"\xff\xc5" + struct.pack(">HBHHB", 11, 8, 8, 8, 1)
            + bytes((1, 0x11, 0)))
    # differential frame before any reference
    with pytest.raises(ValueError):
        jpeg_decode(b"\xff\xd8" + dhp() + sof5 + b"\xff\xd9")
    # nested DHP
    with pytest.raises(ValueError):
        jpeg_decode(b"\xff\xd8" + dhp() + dhp() + b"\xff\xd9")
    # EXP with both axes zero
    with pytest.raises(ValueError):
        jpeg_decode(b"\xff\xd8" + dhp()
                    + b"\xff\xdf" + struct.pack(">HB", 3, 0x00) + b"\xff\xd9")
    # EXP preceding a non-differential frame
    sof0 = (b"\xff\xc0" + struct.pack(">HBHHB", 11, 8, 8, 8, 1)
            + bytes((1, 0x11, 0)))
    with pytest.raises(ValueError):
        jpeg_decode(b"\xff\xd8" + dhp()
                    + b"\xff\xdf" + struct.pack(">HB", 3, 0x11)
                    + sof0 + b"\xff\xd9")
    # incomplete sequence: EOI before the component reaches DHP dims
    with pytest.raises(ValueError):
        jpeg_decode(b"\xff\xd8" + dhp() + b"\xff\xd9")
    # arithmetic/progressive differential frames: honest typed stub
    good = bytearray(jpeg_encode_hierarchical(_pixels(97, 16, 16), levels=2))
    i = bytes(good).index(b"\xff\xc5")
    for marker in (0xC6, 0xCD, 0xCE, 0xCF):
        mutated = bytearray(good)
        mutated[i + 1] = marker
        with pytest.raises(CodecUnavailable):
            decode_image(bytes(mutated))
    # subsampled hierarchical frame: typed stub too
    sub = bytearray(good)
    sof_base = bytes(good).index(b"\xff\xc0")
    sub[sof_base + 11] = 0x22
    with pytest.raises(CodecUnavailable):
        decode_image(bytes(sub))


def test_jpeg_hierarchical_fuzz_truncation_and_bitflips():
    """Truncations and bit-flips of a valid hierarchical stream decode
    or raise a typed taxonomy error — never hang or leak an unexpected
    exception type."""
    from playwrightcrawler_ray.imaging.jpeg import jpeg_encode_hierarchical

    good = jpeg_encode_hierarchical(_pixels(98, 24, 24), levels=3, quality=80)
    rng = np.random.default_rng(99)
    for trial in range(120):
        data = bytearray(good)
        if trial % 2:
            data = data[: int(rng.integers(2, len(data)))]
        else:
            for _ in range(int(rng.integers(1, 5))):
                i = int(rng.integers(2, len(data)))
                data[i] ^= 1 << int(rng.integers(0, 8))
        try:
            out, _ = decode_image(bytes(data))
            assert out.dtype == np.uint8 and out.ndim == 3
        except (UnidentifiedImageError, DecompressionBombError,
                CodecUnavailable, OSError, ValueError):
            pass  # documented taxonomy
