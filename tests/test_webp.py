"""VP8L (lossless WebP) codec tests: lossless round trips across the
encoder's code shapes (frequency Huffman, color cache, palette with
sub-byte bundling), a hand-crafted LZ77 backward-reference stream, and
the lossy-VP8 taxonomy stub."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from playwrightcrawler_ray.imaging import CodecUnavailable, decode_image
from playwrightcrawler_ray.imaging.webp import (
    _LsbWriter,
    _enc_table,
    _huff_lengths,
    _write_prefix_code,
    _write_rev,
    vp8l_encode,
    webp_decode,
)

from _webp_writer import vp8l_encode_palette


def test_vp8l_roundtrip_random():
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (1, 2), (3, 5), (16, 16), (33, 47)]:
        for cb in (0, 4):
            px = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
            out = webp_decode(vp8l_encode(px, cache_bits=cb))
            assert np.array_equal(out, px), (shape, cb)


def test_vp8l_color_cache_hits_and_compression():
    rng = np.random.default_rng(6)
    base = np.repeat(np.repeat(
        rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), 8, 0), 8, 1)
    plain = vp8l_encode(base, cache_bits=0)
    cached = vp8l_encode(base, cache_bits=5)
    assert np.array_equal(webp_decode(plain), base)
    assert np.array_equal(webp_decode(cached), base)
    # the cache path was actually taken: hits shrink the stream
    assert len(cached) < len(plain)


def test_vp8l_rgba_flattens_over_white():
    rng = np.random.default_rng(7)
    px4 = rng.integers(0, 256, size=(8, 8, 4), dtype=np.uint8)
    out = webp_decode(vp8l_encode(px4, cache_bits=3))
    a = px4[:, :, 3:4].astype(float) / 255.0
    exp = np.clip((px4[:, :, :3] * a + 255 * (1 - a)).round(),
                  0, 255).astype(np.uint8)
    assert np.array_equal(out, exp)


def test_vp8l_palette_roundtrip_with_bundling():
    rng = np.random.default_rng(9)
    for ncol, shape in [(2, (5, 13)), (4, (8, 8)), (13, (16, 9)),
                        (100, (20, 20)), (256, (32, 32))]:
        pal = rng.integers(0, 256, size=(ncol, 3), dtype=np.uint8)
        px = pal[rng.integers(0, ncol, size=shape)]
        out = webp_decode(vp8l_encode_palette(px))
        assert np.array_equal(out, px), (ncol, shape)


def test_vp8l_roundtrip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24),
           st.integers(0, 2**32 - 1), st.integers(0, 5))
    def roundtrip(h, w, seed, cb):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(webp_decode(vp8l_encode(px, cache_bits=cb)), px)

    roundtrip()


def _riff(payload: bytes) -> bytes:
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


def test_vp8l_lz77_backward_reference_handcrafted():
    """Hand-built stream: one literal pixel then a length-3 copy at
    distance 1 (2D distance code 2 → (1, 0)) — exercises the LZ77
    branch the minimal encoder never emits."""
    bw = _LsbWriter()
    bw.write(0x2F, 8)
    bw.write(4 - 1, 14)   # w=4
    bw.write(1 - 1, 14)   # h=1
    bw.write(0, 1)
    bw.write(0, 3)
    bw.write(0, 1)  # no transforms
    bw.write(0, 1)  # no cache
    bw.write(0, 1)  # no meta
    # green code: literal 7 + length-prefix symbol 258 (length 3)
    g_len = [0] * 280
    g_len[7] = 1
    g_len[258] = 1
    _write_prefix_code(bw, g_len)
    for sym in (20, 30, 255):  # r, b, a single-symbol codes
        ln = [0] * 256
        ln[sym] = 1
        _write_prefix_code(bw, ln)
    d_len = [0] * 40
    d_len[1] = 1  # distance prefix symbol 1 → value 2 → map (1,0) → dist 1
    _write_prefix_code(bw, d_len)
    g_enc = _enc_table(g_len)
    c, ln = g_enc[7]     # literal green=7 (r/b/a read zero bits)
    _write_rev(bw, c, ln)
    c, ln = g_enc[258]   # length code 2 → length 3
    _write_rev(bw, c, ln)
    # distance code is single-symbol: zero bits
    out = webp_decode(_riff(bw.flush()))
    assert out.shape == (1, 4, 3)
    assert (out == np.array([20, 7, 30], dtype=np.uint8)).all()


def test_vp8l_lz77_row_distance():
    """Backward reference with the (0, 1) 2D code: distance = one full
    row — second row copies the first."""
    w = 3
    bw = _LsbWriter()
    bw.write(0x2F, 8)
    bw.write(w - 1, 14)
    bw.write(2 - 1, 14)
    bw.write(0, 1)
    bw.write(0, 3)
    bw.write(0, 1)
    bw.write(0, 1)
    bw.write(0, 1)
    g_len = [0] * 280
    g_len[1] = 2
    g_len[2] = 2
    g_len[258] = 1  # length 3
    _write_prefix_code(bw, g_len)
    for sym in (0, 0, 255):
        ln = [0] * 256
        ln[sym] = 1
        _write_prefix_code(bw, ln)
    d_len = [0] * 40
    d_len[0] = 1  # distance prefix symbol 0 → value 1 → map (0,1) → dist w
    _write_prefix_code(bw, d_len)
    g_enc = _enc_table(g_len)
    for s in (1, 2, 1):  # first row greens
        c, ln = g_enc[s]
        _write_rev(bw, c, ln)
    c, ln = g_enc[258]
    _write_rev(bw, c, ln)
    out = webp_decode(_riff(bw.flush()))
    assert out.shape == (2, w, 3)
    assert np.array_equal(out[0], out[1])
    assert list(out[0, :, 1]) == [1, 2, 1]


def test_webp_lossy_vp8_decodes_through_facade():
    """Lossy VP8 keyframes decode for real now (imaging/vp8.py)."""
    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, size=(32, 24, 3), dtype=np.uint8)
    from playwrightcrawler_ray.imaging.codec import encode_image

    out, fmt = decode_image(encode_image(px, "webp_lossy"))
    assert fmt == "webp"
    assert out.shape == px.shape


def test_webp_vp8_interframe_stays_codec_unavailable():
    # bit 0 of the frame tag set → interframe (animation delta frame):
    # not a still image, genuinely undecodable without reference frames
    payload = b"\x01\x00\x00" + b"\x00" * 53
    body = (b"RIFF" + (4 + 8 + len(payload)).to_bytes(4, "little") + b"WEBP"
            + b"VP8 " + len(payload).to_bytes(4, "little") + payload)
    with pytest.raises(CodecUnavailable):
        decode_image(body)


def test_webp_through_facade():
    rng = np.random.default_rng(13)
    px = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    from playwrightcrawler_ray.imaging.codec import encode_image

    out, fmt = decode_image(encode_image(px, "webp"))
    assert fmt == "webp"
    assert np.array_equal(out, px)  # VP8L is lossless


def test_huff_lengths_kraft_valid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        freqs = {int(s): int(f) for s, f in zip(
            rng.choice(400, size=n, replace=False),
            rng.integers(1, 1000, size=n))}
        lengths = _huff_lengths(freqs, 400, 15)
        nz = [ln for ln in lengths if ln]
        assert max(nz) <= 15
        kraft = sum(1 / (1 << ln) for ln in nz)
        assert kraft <= 1.0 + 1e-12
