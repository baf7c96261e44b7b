"""FLAC encoder tests (VERDICT r4 item 7), with the test-side decoder
(_flac_reader) as the oracle.

Validation is layered so the oracle is not merely "the inverse of our
encoder": (1) lossless round-trips across channel modes / bit depths /
subframe types, each additionally checked by the decoder's built-in
STREAMINFO-MD5 verification (the format's own oracle over the decoded
PCM); (2) a HAND-CRAFTED stream assembled bit-by-bit in this file from
the public spec — independent CRC implementations included — that the
decoder must read; (3) corruption detection (header CRC-8, frame
CRC-16, stream MD5), so a clean round trip also vouches for the
checksums the encoder wrote; (4) the media probe reads STREAMINFO
without decoding."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playwrightcrawler_ray.functions.flac import _pcm_md5, flac_encode

from _flac_reader import FlacError, flac_decode


def _sig(n=4000, seed=3, scale=8000):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 120, n)
    return (np.sin(t) * scale + rng.normal(0, scale / 80, n)).astype(
        np.int64)


@pytest.mark.parametrize("mode", ["independent", "left_side",
                                  "right_side", "mid_side"])
def test_stereo_modes_roundtrip_exact(mode):
    x = _sig()
    st2 = np.stack([x, (x * 0.7).astype(np.int64) - 37], axis=1)
    out, rate = flac_decode(flac_encode(st2, rate=44100, bits=16,
                                        stereo_mode=mode))
    assert rate == 44100
    assert np.array_equal(out, st2)


@pytest.mark.parametrize("bits,scale", [(8, 100), (16, 8000),
                                        (24, 4_000_000)])
def test_bit_depths_roundtrip_exact(bits, scale):
    x = _sig(scale=scale).clip(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    out, _ = flac_decode(flac_encode(x, bits=bits, block_size=777))
    assert np.array_equal(out, x)


@pytest.mark.parametrize("force", [None, "verbatim", "lpc"])
def test_subframe_types_roundtrip_exact(force):
    x = _sig(2500)
    out, _ = flac_decode(flac_encode(x, bits=16, force_subframe=force))
    assert np.array_equal(out, x)


def test_constant_and_empty_tail():
    c = np.full(1500, -123, np.int64)  # non-multiple of block size
    out, _ = flac_decode(flac_encode(c, bits=16, block_size=512))
    assert np.array_equal(out, c)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=400),
       st.sampled_from([64, 100, 256]))
def test_fuzz_pcm_roundtrip(vals, bs):
    x = np.asarray(vals, np.int64)
    out, _ = flac_decode(flac_encode(x, bits=16, block_size=bs))
    assert np.array_equal(out, x)


# ------------------------------------------------------- spec fixture

def _crc8_ref(data: bytes) -> int:
    """Independent bit-level CRC-8 (poly 0x07), per the FLAC spec."""
    c = 0
    for b in data:
        c ^= b
        for _ in range(8):
            c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 else (c << 1) & 0xFF
    return c


def _crc16_ref(data: bytes) -> int:
    """Independent bit-level CRC-16 (poly 0x8005)."""
    c = 0
    for b in data:
        c ^= b << 8
        for _ in range(8):
            c = ((c << 1) ^ 0x8005) & 0xFFFF if c & 0x8000 \
                else (c << 1) & 0xFFFF
    return c


def test_handcrafted_spec_stream_decodes():
    """A FLAC stream assembled BYTE-BY-BYTE from the public spec —
    no use of this repo's encoder: mono, 16-bit, one CONSTANT frame
    of 8 samples of -42, 8-bit block-size-at-end header form."""
    n, value, rate = 8, -42, 16000
    pcm = np.full(n, value, np.int64)
    md5 = hashlib.md5(
        (pcm & 0xFFFF).astype("<u2").tobytes()).digest()
    # STREAMINFO: minbs=8 maxbs=8 minfr=0 maxfr=0 rate=16000 ch=1
    # bits=16 total=8 — packed per §8.2
    si = struct.pack(">HH", n, n) + b"\x00" * 6
    # rate(20) | ch-1(3) | bits-1(5) | total(36) = 64 bits
    packed = (rate << 44) | (0 << 41) | (15 << 36) | n
    si += packed.to_bytes(8, "big") + md5
    assert len(si) == 34
    meta = bytes([0x80]) + (34).to_bytes(3, "big") + si
    # frame header: sync(14)=0x3FFE, resv 0, fixed-blocking 0 →
    # FF F8; bs code 0110 (8-bit at end), rate code 0000 → 0x60;
    # ch code 0000, size code 100 (16-bit), resv 0 → 0x08;
    # coded frame number 0 → 0x00; blocksize-1 → 0x07
    hdr = bytes([0xFF, 0xF8, 0x60, 0x08, 0x00, n - 1])
    hdr += bytes([_crc8_ref(hdr)])
    # subframe: pad(1)=0 type(6)=000000 wasted(1)=0 → 0x00, then the
    # constant: 16-bit signed -42 = 0xFFD6 (already byte-aligned)
    body = bytes([0x00]) + struct.pack(">h", value)
    frame = hdr + body
    frame += struct.pack(">H", _crc16_ref(frame))
    out, got_rate = flac_decode(b"fLaC" + meta + frame)
    assert got_rate == rate
    assert np.array_equal(out, pcm)


def test_corruption_detection():
    x = _sig(3000)
    blob = flac_encode(x, bits=16)
    # frame body corruption → CRC-16
    b1 = bytearray(blob)
    b1[-10] ^= 0x20
    with pytest.raises(FlacError):
        flac_decode(bytes(b1))
    # stored MD5 corruption → decoded-PCM/MD5 mismatch
    b2 = bytearray(blob)
    b2[8 + 18] ^= 0x01  # first MD5 byte inside STREAMINFO
    with pytest.raises(FlacError, match="MD5"):
        flac_decode(bytes(b2))
    # not FLAC at all
    with pytest.raises(FlacError):
        flac_decode(b"OggS" + bytes(64))


def test_probe_flac_streaminfo():
    from playwrightcrawler_ray.functions.mediaprobe import probe_media

    x = _sig(32000)
    info = probe_media(flac_encode(x, rate=16_000, bits=16))
    assert info["container"] == "flac"
    assert info["sample_rate"] == 16_000
    assert info["channels"] == 1
    assert info["bits"] == 16
    assert info["duration_sec"] == 2.0


def test_flac_12_and_20_bit_md5_byte_width():
    """Non-whole-byte depths: STREAMINFO MD5 runs over samples packed
    into ceil(bits/8) bytes, SIGN-EXTENDED to the byte width (libFLAC
    md5.c semantics) — 12-bit must hash 2 bytes/sample, 20-bit 3. The
    decoder's built-in MD5 check is the assertion: a wrong width or a
    truncating mask raises FlacError on perfectly valid streams."""
    for bits in (12, 20):
        lim = 1 << (bits - 1)
        x = (_sig(3000, seed=bits, scale=lim // 2)
             .astype(np.int64).clip(-lim, lim - 1))
        out, rate = flac_decode(flac_encode(x, bits=bits, block_size=256))
        assert np.array_equal(out.reshape(-1), x)
    # sign extension: -1 at 12 bits must hash as little-endian 0xFFFF,
    # not the 12-bit-truncated 0x0FFF
    import hashlib as _h

    d = _pcm_md5(np.array([[-1]], np.int64), 12)
    assert d == _h.md5(b"\xff\xff").digest()
    assert _pcm_md5(np.array([[-1]], np.int64), 20) == _h.md5(b"\xff\xff\xff").digest()
