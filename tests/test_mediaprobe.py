"""Header-level media probing tests (functions/mediaprobe.py).

No media encoder exists in this container, so each fixture is built
BYTE-BY-BYTE in the test from the public container spec, with the
expected numbers derived independently (e.g. the canonical 417-byte
frame length of 128 kbps / 44100 Hz MPEG-1 Layer III) — the fixtures
double as a transcription check on the tables in the prober.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from playwrightcrawler_ray.functions.mediaprobe import (
    probe_media, probe_mp3, probe_mp4, probe_ogg, probe_webm,
)


# --------------------------------------------------------------- MP3

def _mp3_frame_128_44100_js() -> bytes:
    """One MPEG-1 Layer III frame header: sync=0x7FF, version=11 (MPEG1),
    layer=01 (III), no-CRC=1 → 0xFF 0xFB; bitrate idx 9 (=128 kbps),
    rate idx 0 (=44100), no padding → 0x90; joint stereo → 0x40.
    Frame length = floor(144 * 128000 / 44100) = 417 bytes — the
    canonical constant for this configuration."""
    return bytes([0xFF, 0xFB, 0x90, 0x40]) + b"\x00" * (417 - 4)


def test_mp3_frame_walk_with_id3():
    id3 = b"ID3\x04\x00\x00" + bytes([0, 0, 0, 20]) + b"\x00" * 20
    data = id3 + _mp3_frame_128_44100_js() * 10
    info = probe_mp3(data)
    assert info["codec"] == "mpeg1_layer3"
    assert info["frames"] == 10
    assert info["sample_rate"] == 44100
    assert info["channels"] == 2
    assert info["bitrate_kbps"] == 128.0
    # 10 frames x 1152 samples @ 44100 Hz
    assert info["duration_sec"] == pytest.approx(10 * 1152 / 44100, abs=1e-6)


def test_mp3_mono_and_trailing_garbage():
    # mono (mode bits 11), padding bit set → 418-byte frame
    hdr = bytes([0xFF, 0xFB, 0x92, 0xC0])
    data = (hdr + b"\x00" * (418 - 4)) * 3 + b"TAG" + b"\x00" * 125
    info = probe_mp3(data)
    assert info["frames"] == 3
    assert info["channels"] == 1


def test_mp3_not_audio_raises():
    with pytest.raises(ValueError):
        probe_mp3(b"\x00" * 4000)


# --------------------------------------------------------------- MP4

def _box(name: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", 8 + len(payload)) + name + payload


def _mp4_fixture() -> bytes:
    # mvhd v0: flags+times(12) + timescale=1000 + duration=2500
    mvhd = _box(b"mvhd", b"\x00\x00\x00\x00" + b"\x00" * 8
                + struct.pack(">II", 1000, 2500) + b"\x00" * 80)
    # tkhd v0 (84-byte payload): width/height are the LAST 8 bytes,
    # 16.16 fixed point
    tkhd = _box(b"tkhd", b"\x00" * 76
                + struct.pack(">II", 320 << 16, 240 << 16))
    hdlr = _box(b"hdlr", b"\x00" * 8 + b"vide" + b"\x00" * 12)
    stsd = _box(b"stsd", b"\x00" * 8
                + struct.pack(">I", 86) + b"avc1" + b"\x00" * 78)
    stbl = _box(b"stbl", stsd)
    minf = _box(b"minf", stbl)
    mdia = _box(b"mdia", hdlr + minf)
    trak = _box(b"trak", tkhd + mdia)
    moov = _box(b"moov", mvhd + trak)
    ftyp = _box(b"ftyp", b"isom" + b"\x00\x00\x02\x00" + b"mp41")
    return ftyp + moov + _box(b"mdat", b"\x00" * 64)


def test_mp4_box_walk():
    info = probe_mp4(_mp4_fixture())
    assert info["brand"] == "isom"
    assert info["duration_sec"] == pytest.approx(2.5)
    assert len(info["tracks"]) == 1
    t = info["tracks"][0]
    assert t == {"kind": "video", "fourcc": "avc1", "w": 320, "h": 240}


def test_mp4_64bit_size_and_v1_mvhd():
    mvhd = _box(b"mvhd", b"\x01\x00\x00\x00" + b"\x00" * 16
                + struct.pack(">IQ", 90000, 90000 * 7))
    moov_payload = mvhd
    moov64 = (struct.pack(">I", 1) + b"moov"
              + struct.pack(">Q", 16 + len(moov_payload)) + moov_payload)
    data = _box(b"ftyp", b"mp42" + b"\x00" * 8) + moov64
    info = probe_mp4(data)
    assert info["duration_sec"] == pytest.approx(7.0)


# -------------------------------------------------------------- WebM

def _ebml(eid: int, payload: bytes) -> bytes:
    id_bytes = eid.to_bytes((eid.bit_length() + 7) // 8, "big")
    assert len(payload) < 127
    return id_bytes + bytes([0x80 | len(payload)]) + payload


def _webm_fixture() -> bytes:
    info = _ebml(0x1549A966,
                 _ebml(0x2AD7B1, (1_000_000).to_bytes(3, "big"))
                 + _ebml(0x4489, struct.pack(">d", 3000.0)))
    video = _ebml(0xE0, _ebml(0xB0, (640).to_bytes(2, "big"))
                  + _ebml(0xBA, (360).to_bytes(2, "big")))
    entry = _ebml(0xAE, _ebml(0x83, b"\x01")
                  + _ebml(0x86, b"V_VP9") + video)
    tracks = _ebml(0x1654AE6B, entry)
    seg = _ebml(0x18538067, info + tracks)
    header = _ebml(0x1A45DFA3, b"")
    return header + seg


def test_webm_ebml_walk():
    info = probe_webm(_webm_fixture())
    # Duration 3000 ticks x 1e6 ns/tick = 3.0 s
    assert info["duration_sec"] == pytest.approx(3.0)
    assert info["tracks"] == [
        {"kind": "video", "codec_id": "V_VP9", "w": 640, "h": 360}
    ]


# --------------------------------------------------------------- Ogg

def _ogg_page(granule: int, packet: bytes, htype: int = 0) -> bytes:
    assert len(packet) < 255
    return (b"OggS" + bytes([0, htype]) + struct.pack("<q", granule)
            + b"\x00" * 12 + bytes([1, len(packet)]) + packet)


def test_ogg_vorbis_duration():
    ident = (b"\x01vorbis" + struct.pack("<I", 0) + bytes([2])
             + struct.pack("<I", 44100) + b"\x00" * 13)
    data = (_ogg_page(0, ident, htype=2)
            + _ogg_page(88200, b"\x00" * 10, htype=4))
    info = probe_ogg(data)
    assert info["codec"] == "vorbis"
    assert info["channels"] == 2
    assert info["sample_rate"] == 44100
    assert info["duration_sec"] == pytest.approx(2.0)


def test_ogg_opus_preskip():
    ident = (b"OpusHead" + bytes([1, 2]) + struct.pack("<H", 312)
             + struct.pack("<I", 48000) + b"\x00" * 3)
    data = (_ogg_page(0, ident, htype=2)
            + _ogg_page(48000 + 312, b"\x00" * 4, htype=4))
    info = probe_ogg(data)
    assert info["codec"] == "opus"
    # granules are 48 kHz minus pre-skip regardless of input rate
    assert info["duration_sec"] == pytest.approx(1.0)


def test_probe_media_router():
    assert probe_media(_mp4_fixture())["container"] == "mp4"
    assert probe_media(_webm_fixture())["container"] == "webm"
    with pytest.raises(ValueError):
        probe_media(b"short")
    with pytest.raises(ValueError):
        probe_media(np.zeros(64, np.uint8).tobytes())


# -------------------------------------------------- RIFF (wav / avi)

def test_wav_header_probe():
    from playwrightcrawler_ray.stages.multimodal import encode_wav

    s = np.zeros(16000, np.int16)
    info = probe_media(encode_wav(s, rate=16000))
    assert info == {"container": "wav", "codec": "pcm16", "channels": 1,
                    "sample_rate": 16000, "duration_sec": 1.0}


def _avi_mjpeg(frames: list[np.ndarray], fps: int = 10) -> bytes:
    """RIFF/AVI container with MJPEG ('00dc') frames — each frame a
    baseline JPEG through the pure-Python encoder."""
    from playwrightcrawler_ray.imaging.jpeg import jpeg_encode

    h, w = frames[0].shape[:2]

    def chunk(tag: bytes, body: bytes) -> bytes:
        return tag + struct.pack("<I", len(body)) + body + (
            b"\x00" if len(body) & 1 else b""
        )

    def lst(subtype: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", subtype + body)

    avih = struct.pack(
        "<IIIIIIIIIIIIII", 1_000_000 // fps, 0, 0, 0x10, len(frames), 0,
        1, 0, w, h, 0, 0, 0, 0,
    )
    strh = struct.pack(
        "<4s4sIHHIIIIIIIIhhhh", b"vids", b"MJPG", 0, 0, 0, 0, 1, fps, 0,
        len(frames), 0, 0xFFFFFFFF, 0, 0, 0, int(w), int(h),
    )
    strf = struct.pack("<IiiHH4sIiiII", 40, w, h, 1, 24, b"MJPG",
                       w * h * 3, 0, 0, 0, 0)
    hdrl = lst(b"hdrl", chunk(b"avih", avih)
               + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)))
    movi = lst(b"movi", b"".join(chunk(b"00dc", jpeg_encode(f, quality=90))
                                 for f in frames))
    return chunk(b"RIFF", b"AVI " + hdrl + movi)


def test_avi_header_probe():
    frames = [np.full((16, 24, 3), i * 40, np.uint8) for i in range(4)]
    info = probe_media(_avi_mjpeg(frames, fps=10))
    assert info["container"] == "avi"
    assert info["frames"] == 4
    assert info["duration_sec"] == pytest.approx(0.4)
    assert info["tracks"][0]["w"] == 24 and info["tracks"][0]["h"] == 16


# ------------------------------------------ built-in content handler

def test_media_handler_on_crawl_rows():
    """audio/video category docs get a real probe summary in
    min_webcontent via the built-in handler (oracle + engine share
    process_fetched, so this covers both)."""
    from playwrightcrawler_ray.config import CrawlConfig
    from playwrightcrawler_ray.stages.multimodal import encode_wav
    from playwrightcrawler_ray.stages.process import (
        ProcessContext, process_fetched,
    )

    ctx = ProcessContext(CrawlConfig(hunt_open_directories=False))
    body = encode_wav(np.zeros(8000, np.int16), rate=16000)
    rows, offers, imgs = process_fetched(
        "https://h.test/a.wav", "h.test", 0, 200, "audio/x-wav",
        body, "", ctx)
    assert len(rows) == 1
    assert rows[0]["category"] == "audio"
    assert rows[0]["min_webcontent"] == \
        "media:wav:pcm16:dur=0.5:rate=16000:ch=1"
    # malformed media → unreadable marker, not a crash
    rows, _, _ = process_fetched(
        "https://h.test/b.mp3", "h.test", 0, 200, "audio/mpeg",
        b"\x00" * 64, "", ctx)
    assert rows[0]["min_webcontent"].startswith("media:unreadable:")
