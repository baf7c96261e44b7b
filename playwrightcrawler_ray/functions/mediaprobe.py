"""Header-level probing of compressed media containers.

The reference stores compressed audio/video via its content-type
router without decoding (``handle_content_type``, playwrightcrawler.py
:2741-2843), and so does the crawl: a full PCM/pixel decode of
mp3/ogg/aac/mp4/webm would need ffmpeg.  What a 100 TB
training-data pipeline actually needs from such rows FIRST, though, is
metadata — duration, sample rate, channels, codec, frame size — to
filter and route without decoding a single sample.  This module
extracts that for real, from the public container specs:

- **MP3** (ISO 11172-3 / 13818-3): ID3v2 skip (syncsafe length), then
  an MPEG audio frame-header walk — version/layer bits, the published
  bitrate and sample-rate tables, frame-length arithmetic
  (``144*bitrate/rate + padding`` for L2/L3), per-frame samples
  (384/1152/576) — yielding duration, average bitrate, rate, channels,
  and frame count.  The well-known constant (128 kbps @ 44100 Hz
  MPEG-1 L3 → 417-byte frames) anchors the table transcription in the
  tests.
- **MP4 / ISO BMFF** (ISO 14496-12): box walk (32/64-bit sizes) into
  ``moov`` → ``mvhd`` (timescale/duration, v0+v1), per-``trak``
  ``tkhd`` (16.16 fixed-point width/height), ``hdlr`` (vide/soun) and
  ``stsd`` (codec fourcc).
- **WebM / Matroska** (public EBML + Matroska specs): EBML vint
  reader, Segment → Info (TimestampScale, float Duration) and Tracks
  (CodecID, TrackType, PixelWidth/Height).
- **Ogg** (RFC 3533) with **Vorbis** (identification header) and
  **Opus** (``OpusHead``, RFC 7845): channels + rate from the first
  packet, duration from the LAST page's granule position (Vorbis:
  PCM samples; Opus: 48 kHz samples minus pre-skip).

Everything returns a plain dict (or raises ``ValueError`` on a
malformed stream) and is bounded: walks are O(container headers), no
allocation proportional to claimed sizes.
"""

from __future__ import annotations

import struct

__all__ = ["probe_media", "probe_mp3", "probe_mp4", "probe_webm",
           "probe_ogg", "probe_wav", "probe_avi"]

# ---------------------------------------------------------------- MP3

# bitrate tables [kbps], index 1-14 (0 = free, 15 = bad)
_BITRATES = {
    # (version_group, layer): table — version_group 1 = MPEG1, 2 = MPEG2/2.5
    (1, 1): [0, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352,
             384, 416, 448],
    (1, 2): [0, 32, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256,
             320, 384],
    (1, 3): [0, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224,
             256, 320],
    (2, 1): [0, 32, 48, 56, 64, 80, 96, 112, 128, 144, 160, 176, 192,
             224, 256],
    (2, 2): [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144,
             160],
    (2, 3): [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144,
             160],
}
_RATES = {0: [11025, 12000, 8000],      # MPEG2.5
          2: [22050, 24000, 16000],     # MPEG2
          3: [44100, 48000, 32000]}     # MPEG1


def _skip_id3(data: bytes) -> int:
    if data[:3] == b"ID3" and len(data) >= 10:
        sz = ((data[6] & 0x7F) << 21 | (data[7] & 0x7F) << 14
              | (data[8] & 0x7F) << 7 | (data[9] & 0x7F))
        return 10 + sz
    return 0


def probe_mp3(data: bytes, max_frames: int = 1_000_000) -> dict:
    pos = _skip_id3(data)
    frames = 0
    total_br = 0
    dur = 0.0
    rate = channels = None
    layer_name = None
    while pos + 4 <= len(data) and frames < max_frames:
        b0, b1, b2, b3 = data[pos:pos + 4]
        if b0 != 0xFF or (b1 & 0xE0) != 0xE0:
            if frames:
                break  # trailing tag/garbage after a valid run
            pos += 1   # resync scan before the first frame
            continue
        ver_bits = (b1 >> 3) & 3          # 0=2.5, 2=2, 3=1 (1=reserved)
        layer_bits = (b1 >> 1) & 3        # 3=L1, 2=L2, 1=L3
        if ver_bits == 1 or layer_bits == 0:
            if frames:
                break
            pos += 1
            continue
        layer = 4 - layer_bits            # 1, 2, 3
        vgroup = 1 if ver_bits == 3 else 2
        br_idx = (b2 >> 4) & 0xF
        sr_idx = (b2 >> 2) & 3
        if br_idx in (0, 15) or sr_idx == 3:
            if frames:
                break
            pos += 1
            continue
        br = _BITRATES[(vgroup, layer)][br_idx] * 1000
        sr = _RATES[ver_bits][sr_idx]
        padding = (b2 >> 1) & 1
        mode = (b3 >> 6) & 3              # 3 = mono
        if layer == 1:
            flen = (12 * br // sr + padding) * 4
            nsamp = 384
        else:
            nsamp = 1152 if (layer == 2 or vgroup == 1) else 576
            # L3 MPEG2/2.5 frames carry 576 samples → half the length
            per = 144 if nsamp == 1152 else 72
            flen = per * br // sr + padding
        if flen <= 4:
            break
        frames += 1
        total_br += br
        dur += nsamp / sr
        rate = sr
        channels = 1 if mode == 3 else 2
        layer_name = f"mpeg{vgroup}_layer{layer}"
        pos += flen
    if not frames:
        raise ValueError("no MPEG audio frames found")
    return {
        "codec": layer_name,
        "container": "mp3",
        "duration_sec": round(dur, 6),
        "sample_rate": rate,
        "channels": channels,
        "bitrate_kbps": round(total_br / frames / 1000, 1),
        "frames": frames,
    }


# ---------------------------------------------------------------- MP4

def _walk_boxes(data: bytes, start: int, end: int):
    pos = start
    while pos + 8 <= end:
        (size,) = struct.unpack_from(">I", data, pos)
        btype = data[pos + 4:pos + 8]
        hdr = 8
        if size == 1:
            if pos + 16 > end:
                return
            (size,) = struct.unpack_from(">Q", data, pos + 8)
            hdr = 16
        elif size == 0:
            size = end - pos
        if size < hdr or pos + size > end:
            return
        yield btype, pos + hdr, pos + size
        pos += size


def _find_box(data: bytes, start: int, end: int, name: bytes):
    for btype, s, e in _walk_boxes(data, start, end):
        if btype == name:
            return s, e
    return None


def probe_mp4(data: bytes) -> dict:
    if len(data) < 12 or data[4:8] != b"ftyp":
        raise ValueError("not an ISO-BMFF file (no ftyp)")
    brand = data[8:12].decode("latin-1")
    moov = _find_box(data, 0, len(data), b"moov")
    if moov is None:
        raise ValueError("no moov box")
    ms, me = moov
    duration_sec = None
    mvhd = _find_box(data, ms, me, b"mvhd")
    if mvhd is not None:
        s, _e = mvhd
        version = data[s]
        if version == 1:
            timescale, duration = struct.unpack_from(">IQ", data, s + 20)
        else:
            timescale, duration = struct.unpack_from(">II", data, s + 12)
        if timescale:
            duration_sec = round(duration / timescale, 6)
    tracks = []
    pos = ms
    while True:
        trak = _find_box(data, pos, me, b"trak")
        if trak is None:
            break
        ts, te = trak
        info = {"kind": None, "fourcc": None, "w": None, "h": None}
        tkhd = _find_box(data, ts, te, b"tkhd")
        if tkhd is not None:
            s, e = tkhd
            if e - s >= 8:
                # width/height: last 8 bytes, 16.16 fixed point
                w_fx, h_fx = struct.unpack_from(">II", data, e - 8)
                if w_fx or h_fx:
                    info["w"] = w_fx >> 16
                    info["h"] = h_fx >> 16
        mdia = _find_box(data, ts, te, b"mdia")
        if mdia is not None:
            s, e = mdia
            hdlr = _find_box(data, s, e, b"hdlr")
            if hdlr is not None:
                hs, _he = hdlr
                handler = data[hs + 8:hs + 12]
                info["kind"] = {b"vide": "video", b"soun": "audio"}.get(
                    handler, handler.decode("latin-1", "replace"))
            minf = _find_box(data, s, e, b"minf")
            if minf is not None:
                stbl = _find_box(data, minf[0], minf[1], b"stbl")
                if stbl is not None:
                    stsd = _find_box(data, stbl[0], stbl[1], b"stsd")
                    if stsd is not None:
                        ss, se = stsd
                        if se - ss >= 16:
                            info["fourcc"] = data[ss + 12:ss + 16].decode(
                                "latin-1", "replace")
                    stsz = _find_box(data, stbl[0], stbl[1], b"stsz")
                    if stsz is not None and stsz[1] - stsz[0] >= 12:
                        # sample count without decoding one sample
                        (info["samples"],) = struct.unpack_from(
                            ">I", data, stsz[0] + 8)
        tracks.append(info)
        pos = te  # continue after this trak
    return {"container": "mp4", "brand": brand,
            "duration_sec": duration_sec, "tracks": tracks}


# --------------------------------------------------------------- WebM

def _ebml_vint(data: bytes, pos: int, keep_marker: bool):
    """Read one EBML variable-length integer; → (value, next_pos)."""
    if pos >= len(data):
        raise ValueError("EBML: truncated vint")
    first = data[pos]
    if first == 0:
        raise ValueError("EBML: invalid vint")
    length = 8 - first.bit_length() + 1
    if pos + length > len(data):
        raise ValueError("EBML: truncated vint body")
    v = first if keep_marker else first & (0xFF >> length)
    for i in range(1, length):
        v = (v << 8) | data[pos + i]
    return v, pos + length


def _walk_ebml(data: bytes, start: int, end: int):
    pos = start
    while pos < end:
        try:
            eid, p2 = _ebml_vint(data, pos, keep_marker=True)
            size, p3 = _ebml_vint(data, p2, keep_marker=False)
        except ValueError:
            return
        if p3 + size > end:
            size = end - p3  # unknown/overlong size: clamp
        yield eid, p3, p3 + size
        pos = p3 + size


def probe_webm(data: bytes) -> dict:
    if data[:4] != b"\x1aE\xdf\xa3":
        raise ValueError("not an EBML/WebM file")
    segments = [(s, e) for i, s, e in _walk_ebml(data, 0, len(data))
                if i == 0x18538067]
    if not segments:
        raise ValueError("no Segment element")
    ss, se = segments[0]
    timescale_ns = 1_000_000
    duration_ticks = None
    tracks = []
    for eid, s, e in _walk_ebml(data, ss, se):
        if eid == 0x1549A966:  # Info
            for i2, s2, e2 in _walk_ebml(data, s, e):
                if i2 == 0x2AD7B1:
                    timescale_ns = int.from_bytes(data[s2:e2], "big")
                elif i2 == 0x4489:
                    raw = data[s2:e2]
                    duration_ticks = struct.unpack(
                        ">f" if len(raw) == 4 else ">d", raw)[0]
        elif eid == 0x1654AE6B:  # Tracks
            for i2, s2, e2 in _walk_ebml(data, s, e):
                if i2 != 0xAE:
                    continue
                t = {"kind": None, "codec_id": None, "w": None, "h": None}
                for i3, s3, e3 in _walk_ebml(data, s2, e2):
                    if i3 == 0x83:
                        t["kind"] = {1: "video", 2: "audio"}.get(
                            data[s3], int(data[s3]) if e3 > s3 else None)
                    elif i3 == 0x86:
                        t["codec_id"] = data[s3:e3].decode(
                            "latin-1", "replace")
                    elif i3 == 0xE0:  # Video
                        for i4, s4, e4 in _walk_ebml(data, s3, e3):
                            if i4 == 0xB0:
                                t["w"] = int.from_bytes(data[s4:e4], "big")
                            elif i4 == 0xBA:
                                t["h"] = int.from_bytes(data[s4:e4], "big")
                tracks.append(t)
    dur = (round(duration_ticks * timescale_ns / 1e9, 6)
           if duration_ticks is not None else None)
    return {"container": "webm", "duration_sec": dur, "tracks": tracks}


# ---------------------------------------------------------------- Ogg

def probe_ogg(data: bytes) -> dict:
    if data[:4] != b"OggS":
        raise ValueError("not an Ogg stream")
    codec = channels = rate = None
    pre_skip = 0
    last_granule = None
    pos = 0
    first = True
    while pos + 27 <= len(data) and data[pos:pos + 4] == b"OggS":
        granule = struct.unpack_from("<q", data, pos + 6)[0]
        nseg = data[pos + 26]
        seg_table = data[pos + 27:pos + 27 + nseg]
        body = pos + 27 + nseg
        size = sum(seg_table)
        if granule >= 0:
            last_granule = granule
        if first:
            pkt = data[body:body + size]
            if pkt[:7] == b"\x01vorbis":
                codec = "vorbis"
                channels = pkt[11]
                (rate,) = struct.unpack_from("<I", pkt, 12)
            elif pkt[:8] == b"OpusHead":
                codec = "opus"
                channels = pkt[9]
                (pre_skip,) = struct.unpack_from("<H", pkt, 10)
                (rate,) = struct.unpack_from("<I", pkt, 12)
            first = False
        pos = body + size
    if codec is None:
        raise ValueError("no Vorbis/Opus identification header")
    if codec == "opus":
        # Opus granules are 48 kHz samples regardless of input rate
        dur = (round(max(0, (last_granule or 0) - pre_skip) / 48000.0, 6)
               if last_granule is not None else None)
    else:
        dur = (round(last_granule / rate, 6)
               if last_granule is not None and rate else None)
    return {"container": "ogg", "codec": codec, "channels": channels,
            "sample_rate": rate, "duration_sec": dur}


# ----------------------------------------------------------- RIFF

def probe_wav(data: bytes) -> dict:
    """WAV duration/rate/channels from the fmt + data chunk HEADERS
    (no sample decode; byte-rate arithmetic only)."""
    pos = 12
    fmt = None
    data_size = None
    while pos + 8 <= len(data):
        tag = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if tag == b"fmt " and pos + 8 + 16 <= len(data):
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif tag == b"data":
            data_size = size
        pos += 8 + size + (size & 1)
    if fmt is None or data_size is None:
        raise ValueError("malformed WAV: missing fmt/data chunk")
    _afmt, nch, rate, byte_rate, _ba, bits = fmt
    dur = round(data_size / byte_rate, 6) if byte_rate else None
    return {"container": "wav", "codec": f"pcm{bits}",
            "channels": nch, "sample_rate": rate,
            "duration_sec": dur}


def probe_avi(data: bytes) -> dict:
    """AVI duration/dimensions from the avih main header."""
    i = data.find(b"avih")
    if i < 0 or i + 8 + 40 > len(data):
        raise ValueError("no avih header")
    us_per_frame, _mbps, _pad, _flags, total_frames = struct.unpack_from(
        "<IIIII", data, i + 8)
    w, h = struct.unpack_from("<II", data, i + 8 + 32)
    dur = (round(us_per_frame * total_frames / 1e6, 6)
           if us_per_frame else None)
    return {"container": "avi", "duration_sec": dur,
            "tracks": [{"kind": "video", "codec_id": None,
                        "w": w or None, "h": h or None}],
            "frames": total_frames}


# ------------------------------------------------------------- router

def probe_flac(data: bytes) -> dict:
    """FLAC STREAMINFO probe (RFC 9639 §8.2): rate/channels/bits/
    duration from the mandatory first metadata block — O(header)."""
    if data[:4] != b"fLaC" or len(data) < 4 + 4 + 34:
        raise ValueError("not a FLAC stream")
    hdr = data[4]
    if hdr & 0x7F != 0:
        raise ValueError("FLAC: first metadata block is not STREAMINFO")
    si = data[8:8 + 34]
    rate = (si[10] << 12) | (si[11] << 4) | (si[12] >> 4)
    channels = ((si[12] >> 1) & 0x7) + 1
    bits = (((si[12] & 0x1) << 4) | (si[13] >> 4)) + 1
    total = ((si[13] & 0x0F) << 32) | int.from_bytes(si[14:18], "big")
    return {
        "container": "flac",
        "codec": "flac",
        "sample_rate": rate,
        "channels": channels,
        "bits": bits,
        "duration_sec": round(total / rate, 3) if rate else None,
        "tracks": [{"kind": "audio", "codec_id": "flac"}],
    }


def probe_media(data: bytes) -> dict:
    """Sniff the container and probe it; ValueError on unknowns."""
    if not isinstance(data, (bytes, bytearray)) or len(data) < 12:
        raise ValueError("too short to be a media file")
    if data[:4] == b"fLaC":
        return probe_flac(bytes(data))
    if data[:4] == b"RIFF" and data[8:12] == b"WAVE":
        return probe_wav(bytes(data))
    if data[:4] == b"RIFF" and data[8:12] == b"AVI ":
        return probe_avi(bytes(data))
    if data[:3] == b"ID3" or (data[0] == 0xFF and (data[1] & 0xE0) == 0xE0):
        return probe_mp3(bytes(data))
    if data[4:8] == b"ftyp":
        return probe_mp4(bytes(data))
    if data[:4] == b"\x1aE\xdf\xa3":
        return probe_webm(bytes(data))
    if data[:4] == b"OggS":
        return probe_ogg(bytes(data))
    raise ValueError("unrecognized media container")
