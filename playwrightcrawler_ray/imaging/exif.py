"""EXIF metadata over the crawl's image formats: parse, lossless
strip, and orientation-normalized decode.

Reference parity note: the reference stores fetched images verbatim
and hashes/decodes them with PIL (playwrightcrawler.py:3848,
``Image.open`` on the raw bytes), which PRESERVES EXIF bytes but
never applies them (no ``ImageOps.exif_transpose`` anywhere) — so a
phone photo with Orientation=6 sits sideways in every downstream
consumer that forgets ``exif_transpose``. A curation pipeline needs
all three EXIF operations this module provides:

- **parse** — orientation, camera make/model, capture time and GPS
  position are standard dedup/quality/provenance signals;
- **scrub** — GPS coordinates are PII; the strip is BYTE-LEVEL
  (remove the metadata container, fix up the envelope), never a
  re-encode, so pixels stay bit-identical;
- **normalize** — ``decode_image_oriented`` folds the 8 EXIF
  orientations into the pixel array so hashes/embeddings of the same
  photo agree regardless of which way the camera was held.

Containers handled: JPEG (APP1 ``Exif\\0\\0``), WebP (``EXIF`` RIFF
chunk + VP8X flag bit), PNG (``eXIf`` chunk, PNG 1.5 extension), and
bare TIFF (where the EXIF tags live in IFD0 itself — structural, so
strip refuses rather than rewriting the fabric).

The IFD reader here is richer than imaging/tiff.py's pixel-oriented
one (ASCII and RATIONAL types, sub-IFD pointers) and deliberately
separate: tiff.py walks IFDs to find strips, this module walks them
to extract typed metadata.
"""

from __future__ import annotations

import struct

import numpy as np

# IFD0 tags
_TAG_MAKE = 0x010F
_TAG_MODEL = 0x0110
_TAG_ORIENTATION = 0x0112
_TAG_DATETIME = 0x0132
_TAG_EXIF_IFD = 0x8769
_TAG_GPS_IFD = 0x8825
# Exif sub-IFD tags
_TAG_DATETIME_ORIGINAL = 0x9003
_TAG_PIXEL_X = 0xA002
_TAG_PIXEL_Y = 0xA003
# GPS IFD tags
_TAG_GPS_LAT_REF = 0x0001
_TAG_GPS_LAT = 0x0002
_TAG_GPS_LON_REF = 0x0003
_TAG_GPS_LON = 0x0004

_TYPE_SIZES = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 7: 1, 9: 4, 10: 8}

_EMPTY = {
    "orientation": 1, "make": None, "model": None, "datetime": None,
    "gps_lat": None, "gps_lon": None, "has_gps": False,
}


def _read_ifd_rich(data: bytes, endian: str, off: int):
    """One IFD → {tag: decoded value}; ASCII → str, RATIONAL →
    [(num, den), ...], integer types → [int, ...]. Truncated or
    unknown-typed entries are skipped, matching the permissive walk
    every real-world EXIF consumer needs (phone writers disagree on
    padding and sub-IFD layout constantly)."""
    if off < 0 or off + 2 > len(data):
        return {}
    (n,) = struct.unpack_from(endian + "H", data, off)
    out = {}
    for i in range(n):
        base = off + 2 + 12 * i
        if base + 12 > len(data):
            break
        tag, typ, count = struct.unpack_from(endian + "HHI", data, base)
        size = _TYPE_SIZES.get(typ, 0) * count
        if size == 0 or count > 1 << 20:
            continue
        if size <= 4:
            raw = data[base + 8 : base + 8 + size]
        else:
            (voff,) = struct.unpack_from(endian + "I", data, base + 8)
            raw = data[voff : voff + size]
        if len(raw) < size:
            continue
        if typ == 2:  # ASCII, NUL-terminated
            out[tag] = raw.split(b"\x00", 1)[0].decode(
                "ascii", "replace")
        elif typ in (5, 10):  # RATIONAL / SRATIONAL
            fmt = "II" if typ == 5 else "ii"
            out[tag] = [
                struct.unpack_from(endian + fmt, raw, 8 * j)
                for j in range(count)
            ]
        else:
            fmt = {1: "B", 3: "H", 4: "I", 7: "B", 9: "i"}[typ]
            out[tag] = list(
                struct.unpack_from(endian + fmt * count, raw))
    return out


def _dms_to_deg(dms, ref) -> float | None:
    """[(d_n,d_d),(m_n,m_d),(s_n,s_d)] + 'N'/'S'/'E'/'W' → signed
    decimal degrees. Defensive: a GPS IFD with the tag missing,
    mistyped (e.g. ASCII), or short (fewer than 3 rationals — what a
    coordinate-less GPS IFD degrades to) yields None, NOT a fabricated
    0.0 at Null Island."""
    if not isinstance(dms, (list, tuple)) or len(dms) < 3:
        return None
    try:
        d = sum(
            (num / den) / scale
            for (num, den), scale in zip(dms, (1.0, 60.0, 3600.0))
        )
    except (TypeError, ValueError, ZeroDivisionError):
        return None
    if ref in ("S", "W"):
        d = -d
    return d


def _int0(values) -> int | None:
    """First element of an integer-typed tag value list, or None when
    the tag is absent/mistyped — hostile files type anything as
    anything."""
    if (isinstance(values, list) and values
            and isinstance(values[0], int)):
        return values[0]
    return None


def parse_exif_tiff(payload: bytes) -> dict:
    """Parse a bare TIFF-structured EXIF payload (what sits after the
    ``Exif\\0\\0`` header in JPEG APP1, or raw in WebP EXIF / PNG
    eXIf chunks). Unknown/absent fields take the _EMPTY defaults."""
    out = dict(_EMPTY)
    if len(payload) < 8:
        return out
    if payload[:4] == b"II*\x00":
        endian = "<"
    elif payload[:4] == b"MM\x00*":
        endian = ">"
    else:
        return out
    (ifd0_off,) = struct.unpack_from(endian + "I", payload, 4)
    ifd0 = _read_ifd_rich(payload, endian, ifd0_off)
    o = _int0(ifd0.get(_TAG_ORIENTATION))
    if o is not None and 1 <= o <= 8:
        out["orientation"] = o
    for tag, key in ((_TAG_MAKE, "make"), (_TAG_MODEL, "model"),
                     (_TAG_DATETIME, "datetime")):
        if isinstance(ifd0.get(tag), str):
            out[key] = ifd0[tag]
    exif_off = _int0(ifd0.get(_TAG_EXIF_IFD))
    if exif_off is not None:
        sub = _read_ifd_rich(payload, endian, exif_off)
        if isinstance(sub.get(_TAG_DATETIME_ORIGINAL), str):
            out["datetime"] = sub[_TAG_DATETIME_ORIGINAL]
    gps_off = _int0(ifd0.get(_TAG_GPS_IFD))
    if gps_off is not None:
        gps = _read_ifd_rich(payload, endian, gps_off)
        lat = _dms_to_deg(gps.get(_TAG_GPS_LAT),
                          gps.get(_TAG_GPS_LAT_REF))
        lon = _dms_to_deg(gps.get(_TAG_GPS_LON),
                          gps.get(_TAG_GPS_LON_REF))
        if lat is not None and lon is not None:
            out["gps_lat"], out["gps_lon"] = lat, lon
            out["has_gps"] = True
    return out


# ------------------------------------------------- container walks

def _jpeg_segments(data: bytes):
    """Yield (marker, seg_start, seg_end) over a JPEG's marker
    segments up to SOS (metadata lives before entropy data)."""
    pos = 2
    while pos + 4 <= len(data) and data[pos] == 0xFF:
        marker = data[pos + 1]
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        (size,) = struct.unpack_from(">H", data, pos + 2)
        yield marker, pos, pos + 2 + size
        if marker == 0xDA:  # SOS — entropy data follows
            return
        pos += 2 + size


def find_exif(data: bytes) -> bytes | None:
    """Locate the TIFF-structured EXIF payload in any supported
    container; None when the image carries no EXIF."""
    if data[:2] == b"\xff\xd8":
        for marker, s, e in _jpeg_segments(data):
            if marker == 0xE1 and data[s + 4 : s + 10] == b"Exif\x00\x00":
                return data[s + 10 : e]
        return None
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        pos = 12
        while pos + 8 <= len(data):
            tag = data[pos : pos + 4]
            (size,) = struct.unpack_from("<I", data, pos + 4)
            if tag == b"EXIF":
                payload = data[pos + 8 : pos + 8 + size]
                # spec says raw TIFF, but many muxers keep the JPEG
                # APP1 "Exif\0\0" prefix — accept both
                if payload[:6] == b"Exif\x00\x00":
                    payload = payload[6:]
                return payload
            pos += 8 + size + (size & 1)
        return None
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        pos = 8
        while pos + 8 <= len(data):
            (size,) = struct.unpack_from(">I", data, pos)
            tag = data[pos + 4 : pos + 8]
            if tag == b"eXIf":
                return data[pos + 8 : pos + 8 + size]
            if tag == b"IEND":
                break
            pos += 12 + size
        return None
    if data[:4] in (b"II*\x00", b"MM\x00*"):
        return data
    return None


def exif_parse(data: bytes) -> dict:
    """Image bytes (any supported container) → EXIF dict (defaults
    when the image carries none)."""
    payload = find_exif(data)
    return dict(_EMPTY) if payload is None else parse_exif_tiff(payload)


def exif_strip(data: bytes) -> bytes:
    """Remove EXIF metadata WITHOUT re-encoding: pixels stay
    bit-identical, only the metadata container (and its envelope
    bookkeeping — RIFF size, VP8X flag bit) changes. The privacy
    scrub for GPS-bearing uploads."""
    if data[:2] == b"\xff\xd8":
        drops = [
            (s, e) for m, s, e in _jpeg_segments(data)
            if m == 0xE1 and data[s + 4 : s + 10] == b"Exif\x00\x00"
        ]
        out = bytearray()
        last = 0
        for s, e in drops:
            out += data[last:s]
            last = e
        out += data[last:]
        return bytes(out)
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        body = bytearray()
        pos = 12
        while pos + 8 <= len(data):
            tag = data[pos : pos + 4]
            (size,) = struct.unpack_from("<I", data, pos + 4)
            chunk = data[pos : pos + 8 + size + (size & 1)]
            if tag == b"VP8X" and size >= 10:
                chunk = bytearray(chunk)
                chunk[8] &= ~0x08  # clear the EXIF flag bit
                chunk = bytes(chunk)
            if tag != b"EXIF":
                body += chunk
            pos += 8 + size + (size & 1)
        return (b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WEBP"
                + bytes(body))
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        out = bytearray(data[:8])
        pos = 8
        while pos + 8 <= len(data):
            (size,) = struct.unpack_from(">I", data, pos)
            tag = data[pos + 4 : pos + 8]
            if tag != b"eXIf":
                out += data[pos : pos + 12 + size]
            if tag == b"IEND":
                break
            pos += 12 + size
        return bytes(out)
    if data[:4] in (b"II*\x00", b"MM\x00*"):
        raise ValueError(
            "TIFF EXIF is structural (tags live in IFD0); strip would "
            "rewrite the image fabric — re-encode instead")
    return data


# ---------------------------------------- orientation normalization

def orient_pixels(px: np.ndarray, orientation: int) -> np.ndarray:
    """Fold an EXIF orientation tag into the pixel array: returns the
    image as it should be VIEWED (tag semantics: which visual side
    stored row 0 / column 0 correspond to — EXIF 2.32 table 5).
    Matches PIL.ImageOps.exif_transpose's transform choice per tag."""
    if orientation == 2:      # mirrored horizontally
        out = px[:, ::-1]
    elif orientation == 3:    # rotated 180
        out = px[::-1, ::-1]
    elif orientation == 4:    # mirrored vertically
        out = px[::-1, :]
    elif orientation == 5:    # transpose (main diagonal)
        out = px.transpose(1, 0, 2) if px.ndim == 3 else px.T
    elif orientation == 6:    # stored 90° CCW → view by rotating CW
        out = np.rot90(px, -1)
    elif orientation == 7:    # transverse (anti-diagonal)
        t = px.transpose(1, 0, 2) if px.ndim == 3 else px.T
        out = t[::-1, ::-1]
    elif orientation == 8:    # stored 90° CW → view by rotating CCW
        out = np.rot90(px, 1)
    else:                     # 1 (or invalid): as stored
        out = px
    return np.ascontiguousarray(out)


def decode_image_oriented(data: bytes
                          ) -> tuple[np.ndarray, str, dict]:
    """Decode + EXIF-normalize in one call: (upright pixels, fmt,
    exif dict). The pixel-content dedup/embedding path should hash
    THIS — the same photo shot in portrait and auto-rotated by one
    site but not another must collide."""
    from .codec import decode_image

    px, fmt = decode_image(data)
    info = exif_parse(data)
    px = orient_pixels(px, info["orientation"])
    return px, fmt, info
