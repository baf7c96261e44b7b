"""Test-only EXIF writer: builds the TIFF payloads and inserts them
into JPEG, PNG and WebP files, as inputs and round-trip oracle for
``playwrightcrawler_ray.imaging.exif``'s parser, strip and orientation
fold. The package itself never imports this module.
"""

from __future__ import annotations

import struct
import zlib

from playwrightcrawler_ray.imaging.exif import (
    _TAG_DATETIME,
    _TAG_GPS_IFD,
    _TAG_GPS_LAT,
    _TAG_GPS_LAT_REF,
    _TAG_GPS_LON,
    _TAG_GPS_LON_REF,
    _TAG_MAKE,
    _TAG_MODEL,
    _TAG_ORIENTATION,
)


def build_exif(orientation: int = 1, make: str | None = None,
               model: str | None = None, datetime: str | None = None,
               gps: tuple[float, float] | None = None,
               endian: str = "<") -> bytes:
    """Serialize an EXIF TIFF payload (IFD0 + optional GPS sub-IFD).
    The parser's round-trip oracle: build(tags) → parse == tags, both
    endiannesses."""
    magic = b"II*\x00" if endian == "<" else b"MM\x00*"

    entries: list[tuple[int, int, int, bytes]] = []  # tag,typ,count,value
    heap = bytearray()

    def ascii_entry(tag: int, s: str) -> None:
        raw = s.encode("ascii") + b"\x00"
        entries.append((tag, 2, len(raw), raw))

    def short_entry(tag: int, v: int) -> None:
        entries.append((tag, 3, 1, struct.pack(endian + "H", v)))

    if make is not None:
        ascii_entry(_TAG_MAKE, make)
    if model is not None:
        ascii_entry(_TAG_MODEL, model)
    short_entry(_TAG_ORIENTATION, orientation)
    if datetime is not None:
        ascii_entry(_TAG_DATETIME, datetime)

    gps_entries: list[tuple[int, int, int, bytes]] = []
    if gps is not None:
        lat, lon = gps

        def dms(v: float) -> bytes:
            v = abs(v)
            d = int(v)
            m = int((v - d) * 60)
            s_micro = round(((v - d) * 60 - m) * 60 * 1_000_000)
            return struct.pack(endian + "IIIIII",
                               d, 1, m, 1, s_micro, 1_000_000)

        gps_entries = [
            (_TAG_GPS_LAT_REF, 2, 2,
             (b"N\x00" if lat >= 0 else b"S\x00")),
            (_TAG_GPS_LAT, 5, 3, dms(lat)),
            (_TAG_GPS_LON_REF, 2, 2,
             (b"E\x00" if lon >= 0 else b"W\x00")),
            (_TAG_GPS_LON, 5, 3, dms(lon)),
        ]

    def ifd_size(es) -> int:
        return 2 + 12 * len(es) + 4

    ifd0_entries = sorted(entries)
    ifd0_off = 8
    n0 = len(ifd0_entries) + (1 if gps_entries else 0)
    gps_off = ifd0_off + 2 + 12 * n0 + 4
    heap_off = gps_off + (ifd_size(sorted(gps_entries))
                          if gps_entries else 0)

    def render_ifd(es, heap_pos: int) -> tuple[bytes, bytes, int]:
        body = struct.pack(endian + "H", len(es))
        local_heap = bytearray()
        for tag, typ, count, raw in es:
            body += struct.pack(endian + "HHI", tag, typ, count)
            if len(raw) <= 4:
                body += raw + b"\x00" * (4 - len(raw))
            else:
                body += struct.pack(endian + "I", heap_pos)
                local_heap += raw
                if len(raw) & 1:
                    local_heap += b"\x00"
                heap_pos += len(raw) + (len(raw) & 1)
        body += struct.pack(endian + "I", 0)  # next-IFD: none
        return body, bytes(local_heap), heap_pos

    ifd0_all = ifd0_entries + (
        [(_TAG_GPS_IFD, 4, 1, struct.pack(endian + "I", gps_off))]
        if gps_entries else [])
    ifd0_all = sorted(ifd0_all)
    heap_pos = heap_off
    ifd0_body, heap0, heap_pos = render_ifd(ifd0_all, heap_pos)
    if gps_entries:
        gps_body, heap1, heap_pos = render_ifd(sorted(gps_entries),
                                               heap_pos)
    else:
        gps_body, heap1 = b"", b""
    return (magic + struct.pack(endian + "I", ifd0_off)
            + ifd0_body + gps_body + heap0 + heap1)


def attach_exif(data: bytes, payload: bytes) -> bytes:
    """Insert an EXIF payload into a JPEG (APP1 after SOI), PNG
    (eXIf after IHDR) or WebP (EXIF chunk; requires an existing VP8X
    header, whose EXIF flag is set). Raises for other containers."""
    if data[:2] == b"\xff\xd8":
        app1 = b"Exif\x00\x00" + payload
        if len(app1) + 2 > 0xFFFF:
            raise ValueError(
                "EXIF payload exceeds one APP1 segment (65529 bytes); "
                "multi-segment splitting is not supported")
        seg = b"\xff\xe1" + struct.pack(">H", len(app1) + 2) + app1
        return data[:2] + seg + data[2:]
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        (ihdr_size,) = struct.unpack_from(">I", data, 8)
        cut = 8 + 12 + ihdr_size
        chunk = (struct.pack(">I", len(payload)) + b"eXIf" + payload
                 + struct.pack(">I", zlib.crc32(b"eXIf" + payload)
                               & 0xFFFFFFFF))
        return data[:cut] + chunk + data[cut:]
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        body = bytearray()
        pos = 12
        saw_vp8x = False
        while pos + 8 <= len(data):
            tag = data[pos : pos + 4]
            (size,) = struct.unpack_from("<I", data, pos + 4)
            chunk = data[pos : pos + 8 + size + (size & 1)]
            if tag == b"VP8X" and size >= 10:
                chunk = bytearray(chunk)
                chunk[8] |= 0x08  # set the EXIF flag bit
                chunk = bytes(chunk)
                saw_vp8x = True
            body += chunk
            pos += 8 + size + (size & 1)
        if not saw_vp8x:
            raise ValueError(
                "attach_exif needs a VP8X-extended WebP (simple "
                "lossy/lossless files carry no metadata chunks)")
        body += (b"EXIF" + struct.pack("<I", len(payload)) + payload
                 + (b"\x00" if len(payload) & 1 else b""))
        return (b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WEBP"
                + bytes(body))
    raise ValueError("attach_exif: unsupported container")
