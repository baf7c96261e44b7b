"""Pure-Python GIF codec (GIF87a/GIF89a, public spec).

Decoder: logical screen descriptor, global/local color tables, LZW
(variable code width, LSB-first packing, CLEAR/EOI, 4095-entry
dictionary), interlaced images, GIF89a graphics-control transparency
(composited over white like the rest of the imaging layer).
``gif_decode`` yields the first frame (how a crawler snapshots a GIF
for the still-image path).

Encoder (used by the corpus/tests): palette-based single-frame GIF89a
for images with ≤256 distinct colors, with a real LZW compressor —
round-trips exercise the decoder's dictionary growth path.
"""

from __future__ import annotations

import struct

import numpy as np

_MAX_CODE = 4095


def lzw_decode(data: bytes, min_code_size: int) -> list[int]:
    """GIF-flavor LZW: variable width starting at min_code_size+1,
    CLEAR resets the dictionary, EOI terminates."""
    clear = 1 << min_code_size
    eoi = clear + 1
    # bit reader, LSB-first
    bitpos = 0
    nbits = len(data) * 8

    def read_code(width: int) -> int | None:
        nonlocal bitpos
        if bitpos + width > nbits:
            return None
        byte_i = bitpos >> 3
        val = int.from_bytes(data[byte_i : byte_i + 4], "little")
        val = (val >> (bitpos & 7)) & ((1 << width) - 1)
        bitpos += width
        return val

    out: list[int] = []
    width = min_code_size + 1
    table: list[list[int]] = [[i] for i in range(clear)] + [[], []]
    prev: list[int] | None = None
    while True:
        code = read_code(width)
        if code is None or code == eoi:
            break
        if code == clear:
            table = [[i] for i in range(clear)] + [[], []]
            width = min_code_size + 1
            prev = None
            continue
        if code < len(table) and (code < clear or table[code]):
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + [prev[0]]
        else:
            raise ValueError(f"bad LZW code {code}")
        out.extend(entry)
        if prev is not None and len(table) <= _MAX_CODE:
            table.append(prev + [entry[0]])
            if len(table) - 1 == (1 << width) - 1 and width < 12:
                width += 1
        prev = entry
    return out


def lzw_encode(indices: list[int], min_code_size: int) -> bytes:
    """Standard GIF LZW compressor (dictionary of tuples → codes)."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out_bits: list[tuple[int, int]] = []  # (code, width)
    width = min_code_size + 1
    dict_: dict[tuple[int, ...], int] = {(i,): i for i in range(clear)}
    next_code = eoi + 1
    out_bits.append((clear, width))
    w: tuple[int, ...] = ()
    for k in indices:
        wk = w + (k,)
        if wk in dict_:
            w = wk
            continue
        out_bits.append((dict_[w], width))
        if next_code <= _MAX_CODE:
            dict_[wk] = next_code
            if next_code == (1 << width) and width < 12:
                width += 1
            next_code += 1
        else:
            out_bits.append((clear, width))
            dict_ = {(i,): i for i in range(clear)}
            width = min_code_size + 1
            next_code = eoi + 1
        w = (k,)
    if w:
        out_bits.append((dict_[w], width))
    out_bits.append((eoi, width))
    # pack LSB-first
    acc = 0
    accbits = 0
    out = bytearray()
    for code, cw in out_bits:
        acc |= code << accbits
        accbits += cw
        while accbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            accbits -= 8
    if accbits:
        out.append(acc & 0xFF)
    return bytes(out)


_INTERLACE_PASSES = [(0, 8), (4, 8), (2, 4), (1, 2)]


def _read_image_block(data: bytes, pos: int, gct, max_pixels: int
                      ) -> tuple[int, int, np.ndarray, np.ndarray, int]:
    """Parse one image descriptor at ``pos`` (after the 0x2C sentinel):
    returns (left, top, index matrix, color table, new pos) with
    interlacing already undone."""
    left, top, iw, ih, ipacked = struct.unpack_from("<HHHHB", data, pos)
    pos += 9
    if iw * ih > max_pixels:
        raise MemoryError(f"decompression bomb: {iw}x{ih}")
    ct = gct
    if ipacked & 0x80:
        n = 2 << (ipacked & 0x07)
        ct = np.frombuffer(data[pos : pos + 3 * n], np.uint8).reshape(n, 3)
        pos += 3 * n
    if ct is None:
        raise ValueError("GIF image without color table")
    min_code = data[pos]
    pos += 1
    lzw = bytearray()
    while True:
        sz = data[pos]
        pos += 1
        if sz == 0:
            break
        lzw.extend(data[pos : pos + sz])
        pos += sz
    idx = lzw_decode(bytes(lzw), min_code)
    if len(idx) < iw * ih:
        raise ValueError("short GIF pixel data")
    arr = np.asarray(idx[: iw * ih], dtype=np.int32).reshape(ih, iw)
    if ipacked & 0x40:  # interlaced: reorder rows
        deinter = np.empty_like(arr)
        r = 0
        for start, step in _INTERLACE_PASSES:
            for y in range(start, ih, step):
                deinter[y] = arr[r]
                r += 1
        arr = deinter
    return left, top, arr, ct, pos


def gif_decode(data: bytes, max_pixels: int = 64_000_000) -> np.ndarray:
    """Decode the first frame to (h, w, 3) uint8 RGB (transparency over
    white). Raises ValueError on malformed streams."""
    if not data[:6] in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF stream")
    sw, sh, packed, _bg, _ar = struct.unpack_from("<HHBBB", data, 6)
    if sw * sh > max_pixels:
        raise MemoryError(f"decompression bomb: {sw}x{sh}")
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(data[pos : pos + 3 * n], np.uint8).reshape(n, 3)
        pos += 3 * n
    transparent_idx = None
    # canvas allocation is DEFERRED until the first image descriptor
    # decodes: a garbage header can declare ~64M pixels (under the bomb
    # cap) and a 180 MB np.full before parsing fails costs seconds of
    # page faults on a fuzzed stream that dies two bytes later
    canvas = None

    def _canvas() -> np.ndarray:
        nonlocal canvas
        if canvas is None:
            canvas = np.full((sh, sw, 3), 255, np.uint8)
        return canvas
    while pos < len(data):
        b = data[pos]
        pos += 1
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension
            label = data[pos]
            pos += 1
            if label == 0xF9 and data[pos] == 4:
                gc_packed = data[pos + 1]
                if gc_packed & 0x01:
                    transparent_idx = data[pos + 4]
            # skip sub-blocks
            while True:
                sz = data[pos]
                pos += 1
                if sz == 0:
                    break
                pos += sz
            continue
        if b != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b:02x}")
        left, top, arr, ct, pos = _read_image_block(data, pos, gct,
                                                    max_pixels)
        ih, iw = arr.shape
        rgb = ct[np.clip(arr, 0, len(ct) - 1)]
        if transparent_idx is not None:
            mask = arr == transparent_idx
            rgb = rgb.copy()
            rgb[mask] = 255  # over white
        cv = _canvas()
        cv[top : top + ih, left : left + iw] = rgb
        return cv  # first frame only
    return _canvas()


def gif_encode(pixels: np.ndarray, interlace: bool = False) -> bytes:
    """Encode (h, w, 3) uint8 RGB with ≤256 distinct colors as a
    single-frame GIF89a."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("expected (h, w, 3) uint8 array")
    h, w, _ = pixels.shape
    flat = pixels.reshape(-1, 3)
    colors, inverse = np.unique(flat, axis=0, return_inverse=True)
    if len(colors) > 256:
        raise ValueError(f"gif_encode needs <=256 colors, got {len(colors)}")
    # pad palette to power of two ≥ 2
    n = max(2, 1 << int(np.ceil(np.log2(len(colors)))))
    palette = np.zeros((n, 3), np.uint8)
    palette[: len(colors)] = colors
    gct_bits = int(np.log2(n)) - 1
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (gct_bits & 7), 0, 0)
    out += palette.tobytes()
    ipacked = 0x40 if interlace else 0
    out += struct.pack("<BHHHHB", 0x2C, 0, 0, w, h, ipacked)
    arr = inverse.reshape(h, w)
    if interlace:
        rows = []
        for start, step in _INTERLACE_PASSES:
            rows.extend(range(start, h, step))
        arr = arr[rows]
    min_code = max(2, int(np.ceil(np.log2(max(2, len(colors))))))
    out.append(min_code)
    lzw = lzw_encode([int(x) for x in arr.reshape(-1)], min_code)
    for i in range(0, len(lzw), 255):
        chunk = lzw[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out.append(0)
    out.append(0x3B)
    return bytes(out)
