"""Test-only WebP writers: fixture inputs for the VP8L decoder's
palette path and for the animated-WebP compositor.

Built on the package's literal-code VP8L writer helpers; the package
itself never imports this module.
"""

from __future__ import annotations

import struct

import numpy as np

from playwrightcrawler_ray.imaging.webp import (
    _LsbWriter,
    _enc_table,
    _huff_lengths,
    _pack_symbols,
    _rev_tables,
    _write_prefix_code,
    vp8l_encode,
)


def _write_literal_stream(bw: _LsbWriter, gf, rf, bf, af,
                          green_size: int) -> None:
    """Frequency-coded literal-only image data (5 prefix codes + pixel
    loop) — shared by the palette sub-image and index-image writers."""
    def freq(vals):
        f: dict[int, int] = {}
        for v in vals:
            f[int(v)] = f.get(int(v), 0) + 1
        return f

    g_len = _huff_lengths(freq(gf), green_size, 15)
    r_len = _huff_lengths(freq(rf), 256, 15)
    b_len = _huff_lengths(freq(bf), 256, 15)
    a_len = _huff_lengths(freq(af), 256, 15)
    for ln in (g_len, r_len, b_len, a_len):
        _write_prefix_code(bw, ln)
    dist_len = [0] * 40
    dist_len[0] = 1
    _write_prefix_code(bw, dist_len)
    n = len(gf)
    sym_vals = np.zeros((n, 4), dtype=np.int64)
    sym_lens = np.zeros((n, 4), dtype=np.int64)
    for col, (lengths, size, vals) in enumerate(
        [(g_len, green_size, gf), (r_len, 256, rf),
         (b_len, 256, bf), (a_len, 256, af)]
    ):
        tv, tl = _rev_tables(_enc_table(lengths), size)
        idx = np.asarray(vals, dtype=np.int64)
        sym_vals[:, col] = tv[idx]
        sym_lens[:, col] = tl[idx]
    _pack_symbols(bw, sym_vals.reshape(-1), sym_lens.reshape(-1))


def vp8l_encode_palette(pixels: np.ndarray) -> bytes:
    """Palette (color-indexing transform) VP8L encoding, incl. sub-byte
    pixel bundling for ≤16 colors — exercises the decoder's palette
    path end-to-end. Requires ≤ 256 distinct colors. Lossless."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("expected (h, w, 3) uint8 array")
    h, w = pixels.shape[:2]
    flat = pixels.reshape(-1, 3)
    colors, inverse = np.unique(flat, axis=0, return_inverse=True)
    n_colors = len(colors)
    if n_colors > 256:
        raise ValueError("more than 256 distinct colors")
    idx = inverse.reshape(h, w).astype(np.int64)
    if n_colors <= 2:
        pack_bits = 3
    elif n_colors <= 4:
        pack_bits = 2
    elif n_colors <= 16:
        pack_bits = 1
    else:
        pack_bits = 0
    per = 1 << pack_bits if pack_bits else 1   # pixels per green byte
    bitw = 8 >> pack_bits if pack_bits else 8  # bits per bundled pixel
    wp = -(-w // per)
    packed = np.zeros((h, wp), dtype=np.int64)
    for i in range(per):
        cols = idx[:, i::per]
        packed[:, : cols.shape[1]] |= cols << (i * bitw)

    bw = _LsbWriter()
    bw.write(0x2F, 8)
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(0, 1)  # no alpha
    bw.write(0, 3)  # version
    bw.write(1, 1)  # transform present
    bw.write(3, 2)  # COLOR_INDEXING
    bw.write(n_colors - 1, 8)
    # palette sub-image (n_colors × 1), componentwise delta-coded
    pal = colors.astype(np.int64)
    prev = np.zeros(3, np.int64)
    dr, dg, db = [], [], []
    for i in range(n_colors):
        d = (pal[i] - prev) & 0xFF
        dr.append(int(d[0]))
        dg.append(int(d[1]))
        db.append(int(d[2]))
        prev = pal[i]
    da = [255] + [0] * (n_colors - 1)  # alpha: 255 then deltas of 0
    bw.write(0, 1)  # sub-image: no color cache
    _write_literal_stream(bw, dg, dr, db, da, 256 + 24)
    bw.write(0, 1)  # no more transforms
    bw.write(0, 1)  # no color cache (main image)
    bw.write(0, 1)  # no meta-prefix image
    pf = packed.reshape(-1)
    zeros = [0] * len(pf)
    alphas = [255] * len(pf)
    _write_literal_stream(bw, pf.tolist(), zeros, zeros, alphas, 256 + 24)
    payload = bw.flush()
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


def _p24(v: int) -> bytes:
    return bytes((v & 0xFF, (v >> 8) & 0xFF, (v >> 16) & 0xFF))


def _vp8l_chunk_payload(webp_file: bytes) -> bytes:
    """Extract the raw VP8L chunk payload from a single-image WebP
    produced by vp8l_encode / vp8l_encode_palette."""
    pos = 12
    while pos + 8 <= len(webp_file):
        tag = webp_file[pos : pos + 4]
        (size,) = struct.unpack_from("<I", webp_file, pos + 4)
        if tag == b"VP8L":
            return webp_file[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    raise ValueError("no VP8L chunk in encoder output")


def webp_encode_anim(canvas: tuple[int, int], frames: list[dict],
                     bg_rgba: tuple[int, int, int, int] = (255, 255, 255, 0),
                     loop: int = 0) -> bytes:
    """Animated-WebP fixture muxer: each frame dict has ``pixels``
    (h, w, 3|4) uint8 (VP8L-encoded losslessly, alpha carried
    in-stream), and optionally ``x``/``y`` (even, default 0),
    ``duration_ms`` (default 40), ``blend`` (default True = alpha
    blend; False = overwrite) and ``dispose_bg`` (default False).
    ``canvas`` is (width, height)."""
    cw, ch = canvas
    body = bytearray()
    flags = 0x02 | (0x10 if any(
        f["pixels"].shape[2] == 4 for f in frames) else 0)
    vp8x = bytes([flags, 0, 0, 0]) + _p24(cw - 1) + _p24(ch - 1)
    body += b"VP8X" + struct.pack("<I", len(vp8x)) + vp8x
    r, g, b, a = bg_rgba
    anim = bytes([b, g, r, a]) + struct.pack("<H", loop)
    body += b"ANIM" + struct.pack("<I", len(anim)) + anim
    for fr in frames:
        px = fr["pixels"]
        h, w = px.shape[:2]
        x, y = int(fr.get("x", 0)), int(fr.get("y", 0))
        if x % 2 or y % 2:
            raise ValueError("ANMF offsets must be even")
        sub = _vp8l_chunk_payload(vp8l_encode(px))
        fl = (0 if fr.get("blend", True) else 0x02) | \
            (0x01 if fr.get("dispose_bg", False) else 0)
        payload = (_p24(x // 2) + _p24(y // 2) + _p24(w - 1) + _p24(h - 1)
                   + _p24(int(fr.get("duration_ms", 40))) + bytes([fl]))
        payload += b"VP8L" + struct.pack("<I", len(sub)) + sub
        if len(sub) & 1:
            payload += b"\x00"
        body += b"ANMF" + struct.pack("<I", len(payload)) + payload
        if len(payload) & 1:
            body += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WEBP" + bytes(body)
