"""Pure-Python VP8L (lossless WebP) codec + container dispatch.

The reference decodes WebP via PIL (playwrightcrawler.py:3844-3858).
Both halves of the format decode for real here: lossy ``VP8 `` chunks
route to the RFC 6386 keyframe codec in :mod:`.vp8`; the LOSSLESS half
is a self-contained entropy format implemented in this module from the
public "WebP Lossless Bitstream Specification":

- **Decoder**: RIFF/VP8X container walk, LSB-first bit reader,
  canonical (DEFLATE-style) prefix codes incl. the simple 1/2-symbol
  form and the RLE-coded code-length code, meta-prefix (entropy image)
  selection, color cache, LZ77 backward references with the 120-entry
  2D distance map, and all four transforms — PREDICTOR (14 modes),
  COLOR (cross-color deltas), SUBTRACT_GREEN, COLOR_INDEXING (palette,
  incl. sub-byte pixel bundling) — applied in reverse order.
- **Encoder**: minimal-but-real VP8L writer used by the synthetic
  corpus: subtract-green transform, optional color cache, flat 8-bit
  literal codes (a complete canonical code — 256 symbols × 8 bits),
  single-symbol distance code. Losslessly round-trips any RGB(A)
  image through the decoder.
"""

from __future__ import annotations

import struct

import numpy as np

# code-length-code symbol order (spec §"Code lengths")
_CLC_ORDER = [17, 18, 0, 1, 2, 3, 4, 5, 6, 7, 8,
              9, 10, 11, 12, 13, 14, 15, 16]

# 120-entry 2D distance map (spec §"Distance mapping"): (dx, dy)
_DIST_MAP = [
    (0, 1), (1, 0), (1, 1), (-1, 1), (0, 2), (2, 0), (1, 2), (-1, 2),
    (2, 1), (-2, 1), (2, 2), (-2, 2), (0, 3), (3, 0), (1, 3), (-1, 3),
    (3, 1), (-3, 1), (2, 3), (-2, 3), (3, 2), (-3, 2), (0, 4), (4, 0),
    (1, 4), (-1, 4), (4, 1), (-4, 1), (3, 3), (-3, 3), (2, 4), (-2, 4),
    (4, 2), (-4, 2), (0, 5), (3, 4), (-3, 4), (4, 3), (-4, 3), (5, 0),
    (1, 5), (-1, 5), (5, 1), (-5, 1), (2, 5), (-2, 5), (5, 2), (-5, 2),
    (4, 4), (-4, 4), (3, 5), (-3, 5), (5, 3), (-5, 3), (0, 6), (6, 0),
    (1, 6), (-1, 6), (6, 1), (-6, 1), (2, 6), (-2, 6), (6, 2), (-6, 2),
    (4, 5), (-4, 5), (5, 4), (-5, 4), (3, 6), (-3, 6), (6, 3), (-6, 3),
    (0, 7), (7, 0), (1, 7), (-1, 7), (5, 5), (-5, 5), (7, 1), (-7, 1),
    (4, 6), (-4, 6), (6, 4), (-6, 4), (2, 7), (-2, 7), (7, 2), (-7, 2),
    (3, 7), (-3, 7), (7, 3), (-7, 3), (5, 6), (-5, 6), (6, 5), (-6, 5),
    (8, 0), (4, 7), (-4, 7), (7, 4), (-7, 4), (8, 1), (8, 2), (6, 6),
    (-6, 6), (8, 3), (5, 7), (-5, 7), (7, 5), (-7, 5), (8, 4), (6, 7),
    (-6, 7), (7, 6), (-7, 6), (8, 5), (7, 7), (-7, 7), (8, 6), (8, 7),
]


class _LsbReader:
    """LSB-first bit reader (VP8L bit order)."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def read(self, n: int) -> int:
        while self.nbits < n:
            if self.pos >= len(self.data):
                raise ValueError("truncated VP8L stream")
            self.acc |= self.data[self.pos] << self.nbits
            self.pos += 1
            self.nbits += 8
        v = self.acc & ((1 << n) - 1)
        self.acc >>= n
        self.nbits -= n
        return v

    def peek(self, n: int) -> int:
        """Next ≤n bits without consuming; zero-padded past stream end
        (the LUT fast path needs a fixed window)."""
        while self.nbits < n and self.pos < len(self.data):
            self.acc |= self.data[self.pos] << self.nbits
            self.pos += 1
            self.nbits += 8
        return self.acc & ((1 << n) - 1)

    def consume(self, n: int) -> None:
        if n > self.nbits:
            raise ValueError("truncated VP8L stream")
        self.acc >>= n
        self.nbits -= n


class _Prefix:
    """Canonical prefix code (DEFLATE code assignment); decode walks
    bit-by-bit, MSB of the code first, bits pulled LSB-first from the
    stream — the VP8L convention."""

    __slots__ = ("map", "single", "lut", "lut_bits")

    def __init__(self, lengths: list[int]):
        nz = [(ln, sym) for sym, ln in enumerate(lengths) if ln > 0]
        if not nz:
            raise ValueError("empty prefix code")
        if len(nz) == 1:
            self.single = nz[0][1]  # zero bits read per symbol
            self.map = None
            self.lut = None
            return
        self.single = None
        # canonical assignment: shorter codes first, then symbol order
        bl_count: dict[int, int] = {}
        for ln, _ in nz:
            bl_count[ln] = bl_count.get(ln, 0) + 1
        next_code: dict[int, int] = {}
        code = 0
        for ln in range(1, max(bl_count) + 1):
            code = (code + bl_count.get(ln - 1, 0)) << 1
            next_code[ln] = code
        m: dict[tuple[int, int], int] = {}
        codes: list[tuple[int, int, int]] = []  # (len, code, sym)
        for ln, sym in sorted(nz):
            m[(ln, next_code[ln])] = sym
            codes.append((ln, next_code[ln], sym))
            next_code[ln] += 1
        self.map = m
        # LUT fast path: index = next `lut_bits` wire bits (LSB-first);
        # a code of length L occupies every index whose low L bits are
        # the bit-reversed code — a strided numpy fill per code
        maxlen = max(ln for ln, _, _ in codes)
        if maxlen <= 12:
            self.lut_bits = maxlen
            lut = np.zeros(1 << maxlen, dtype=np.int32)
            for ln, code, sym in codes:
                rev = int(f"{code:0{ln}b}"[::-1], 2)
                lut[rev :: 1 << ln] = (ln << 16) | sym
            self.lut = lut.tolist()
        else:
            self.lut = None
            self.lut_bits = 0

    def decode(self, br: _LsbReader) -> int:
        if self.single is not None:
            return self.single
        if self.lut is not None:
            ent = self.lut[br.peek(self.lut_bits)]
            if ent == 0:
                raise ValueError("bad VP8L prefix code")
            br.consume(ent >> 16)
            return ent & 0xFFFF
        code, ln = 0, 0
        m = self.map
        for _ in range(16):
            code = (code << 1) | br.read(1)
            ln += 1
            sym = m.get((ln, code))
            if sym is not None:
                return sym
        raise ValueError("bad VP8L prefix code")


def _read_prefix_code(br: _LsbReader, alphabet_size: int) -> _Prefix:
    """Spec §"Prefix code": simple (1-2 symbols) or normal (RLE-coded
    code lengths via the 19-symbol code-length code)."""
    if br.read(1):  # simple
        num_symbols = br.read(1) + 1
        if br.read(1):  # first symbol is 8 bits
            sym0 = br.read(8)
        else:
            sym0 = br.read(1)
        lengths = [0] * alphabet_size
        if num_symbols == 1:
            lengths[sym0] = 1  # single-symbol: zero bits at decode
        else:
            sym1 = br.read(8)
            lengths[sym0] = 1
            lengths[sym1] = 1
        return _Prefix(lengths)
    num_clc = 4 + br.read(4)
    clc_lengths = [0] * 19
    for i in range(num_clc):
        clc_lengths[_CLC_ORDER[i]] = br.read(3)
    clc = _Prefix(clc_lengths)
    # optional limit on the number of coded symbols
    if br.read(1):
        length_nbits = 2 + 2 * br.read(3)
        max_symbol = 2 + br.read(length_nbits)
    else:
        max_symbol = alphabet_size
    lengths = [0] * alphabet_size
    prev_len = 8
    i = 0
    while i < alphabet_size and max_symbol > 0:
        max_symbol -= 1
        s = clc.decode(br)
        if s < 16:
            lengths[i] = s
            i += 1
            if s:
                prev_len = s
        elif s == 16:
            for _ in range(3 + br.read(2)):
                if i < alphabet_size:
                    lengths[i] = prev_len
                    i += 1
        elif s == 17:
            i += 3 + br.read(3)
        else:  # 18
            i += 11 + br.read(7)
    return _Prefix(lengths)


def _decode_entropy_coded_image(br: _LsbReader, w: int, h: int,
                                cache_bits: int,
                                meta: np.ndarray | None,
                                meta_bits: int,
                                groups: list[list[_Prefix]]) -> np.ndarray:
    """Core pixel decode loop → (h*w,) uint32 ARGB array.

    The per-symbol work is fully inlined: bit-reader state (acc/nbits/
    byte pos) lives in locals, each prefix code's LUT is pre-resolved
    to a tuple, and pixels accumulate in a SMALL Python list chunk
    (per-element numpy stores cost ~10x a list store) that is flushed
    into a preallocated uint32 array every 64k pixels — boxed-int peak
    memory stays ~2.5 MB regardless of image size instead of ~40 B per
    pixel for the whole frame (a 64-megapixel image would otherwise
    hold ~2.5 GB of Python ints). LZ77 back-references into flushed
    history read from the numpy array. Semantics are identical to the
    readable reference loop this replaced — the differential suite
    pins bit-exactness against libwebp."""
    n = w * h
    out_np = np.empty(n, dtype=np.uint32)
    buf: list = []  # pixels since the last flush; pos == base + len(buf)
    base = 0
    _CHUNK = 1 << 16

    def _flush():
        nonlocal base
        out_np[base:base + len(buf)] = buf
        base += len(buf)
        buf.clear()
    cache = [0] * (1 << cache_bits) if cache_bits else None
    cache_mul = 0x1E35A7BD
    cache_shift = 32 - cache_bits if cache_bits else 0
    pos = 0
    green_extra = 24 + (1 << cache_bits if cache_bits else 0)
    green_limit = 256 + green_extra

    # detach reader state into locals (synced back before returning —
    # callers keep reading the stream after this image)
    data = br.data
    ndata = len(data)
    bpos = br.pos
    acc = br.acc
    nbits = br.nbits

    # (single, lut, lut_bits, mask, map) per prefix code per group
    gtabs = [
        tuple(
            (p.single, p.lut, getattr(p, "lut_bits", 0),
             (1 << p.lut_bits) - 1 if p.lut is not None else 0, p.map)
            for p in g
        )
        for g in groups
    ]
    tab = gtabs[0]
    if meta is not None:
        meta_l = meta.tolist() if hasattr(meta, "tolist") else list(meta)
        mrow = (w + (1 << meta_bits) - 1) >> meta_bits

    def _sym(t):
        # one prefix-coded symbol (single-symbol or LUT codes only;
        # callers route >12-bit-map codes through _sym_slow). Mirrors
        # _Prefix.decode bit for bit, including the zero-padded peek
        # past stream end and the truncation check on consume.
        nonlocal bpos, acc, nbits
        single, lut, lut_bits, mask, _cmap = t
        if single is not None:
            return single
        while nbits < lut_bits and bpos < ndata:
            acc |= data[bpos] << nbits
            bpos += 1
            nbits += 8
        ent = lut[acc & mask]
        if ent == 0:
            raise ValueError("bad VP8L prefix code")
        ln = ent >> 16
        if ln > nbits:
            raise ValueError("truncated VP8L stream")
        acc >>= ln
        nbits -= ln
        return ent & 0xFFFF

    # rare >12-bit codes: the original object method with reader
    # state synced both ways
    def _sym_slow(p):
        nonlocal bpos, acc, nbits
        br.pos, br.acc, br.nbits = bpos, acc, nbits
        s = p.decode(br)
        bpos, acc, nbits = br.pos, br.acc, br.nbits
        return s

    def _extra(nb):
        nonlocal bpos, acc, nbits
        while nbits < nb:
            if bpos >= ndata:
                raise ValueError("truncated VP8L stream")
            acc |= data[bpos] << nbits
            bpos += 1
            nbits += 8
        v = acc & ((1 << nb) - 1)
        acc >>= nb
        nbits -= nb
        return v

    while pos < n:
        if len(buf) >= _CHUNK:
            _flush()
        if meta is not None:
            g_i = meta_l[(pos // w >> meta_bits) * mrow
                         + ((pos % w) >> meta_bits)]
            tab = gtabs[g_i]
            grp = groups[g_i]
        else:
            grp = groups[0]
        t0 = tab[0]
        s = _sym(t0) if (t0[0] is not None or t0[1] is not None) \
            else _sym_slow(grp[0])
        if s < 256:
            t1, t2, t3 = tab[1], tab[2], tab[3]
            red = _sym(t1) if (t1[0] is not None or t1[1] is not None) \
                else _sym_slow(grp[1])
            blue = _sym(t2) if (t2[0] is not None or t2[1] is not None) \
                else _sym_slow(grp[2])
            alpha = _sym(t3) if (t3[0] is not None or t3[1] is not None) \
                else _sym_slow(grp[3])
            px = (alpha << 24) | (red << 16) | (s << 8) | blue
            buf.append(px)
            if cache is not None:
                cache[((cache_mul * px) & 0xFFFFFFFF) >> cache_shift] = px
            pos += 1
        elif s < 256 + 24:
            lcode = s - 256
            length = (lcode + 1 if lcode < 4 else
                      ((2 + (lcode & 1)) << ((lcode - 2) >> 1))
                      + _extra((lcode - 2) >> 1) + 1)
            t4 = tab[4]
            dcode = _sym(t4) if (t4[0] is not None or t4[1] is not None) \
                else _sym_slow(grp[4])
            dist_code = (dcode + 1 if dcode < 4 else
                         ((2 + (dcode & 1)) << ((dcode - 2) >> 1))
                         + _extra((dcode - 2) >> 1) + 1)
            if dist_code <= 120:
                dx, dy = _DIST_MAP[dist_code - 1]
                dist = dy * w + dx
                if dist < 1:
                    dist = 1
            else:
                dist = dist_code - 120
            if dist > pos or pos + length > n:
                raise ValueError("bad VP8L backward reference")
            if cache is None and dist >= length:
                # non-overlapping copy: source fully behind pos (may
                # span the flushed array / live chunk boundary)
                src = pos - dist
                if src >= base:
                    seg = buf[src - base:src - base + length]
                elif src + length <= base:
                    seg = out_np[src:src + length].tolist()
                else:
                    seg = out_np[src:base].tolist() + buf[:src + length - base]
                buf.extend(seg)
                pos += length
            elif cache is None:
                for _ in range(length):
                    i = pos - dist
                    buf.append(buf[i - base] if i >= base
                               else int(out_np[i]))
                    pos += 1
            else:
                for _ in range(length):
                    i = pos - dist
                    px = buf[i - base] if i >= base else int(out_np[i])
                    buf.append(px)
                    cache[((cache_mul * px) & 0xFFFFFFFF)
                          >> cache_shift] = px
                    pos += 1
        else:
            if cache is None:
                raise ValueError("cache hit without color cache")
            buf.append(cache[s - 256 - 24])
            pos += 1
        if s >= green_limit:
            raise ValueError("bad VP8L green symbol")
    br.pos, br.acc, br.nbits = bpos, acc, nbits
    _flush()
    return out_np


def _read_groups(br: _LsbReader, cache_bits: int,
                 n_groups: int) -> list[list[_Prefix]]:
    green_alpha = 256 + 24 + (1 << cache_bits if cache_bits else 0)
    sizes = [green_alpha, 256, 256, 256, 40]
    return [[_read_prefix_code(br, sz) for sz in sizes]
            for _ in range(n_groups)]


def _decode_subimage(br: _LsbReader, w: int, h: int) -> np.ndarray:
    """Transform/entropy sub-images: an entropy-coded image with its
    own optional color cache, no transforms, no meta-prefix."""
    cache_bits = br.read(4) if br.read(1) else 0
    groups = _read_groups(br, cache_bits, 1)
    return _decode_entropy_coded_image(br, w, h, cache_bits, None, 0, groups)


def _sub_dims(size: int, bits: int) -> int:
    return (size + (1 << bits) - 1) >> bits


def _avg2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.uint16) + b.astype(np.uint16)) >> 1


def _apply_predictor(argb: np.ndarray, w: int, h: int,
                     pred_img: np.ndarray, bits: int) -> None:
    """Inverse predictor transform, in place over the (h, w, 4) byte
    view [A, R, G, B] — row-sequential (each pixel depends on decoded
    neighbors)."""
    pw = _sub_dims(w, bits)
    px = argb  # (h, w, 4) uint8
    acc = px.astype(np.int32)
    for y in range(h):
        for x in range(w):
            if x == 0 and y == 0:
                pred = np.array([255, 0, 0, 0], np.int32)
            elif y == 0:
                pred = acc[0, x - 1]
            elif x == 0:
                pred = acc[y - 1, 0]
            else:
                mode = (int(pred_img[(y >> bits) * pw + (x >> bits)]) >> 8) & 0xFF
                L = acc[y, x - 1]
                T = acc[y - 1, x]
                TL = acc[y - 1, x - 1]
                # last column: top[x+1] in contiguous memory is the
                # CURRENT row's first (already decoded) pixel — the
                # layout artifact libwebp's row pointers rely on
                TR = acc[y - 1, x + 1] if x + 1 < w else acc[y, 0]
                if mode == 0:
                    pred = np.array([255, 0, 0, 0], np.int32)
                elif mode == 1:
                    pred = L
                elif mode == 2:
                    pred = T
                elif mode == 3:
                    pred = TR
                elif mode == 4:
                    pred = TL
                elif mode == 5:
                    pred = (((L + TR) >> 1) + T) >> 1
                elif mode == 6:
                    pred = (L + TL) >> 1
                elif mode == 7:
                    pred = (L + T) >> 1
                elif mode == 8:
                    pred = (TL + T) >> 1
                elif mode == 9:
                    pred = (T + TR) >> 1
                elif mode == 10:
                    pred = (((L + TL) >> 1) + ((T + TR) >> 1)) >> 1
                elif mode == 11:  # Select (libwebp: T if Σ|L-TL|≤Σ|T-TL|)
                    pl = int(np.abs(L - TL).sum())
                    pt = int(np.abs(T - TL).sum())
                    pred = T if pl <= pt else L
                elif mode == 12:  # ClampAddSubtractFull
                    pred = np.clip(L + T - TL, 0, 255)
                elif mode == 13:  # ClampAddSubtractHalf
                    a2 = (L + T) >> 1
                    # C division truncates toward zero, not floor
                    half = np.trunc((a2 - TL) / 2).astype(np.int32)
                    pred = np.clip(a2 + half, 0, 255)
                else:
                    raise ValueError("bad predictor mode")
            acc[y, x] = (acc[y, x] + pred) & 0xFF
    px[:] = acc.astype(np.uint8)


def _ct_delta(t: int, c: int) -> int:
    t = t - 256 if t >= 128 else t
    c = c - 256 if c >= 128 else c
    return (t * c) >> 5


def _apply_color_transform(argb: np.ndarray, w: int, h: int,
                           ct_img: np.ndarray, bits: int) -> None:
    """Inverse cross-color transform in place (spec: green_to_red in
    the blue byte, green_to_blue in the green byte, red_to_blue in the
    red byte of the transform pixel)."""
    pw = _sub_dims(w, bits)
    for y in range(h):
        for x in range(w):
            cte = int(ct_img[(y >> bits) * pw + (x >> bits)])
            g2r = cte & 0xFF
            g2b = (cte >> 8) & 0xFF
            r2b = (cte >> 16) & 0xFF
            a, r, g, b = argb[y, x]
            r = (int(r) + _ct_delta(g2r, int(g))) & 0xFF
            b = (int(b) + _ct_delta(g2b, int(g))) & 0xFF
            b = (b + _ct_delta(r2b, r)) & 0xFF
            argb[y, x] = (a, r, g, b)


def vp8l_decode_stream(data: bytes, max_pixels: int = 64_000_000
                       ) -> np.ndarray:
    """Decode a VP8L chunk payload → (h, w, 4) uint8 [A, R, G, B]."""
    if not data or data[0] != 0x2F:
        raise ValueError("not a VP8L stream")
    br = _LsbReader(data[1:])
    w = br.read(14) + 1
    h = br.read(14) + 1
    br.read(1)  # alpha-is-used hint
    if br.read(3) != 0:
        raise ValueError("unknown VP8L version")
    if w * h > max_pixels:
        raise MemoryError(f"decompression bomb: {w}x{h}")

    # transforms (at most one of each kind, applied inverse in reverse)
    transforms: list[tuple] = []
    dec_w = w
    while br.read(1):
        ttype = br.read(2)
        if ttype == 0:  # PREDICTOR
            bits = 2 + br.read(3)
            sub = _decode_subimage(br, _sub_dims(dec_w, bits),
                                   _sub_dims(h, bits))
            transforms.append(("pred", bits, sub))
        elif ttype == 1:  # COLOR
            bits = 2 + br.read(3)
            sub = _decode_subimage(br, _sub_dims(dec_w, bits),
                                   _sub_dims(h, bits))
            transforms.append(("color", bits, sub))
        elif ttype == 2:  # SUBTRACT_GREEN
            transforms.append(("subg",))
        else:  # COLOR_INDEXING
            n_colors = br.read(8) + 1
            pal = _decode_subimage(br, n_colors, 1)
            # palette entries are delta-coded componentwise
            acc = np.zeros(4, np.uint16)
            view = np.zeros((n_colors, 4), np.uint8)
            for i in range(n_colors):
                v = int(pal[i])
                comp = np.array([(v >> 24) & 0xFF, (v >> 16) & 0xFF,
                                 (v >> 8) & 0xFF, v & 0xFF], np.uint16)
                acc = (acc + comp) & 0xFF
                view[i] = acc.astype(np.uint8)
            if n_colors <= 2:
                pack_bits = 3
            elif n_colors <= 4:
                pack_bits = 2
            elif n_colors <= 16:
                pack_bits = 1
            else:
                pack_bits = 0
            transforms.append(("palette", view, pack_bits, dec_w))
            dec_w = _sub_dims(dec_w, pack_bits)

    # color cache, then optional meta-prefix (entropy) image — the
    # libwebp DecodeImageStream order
    cache_bits = br.read(4) if br.read(1) else 0
    meta = None
    meta_bits = 0
    n_groups = 1
    if br.read(1):
        meta_bits = br.read(3) + 2
        mw = _sub_dims(dec_w, meta_bits)
        mh = _sub_dims(h, meta_bits)
        meta_img = _decode_subimage(br, mw, mh)
        # meta group index = (red << 8) | green of the entropy pixel
        meta = ((meta_img >> 8) & np.uint32(0xFFFF)).astype(np.int64)
        n_groups = int(meta.max(initial=0)) + 1
    groups = _read_groups(br, cache_bits, n_groups)
    argb_flat = _decode_entropy_coded_image(
        br, dec_w, h, cache_bits, meta, meta_bits, groups
    )

    # bytes view [A, R, G, B]
    cur_w = dec_w
    img = np.zeros((h, cur_w, 4), np.uint8)
    img[:, :, 0] = (argb_flat >> 24).reshape(h, cur_w).astype(np.uint8)
    img[:, :, 1] = ((argb_flat >> 16) & 0xFF).reshape(h, cur_w).astype(np.uint8)
    img[:, :, 2] = ((argb_flat >> 8) & 0xFF).reshape(h, cur_w).astype(np.uint8)
    img[:, :, 3] = (argb_flat & 0xFF).reshape(h, cur_w).astype(np.uint8)

    for t in reversed(transforms):
        if t[0] == "subg":
            g = img[:, :, 2].astype(np.uint16)
            img[:, :, 1] = ((img[:, :, 1] + g) & 0xFF).astype(np.uint8)
            img[:, :, 3] = ((img[:, :, 3] + g) & 0xFF).astype(np.uint8)
        elif t[0] == "pred":
            _apply_predictor(img, cur_w, h, t[2], t[1])
        elif t[0] == "color":
            _apply_color_transform(img, cur_w, h, t[2], t[1])
        else:  # palette
            _, view, pack_bits, full_w = t
            if pack_bits == 0:
                idx = img[:, :, 2].astype(np.int32)
            else:
                per = 1 << pack_bits   # pixels bundled per green byte
                bitw = 8 >> pack_bits  # bits per bundled pixel
                packed = img[:, :, 2]
                cols = []
                for i in range(per):
                    cols.append((packed >> (i * bitw)) & ((1 << bitw) - 1))
                idx = np.stack(cols, axis=2).reshape(h, -1)[:, :full_w]
                idx = idx.astype(np.int32)
            if int(idx.max(initial=0)) >= len(view):
                raise ValueError("palette index out of range")
            img = view[idx]  # (h, full_w, 4) in ARGB byte order
            cur_w = full_w
    return img


def _flatten_rgb(argb_img: np.ndarray) -> np.ndarray:
    """[A, R, G, B] bytes → (h, w, 3) RGB flattened over white."""
    a = argb_img[:, :, 0].astype(np.float64) / 255.0
    rgb = argb_img[:, :, 1:4].astype(np.float64)
    out = rgb * a[..., None] + 255.0 * (1 - a[..., None])
    return np.clip(out.round(), 0, 255).astype(np.uint8)


def webp_decode(data: bytes, max_pixels: int = 64_000_000) -> np.ndarray:
    """RIFF container walk → decode a VP8L (lossless) or ``VP8 ``
    (lossy keyframe, :mod:`.vp8`) payload → (h, w, 3) RGB."""
    if len(data) < 16 or data[:4] != b"RIFF" or data[8:12] != b"WEBP":
        raise ValueError("not a WebP file")
    pos = 12
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload = data[pos + 8 : pos + 8 + size]
        if tag == b"VP8L":
            return _flatten_rgb(vp8l_decode_stream(payload, max_pixels))
        if tag == b"VP8 ":
            from .vp8 import vp8_decode

            return vp8_decode(payload, max_pixels=max_pixels)
        if tag == b"ANMF":
            # animated WebP: snapshot the first frame, flattened —
            # the crawler's still-image convention (same as GIF)
            frames, _ = webp_decode_frames(data, max_pixels, max_frames=1)
            return frames[0]
        pos += 8 + size + (size & 1)  # chunks are 2-byte aligned
    raise ValueError("no decodable WebP chunk found")


# ------------------------------------------------------------- encoder

class _LsbWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, n: int) -> None:
        self.acc |= (value & ((1 << n) - 1)) << self.nbits
        self.nbits += n
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def flush(self) -> bytes:
        if self.nbits:
            self.out.append(self.acc & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.out)


def _huff_lengths(freqs: dict[int, int], alphabet_size: int,
                  cap: int) -> list[int]:
    """Huffman code lengths from frequencies, limited to ``cap`` bits
    (zlib-style overflow fix: demote over-long codes, then repair the
    Kraft sum by lengthening the deepest short codes)."""
    import heapq

    syms = [s for s, f in freqs.items() if f > 0]
    lengths = [0] * alphabet_size
    if not syms:
        raise ValueError("no symbols")
    if len(syms) == 1:
        lengths[syms[0]] = 1
        return lengths
    heap = [(f, i, (s,)) for i, (s, f) in enumerate(sorted(freqs.items()))
            if f > 0]
    heapq.heapify(heap)
    i = len(heap)
    while len(heap) > 1:
        f1, _, s1 = heapq.heappop(heap)
        f2, _, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            lengths[s] += 1
        heapq.heappush(heap, (f1 + f2, i, s1 + s2))
        i += 1
    # cap: clamp and repair Kraft
    over = [s for s in syms if lengths[s] > cap]
    for s in over:
        lengths[s] = cap
    kraft = sum(1 / (1 << lengths[s]) for s in syms)
    # lengthen the shallowest codes until the code is feasible
    while kraft > 1.0 + 1e-12:
        s = min((x for x in syms if lengths[x] < cap),
                key=lambda x: lengths[x])
        kraft -= 1 / (1 << lengths[s])
        lengths[s] += 1
        kraft += 1 / (1 << lengths[s])
    return lengths


def _enc_table(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """Canonical (code, length) per symbol — encoder twin of _Prefix."""
    nz = sorted((ln, sym) for sym, ln in enumerate(lengths) if ln > 0)
    if len(nz) == 1:
        return {nz[0][1]: (0, 0)}  # single-symbol: zero bits on the wire
    bl_count: dict[int, int] = {}
    for ln, _ in nz:
        bl_count[ln] = bl_count.get(ln, 0) + 1
    next_code: dict[int, int] = {}
    code = 0
    for ln in range(1, max(bl_count) + 1):
        code = (code + bl_count.get(ln - 1, 0)) << 1
        next_code[ln] = code
    out: dict[int, tuple[int, int]] = {}
    for ln, sym in nz:
        out[sym] = (next_code[ln], ln)
        next_code[ln] += 1
    return out


def _write_rev(bw: _LsbWriter, code: int, ln: int) -> None:
    """Huffman codes are read MSB-first from the LSB-first stream."""
    for i in range(ln - 1, -1, -1):
        bw.write((code >> i) & 1, 1)


def _rev_tables(enc: dict[int, tuple[int, int]], size: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol (wire-order value, bit length) arrays for vectorized
    packing: the wire value is the bit-reversed canonical code."""
    vals = np.zeros(size, dtype=np.int64)
    lens = np.zeros(size, dtype=np.int64)
    for sym, (code, ln) in enc.items():
        vals[sym] = int(f"{code:0{ln}b}"[::-1], 2) if ln else 0
        lens[sym] = ln
    return vals, lens


def _pack_symbols(bw: _LsbWriter, vals: np.ndarray,
                  lens: np.ndarray) -> None:
    """Append many variable-length little-endian bit fields to the
    writer in one vectorized pass (bit j of vals[i] lands at global
    position start[i] + j) — replaces a per-pixel Python write loop
    that dominated corpus build time."""
    keep = lens > 0
    vals, lens = vals[keep], lens[keep]
    if len(vals) == 0:
        return
    base = bw.nbits
    starts = base + np.concatenate(
        [np.zeros(1, np.int64), np.cumsum(lens[:-1])]
    )
    total = int(base + lens.sum())
    bits = np.zeros(((total + 7) // 8) * 8, dtype=np.uint8)
    for j in range(base):
        bits[j] = (bw.acc >> j) & 1
    for j in range(int(lens.max())):
        m = lens > j
        bits[starts[m] + j] = (vals[m] >> j) & 1
    packed = np.packbits(bits.reshape(-1, 8), axis=1,
                         bitorder="little").reshape(-1)
    full = total // 8
    bw.out.extend(packed[:full].tobytes())
    rem = total - full * 8
    bw.acc = 0
    for j in range(rem):
        bw.acc |= int(bits[full * 8 + j]) << j
    bw.nbits = rem


def _write_prefix_code(bw: _LsbWriter, lengths: list[int]) -> None:
    """Emit a prefix code in normal (code-length-coded) form; lengths
    are sent as plain clc literals (no RLE) under a Huffman-coded
    code-length code, trailing zeros cut via clc symbol 18 runs."""
    nz = [sym for sym, ln in enumerate(lengths) if ln > 0]
    if len(nz) <= 2 and all(s < 256 for s in nz):
        # simple form
        bw.write(1, 1)
        bw.write(len(nz) - 1, 1)
        if nz[0] >= 2:
            bw.write(1, 1)
            bw.write(nz[0], 8)
        else:
            bw.write(0, 1)
            bw.write(nz[0], 1)
        if len(nz) == 2:
            bw.write(nz[1], 8)
        return
    bw.write(0, 1)
    last = max(nz)
    body = lengths[: last + 1]
    tail_zeros = len(lengths) - (last + 1)
    clc_freq: dict[int, int] = {}
    for ln in body:
        clc_freq[ln] = clc_freq.get(ln, 0) + 1
    runs_18, rem = divmod(tail_zeros, 138)
    if rem and rem < 11:
        # pad: emit remainder as literal zeros instead
        clc_freq[0] = clc_freq.get(0, 0) + rem
        rem = 0
    if runs_18 or rem:
        clc_freq[18] = clc_freq.get(18, 0) + runs_18 + (1 if rem else 0)
    clc_lengths = _huff_lengths(clc_freq, 19, 7)
    bw.write(19 - 4, 4)
    for i in range(19):
        bw.write(clc_lengths[_CLC_ORDER[i]], 3)
    clc_enc = _enc_table(clc_lengths)
    bw.write(0, 1)  # no max_symbol shortcut
    for ln in body:
        c, cl = clc_enc[ln]
        _write_rev(bw, c, cl)
    emitted_zeros = 0
    for _ in range(runs_18):
        c, cl = clc_enc[18]
        _write_rev(bw, c, cl)
        bw.write(138 - 11, 7)
        emitted_zeros += 138
    if rem >= 11:
        c, cl = clc_enc[18]
        _write_rev(bw, c, cl)
        bw.write(rem - 11, 7)
    elif tail_zeros - emitted_zeros > 0:
        left = tail_zeros - emitted_zeros
        c, cl = clc_enc[0]
        for _ in range(left):
            _write_rev(bw, c, cl)


def vp8l_encode(pixels: np.ndarray, cache_bits: int = 0) -> bytes:
    """Encode (h, w, 3|4) uint8 RGB(A) → a WebP file with one VP8L
    chunk: subtract-green transform, per-channel canonical Huffman
    codes built from the image's actual symbol frequencies, optional
    color cache (``cache_bits`` in 1..6 — cache-hit symbols exercise
    the decoder's cache path), single-symbol distance code. Lossless."""
    if pixels.ndim != 3 or pixels.shape[2] not in (3, 4) or \
            pixels.dtype != np.uint8:
        raise ValueError("expected (h, w, 3|4) uint8 array")
    if not 0 <= cache_bits <= 6:
        raise ValueError("cache_bits must be 0..6")
    h, w = pixels.shape[:2]
    if not (0 < w <= 1 << 14 and 0 < h <= 1 << 14):
        raise ValueError("dimensions out of VP8L range")
    r = pixels[:, :, 0].astype(np.int32)
    g = pixels[:, :, 1].astype(np.int32)
    b = pixels[:, :, 2].astype(np.int32)
    a = (pixels[:, :, 3].astype(np.int32) if pixels.shape[2] == 4
         else np.full((h, w), 255, np.int32))
    rs = (r - g) & 0xFF  # subtract-green (decoder adds it back)
    bs = (b - g) & 0xFF
    gf, rf, bf, af = (g.reshape(-1), rs.reshape(-1), bs.reshape(-1),
                      a.reshape(-1))
    argb = ((a.reshape(-1).astype(np.uint32) << 24)
            | (rs.reshape(-1).astype(np.uint32) << 16)
            | (g.reshape(-1).astype(np.uint32) << 8)
            | bs.reshape(-1).astype(np.uint32))

    # plan the symbol stream (literal vs cache hit) + frequencies
    n = h * w
    cache_size = (1 << cache_bits) if cache_bits else 0
    green_size = 256 + 24 + cache_size
    plan = np.zeros(n, dtype=np.int32)  # -1 = literal, else cache idx
    plan[:] = -1
    if cache_bits:
        cache = [None] * cache_size
        mul = 0x1E35A7BD
        for i in range(n):
            px = int(argb[i])
            key = ((mul * px) & 0xFFFFFFFF) >> (32 - cache_bits)
            if cache[key] == px:
                plan[i] = key
            else:
                cache[key] = px
    lit_mask = plan < 0
    gsyms = np.where(lit_mask, gf, 256 + 24 + plan.astype(np.int64))
    gcnt = np.bincount(gsyms, minlength=green_size)
    gfreq = {int(s): int(c) for s, c in enumerate(gcnt) if c}
    rcnt = np.bincount(rf[lit_mask], minlength=256)
    bcnt = np.bincount(bf[lit_mask], minlength=256)
    acnt = np.bincount(af[lit_mask], minlength=256)
    rfreq = {int(s): int(c) for s, c in enumerate(rcnt) if c}
    bfreq = {int(s): int(c) for s, c in enumerate(bcnt) if c}
    afreq = {int(s): int(c) for s, c in enumerate(acnt) if c}
    g_len = _huff_lengths(gfreq, green_size, 15)
    r_len = _huff_lengths(rfreq or {0: 1}, 256, 15)
    b_len = _huff_lengths(bfreq or {0: 1}, 256, 15)
    a_len = _huff_lengths(afreq or {0: 1}, 256, 15)

    bw = _LsbWriter()
    bw.write(0x2F, 8)
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(1 if pixels.shape[2] == 4 else 0, 1)
    bw.write(0, 3)  # version
    bw.write(1, 1)  # a transform follows
    bw.write(2, 2)  # SUBTRACT_GREEN
    bw.write(0, 1)  # no more transforms
    if cache_bits:
        bw.write(1, 1)
        bw.write(cache_bits, 4)
    else:
        bw.write(0, 1)
    bw.write(0, 1)  # no meta-prefix image
    _write_prefix_code(bw, g_len)
    _write_prefix_code(bw, r_len)
    _write_prefix_code(bw, b_len)
    _write_prefix_code(bw, a_len)
    dist_len = [0] * 40
    dist_len[0] = 1
    _write_prefix_code(bw, dist_len)  # unused single-symbol code
    g_enc, r_enc, b_enc, a_enc = (_enc_table(g_len), _enc_table(r_len),
                                  _enc_table(b_len), _enc_table(a_len))
    gv, gl = _rev_tables(g_enc, green_size)
    rv, rl = _rev_tables(r_enc, 256)
    bv, bl2 = _rev_tables(b_enc, 256)
    av, al2 = _rev_tables(a_enc, 256)
    lit = plan < 0
    sym_vals = np.zeros((n, 4), dtype=np.int64)
    sym_lens = np.zeros((n, 4), dtype=np.int64)
    # literal pixels: green, red, blue, alpha codes in order
    sym_vals[lit, 0] = gv[gf[lit]]
    sym_lens[lit, 0] = gl[gf[lit]]
    sym_vals[lit, 1] = rv[rf[lit]]
    sym_lens[lit, 1] = rl[rf[lit]]
    sym_vals[lit, 2] = bv[bf[lit]]
    sym_lens[lit, 2] = bl2[bf[lit]]
    sym_vals[lit, 3] = av[af[lit]]
    sym_lens[lit, 3] = al2[af[lit]]
    hit = ~lit
    if hit.any():
        cache_syms = 256 + 24 + plan[hit].astype(np.int64)
        sym_vals[hit, 0] = gv[cache_syms]
        sym_lens[hit, 0] = gl[cache_syms]
    _pack_symbols(bw, sym_vals.reshape(-1), sym_lens.reshape(-1))
    payload = bw.flush()
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


# -------------------------------------------------- animation (VP8X/ANIM)

def _u24(data: bytes, pos: int) -> int:
    return data[pos] | (data[pos + 1] << 8) | (data[pos + 2] << 16)


def _blend_over(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Porter-Duff src-OVER-dst on straight-alpha RGBA uint8 rects
    (the WebP spec's alpha-blending formula)."""
    sa = src[..., 3:4].astype(np.float64) / 255.0
    da = dst[..., 3:4].astype(np.float64) / 255.0
    oa = sa + da * (1.0 - sa)
    rgb = (src[..., :3].astype(np.float64) * sa
           + dst[..., :3].astype(np.float64) * da * (1.0 - sa))
    safe = np.where(oa == 0.0, 1.0, oa)
    out = np.empty_like(dst)
    out[..., :3] = np.clip((rgb / safe).round(), 0, 255).astype(np.uint8)
    out[..., 3:4] = np.clip((oa * 255.0).round(), 0, 255).astype(np.uint8)
    out[..., :3][oa[..., 0] == 0.0] = 0
    return out


def webp_decode_frames(data: bytes, max_pixels: int = 64_000_000,
                       max_frames: int = 1024
                       ) -> tuple[list[np.ndarray], list[int]]:
    """Decode an ANIMATED WebP (VP8X + ANIM + ANMF chunks) into its
    composited RGB frames — each ANMF rect is decoded with the
    bit-exact VP8L / VP8-keyframe decoders in this package, placed on
    the RGBA canvas with the frame's blending mode (alpha-blend or
    overwrite), snapshotted flattened over white (the imaging layer's
    convention), then disposed (none / to-background-color). Returns
    (frames, per-frame durations in ms). A non-animated WebP yields
    its single image with duration 0. ANMF frames carrying a separate
    ALPH plane (lossy+alpha) are rejected — VP8L frames carry alpha
    in-stream and are fully supported."""
    if len(data) < 16 or data[:4] != b"RIFF" or data[8:12] != b"WEBP":
        raise ValueError("not a WebP file")
    pos = 12
    canvas_w = canvas_h = None
    bg_rgba = np.array([255, 255, 255, 0], np.uint8)
    anmf: list[bytes] = []
    animated = False
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload = data[pos + 8 : pos + 8 + size]
        if tag == b"VP8X" and len(payload) >= 10:
            animated = bool(payload[0] & 0x02)
            canvas_w = _u24(payload, 4) + 1
            canvas_h = _u24(payload, 7) + 1
        elif tag == b"ANIM" and len(payload) >= 6:
            b_, g_, r_, a_ = payload[0], payload[1], payload[2], payload[3]
            bg_rgba = np.array([r_, g_, b_, a_], np.uint8)
        elif tag == b"ANMF":
            anmf.append(payload)
        pos += 8 + size + (size & 1)
    if not (animated and anmf):
        if anmf:
            # webp_decode routes ANMF files here; recursing back would
            # loop forever on this malformed (ANMF without animated
            # VP8X) shape, so reject it outright.
            raise ValueError("ANMF chunk without an animated VP8X header")
        return [webp_decode(data, max_pixels)], [0]
    if canvas_w is None or canvas_w * canvas_h > max_pixels:
        raise ValueError("animated WebP without a valid VP8X canvas")
    canvas = np.empty((canvas_h, canvas_w, 4), np.uint8)
    canvas[:] = bg_rgba
    frames: list[np.ndarray] = []
    durations: list[int] = []
    for payload in anmf[:max_frames]:
        if len(payload) < 16:
            raise ValueError("short ANMF chunk")
        fx = _u24(payload, 0) * 2
        fy = _u24(payload, 3) * 2
        fw = _u24(payload, 6) + 1
        fh = _u24(payload, 9) + 1
        dur = _u24(payload, 12)
        flags = payload[15]
        if fx + fw > canvas_w or fy + fh > canvas_h:
            raise ValueError("ANMF frame rect outside canvas")
        # frame data: sub-chunks after the 16-byte header
        fpos = 16
        rgba = None
        while fpos + 8 <= len(payload):
            ftag = payload[fpos : fpos + 4]
            (fsize,) = struct.unpack_from("<I", payload, fpos + 4)
            body = payload[fpos + 8 : fpos + 8 + fsize]
            if ftag == b"ALPH":
                raise ValueError("ANMF with separate ALPH plane "
                                 "unsupported (use VP8L alpha)")
            if ftag == b"VP8L":
                argb = vp8l_decode_stream(body, max_pixels)
                rgba = argb[:, :, [1, 2, 3, 0]]
                break
            if ftag == b"VP8 ":
                from .vp8 import vp8_decode

                rgb = vp8_decode(body, max_pixels=max_pixels)
                rgba = np.dstack(
                    [rgb, np.full(rgb.shape[:2], 255, np.uint8)])
                break
            fpos += 8 + fsize + (fsize & 1)
        if rgba is None:
            raise ValueError("ANMF frame without image data")
        if rgba.shape[:2] != (fh, fw):
            raise ValueError("ANMF frame dims disagree with bitstream")
        rect = canvas[fy : fy + fh, fx : fx + fw]
        if flags & 0x02:      # B=1: do not blend — overwrite the rect
            rect[:] = rgba
        else:                 # B=0: alpha-blend src over canvas
            rect[:] = _blend_over(rect, rgba)
        # snapshot flattened over white
        a = canvas[:, :, 3:4].astype(np.float64) / 255.0
        flat = (canvas[:, :, :3].astype(np.float64) * a
                + 255.0 * (1.0 - a))
        frames.append(np.clip(flat.round(), 0, 255).astype(np.uint8))
        durations.append(dur)
        if flags & 0x01:      # D=1: dispose rect to background color
            canvas[fy : fy + fh, fx : fx + fw] = bg_rgba
    return frames, durations
