"""Pure-Python FLAC encoder (RFC 9639 / xiph spec).

The corpus generator writes its ``tone.flac`` fixture with
``flac_encode``; the crawl probes it through ``functions/mediaprobe``
(STREAMINFO) and never decodes samples. The reference stores audio
without decoding it (``handle_content_type``, playwrightcrawler.py
:2741-2843).

Every stream carries the two checks the format defines: a CRC-8 on
each frame header, a CRC-16 on each frame, and the MD5 of the
interleaved PCM in STREAMINFO. The tests' decoder verifies all three
on each round trip, so it is the encoder's oracle.

The encoder is deliberately simple: fixed blocking, one Rice partition
per subframe, per-block best-of FIXED orders 0-3, and forced VERBATIM
or order-2 LPC subframes for tests; independent, left/side, right/side
and mid/side stereo; 8/12/16/20/24/32-bit samples.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["flac_encode"]


# ----------------------------------------------------------------- CRCs

def _make_crc8_table() -> list[int]:
    tbl = []
    for b in range(256):
        c = b
        for _ in range(8):
            c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 else (c << 1) & 0xFF
        tbl.append(c)
    return tbl


def _make_crc16_table() -> list[int]:
    tbl = []
    for b in range(256):
        c = b << 8
        for _ in range(8):
            c = ((c << 1) ^ 0x8005) & 0xFFFF if c & 0x8000 \
                else (c << 1) & 0xFFFF
        tbl.append(c)
    return tbl


_CRC8 = _make_crc8_table()
_CRC16 = _make_crc16_table()


def _crc8(data: bytes) -> int:
    c = 0
    for b in data:
        c = _CRC8[c ^ b]
    return c


def _crc16(data: bytes) -> int:
    c = 0
    for b in data:
        c = _CRC16[((c >> 8) ^ b) & 0xFF] ^ ((c << 8) & 0xFFFF)
    return c


# --------------------------------------------------------------- bit IO

class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int) -> None:
        if bits == 0:
            return
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def write_signed(self, value: int, bits: int) -> None:
        self.write(value & ((1 << bits) - 1), bits)

    def write_unary(self, q: int) -> None:
        while q >= 32:
            self.write(0, 32)
            q -= 32
        self.write(1, q + 1)  # q zeros then a 1

    def align(self) -> None:
        if self.nbits:
            self.write(0, 8 - self.nbits)

    def getvalue(self) -> bytes:
        assert self.nbits == 0
        return bytes(self.buf)


# ----------------------------------------------------------- MD5 helper

def _pcm_md5(samples: np.ndarray, bits: int) -> bytes:
    """MD5 over interleaved little-endian PCM, the STREAMINFO
    definition (RFC 9639 §8.3): samples zero-padded UP to whole
    bytes — 2 bytes for 12-bit, 3 for 20-bit — channels interleaved."""
    nbytes = (bits + 7) // 8
    flat = samples.reshape(-1).astype(np.int64)
    raw = bytearray()
    # two's-complement value SIGN-EXTENDED to the whole-byte width
    # (libFLAC packs the signed sample into bytes-per-sample bytes)
    arr = flat & ((1 << (8 * nbytes)) - 1)
    if nbytes == 1:
        raw = arr.astype(np.uint8).tobytes()
    elif nbytes == 2:
        raw = arr.astype("<u2").tobytes()
    elif nbytes == 3:
        b = np.empty((len(arr), 3), dtype=np.uint8)
        b[:, 0] = arr & 0xFF
        b[:, 1] = (arr >> 8) & 0xFF
        b[:, 2] = (arr >> 16) & 0xFF
        raw = b.tobytes()
    else:
        raw = arr.astype("<u4").tobytes()
    return hashlib.md5(bytes(raw)).digest()


# --------------------------------------------------------------- encode

def _rice_cost(zig: np.ndarray, p: int) -> int:
    return int(np.sum(zig >> p)) + len(zig) * (1 + p)


def _best_rice_param(res: np.ndarray, max_p: int = 14) -> int:
    zig = np.where(res >= 0, res.astype(np.int64) * 2,
                   -2 * res.astype(np.int64) - 1)
    best_p, best_c = 0, None
    for p in range(max_p + 1):
        c = _rice_cost(zig, p)
        if best_c is None or c < best_c:
            best_p, best_c = p, c
    return best_p


def _write_residual(w: _BitWriter, res: np.ndarray) -> None:
    """One Rice partition (partition order 0) — decoder-side handles
    any order."""
    p = _best_rice_param(res)
    w.write(0, 2)   # coding method 00: 4-bit Rice
    w.write(0, 4)   # partition order 0
    if p > 14:  # pragma: no cover - param capped at 14
        p = 14
    w.write(p, 4)
    for v in res.tolist():
        z = 2 * v if v >= 0 else -2 * v - 1
        w.write_unary(z >> p)
        if p:
            w.write(z & ((1 << p) - 1), p)


def _encode_subframe(w: _BitWriter, x: np.ndarray, bits: int,
                     force: str | None) -> None:
    n = len(x)
    xi = x.astype(np.int64)
    if force is None and n and np.all(xi == xi[0]):
        w.write(0, 1)
        w.write(0b000000, 6)  # CONSTANT
        w.write(0, 1)
        w.write_signed(int(xi[0]), bits)
        return
    if force == "verbatim" or n <= 4:
        w.write(0, 1)
        w.write(0b000001, 6)  # VERBATIM
        w.write(0, 1)
        for v in xi.tolist():
            w.write_signed(v, bits)
        return
    if force == "lpc":
        # order-2 LPC with quantized integer coefficients: residual is
        # exact integer arithmetic, so the path is lossless by
        # construction — decoder-LPC golden coverage
        order, prec, shift = 2, 12, 10
        coefs = [int(round(1.8 * (1 << shift))),
                 int(round(-0.85 * (1 << shift)))]
        w.write(0, 1)
        w.write(0b100000 | (order - 1), 6)  # LPC, order
        w.write(0, 1)
        for v in xi[:order].tolist():
            w.write_signed(v, bits)
        w.write(prec - 1, 4)
        w.write_signed(shift, 5)
        for c in coefs:
            w.write_signed(c, prec)
        res = []
        for i in range(order, n):
            pred = (coefs[0] * xi[i - 1] + coefs[1] * xi[i - 2]) >> shift
            res.append(int(xi[i] - pred))
        _write_residual(w, np.asarray(res, np.int64))
        return
    # best FIXED order 0-3 by absolute residual sum
    best_o, best_sum = 0, None
    for o in range(0, 4):
        r = np.diff(xi, n=o) if o else xi
        ssum = int(np.abs(r).sum())
        if best_sum is None or ssum < best_sum:
            best_o, best_sum = o, ssum
    o = best_o
    res = np.diff(xi, n=o) if o else xi
    w.write(0, 1)
    w.write(0b001000 | o, 6)  # FIXED, order o
    w.write(0, 1)
    for v in xi[:o].tolist():
        w.write_signed(v, bits)
    _write_residual(w, res if o else xi)


def _utf8_code(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    out = []
    nbytes = 2
    while n >= (1 << (nbytes * 5 + 1)) and nbytes < 7:
        nbytes += 1
    for i in range(nbytes - 1):
        out.append(0x80 | (n & 0x3F))
        n >>= 6
    lead = ((0xFF << (8 - nbytes)) & 0xFF) | n
    return bytes([lead] + out[::-1])


def flac_encode(samples: np.ndarray, rate: int = 16_000,
                bits: int = 16, block_size: int = 1024,
                stereo_mode: str = "independent",
                force_subframe: str | None = None) -> bytes:
    """PCM int samples ([n] or [n, channels]) → FLAC bytes.

    ``stereo_mode``: independent | left_side | right_side | mid_side
    (stereo input only). ``force_subframe``: None (auto FIXED) |
    'verbatim' | 'lpc' — test hooks for decoder path coverage."""
    x = np.asarray(samples)
    if x.ndim == 1:
        x = x[:, None]
    n, ch = x.shape
    if ch > 8:
        raise ValueError("FLAC supports up to 8 channels")
    lim = 1 << (bits - 1)
    if x.min() < -lim or x.max() >= lim:
        raise ValueError("samples exceed bit depth")
    xi = x.astype(np.int64)

    frames = bytearray()
    n_frames = (n + block_size - 1) // block_size
    for fi in range(n_frames):
        blk = xi[fi * block_size:(fi + 1) * block_size]
        bs = len(blk)
        hdr = _BitWriter()
        hdr.write(0b11111111111110, 14)
        hdr.write(0, 1)        # reserved
        hdr.write(0, 1)        # fixed blocking
        hdr.write(0b0111, 4)   # blocksize: 16-bit value at header end
        hdr.write(0b0000, 4)   # sample rate: from STREAMINFO
        mode = stereo_mode if ch == 2 else "independent"
        ch_code = {"independent": ch - 1, "left_side": 0b1000,
                   "right_side": 0b1001, "mid_side": 0b1010}[mode]
        hdr.write(ch_code, 4)
        size_code = {8: 0b001, 12: 0b010, 16: 0b100,
                     20: 0b101, 24: 0b110, 32: 0b111}[bits]
        hdr.write(size_code, 3)
        hdr.write(0, 1)        # reserved
        head = hdr.buf + _utf8_code(fi)
        head += struct.pack(">H", bs - 1)
        head = bytes(head)
        head += bytes([_crc8(head)])

        body = _BitWriter()
        if mode == "independent":
            subs = [(blk[:, c], bits) for c in range(ch)]
        else:
            left = blk[:, 0]
            right = blk[:, 1]
            side = left - right
            if mode == "left_side":
                subs = [(left, bits), (side, bits + 1)]
            elif mode == "right_side":
                subs = [(side, bits + 1), (right, bits)]
            else:
                mid = (left + right) >> 1
                subs = [(mid, bits), (side, bits + 1)]
        for sub, sbits in subs:
            _encode_subframe(body, sub, sbits, force_subframe)
        body.align()
        frame = head + body.getvalue()
        frame += struct.pack(">H", _crc16(frame))
        frames += frame

    si = _BitWriter()
    si.write(block_size, 16)            # min block size
    si.write(block_size, 16)            # max block size
    si.write(0, 24)                     # min frame size (unknown)
    si.write(0, 24)                     # max frame size (unknown)
    si.write(rate, 20)
    si.write(ch - 1, 3)
    si.write(bits - 1, 5)
    si.write(n, 36)
    si.align()
    streaminfo = si.getvalue() + _pcm_md5(xi, bits)
    meta = bytes([0x80]) + struct.pack(">I", len(streaminfo))[1:] \
        + streaminfo
    return b"fLaC" + meta + bytes(frames)
