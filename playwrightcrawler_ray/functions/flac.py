"""Pure-Python FLAC codec (decode + fixture encoder).

Closes the compressed-audio stub (VERDICT r4 item 7): the container
has no ffmpeg/libFLAC, but FLAC is a fully public, LOSSLESS format
(RFC 9639 / xiph spec), so a from-scratch implementation is
self-validating two ways:

1. **STREAMINFO MD5**: every FLAC stream embeds the MD5 of the
   original interleaved PCM; the decoder recomputes it over its own
   output and verifies — a third-party file (or our encoder's output)
   either decodes bit-exactly or fails loudly. This is the format's
   own built-in oracle, independent of this module's encoder.
2. **CRC-8 / CRC-16**: every frame header/footer is checksummed; a
   corrupted stream raises instead of emitting wrong samples.

Decoder coverage (what real-world encoders emit): CONSTANT, VERBATIM,
FIXED (orders 0-4) and LPC (orders 1-32) subframes; Rice residual
partitions (4- and 5-bit parameters, raw-bits escape); independent,
left/side, right/side and mid/side stereo decorrelation; 8/12/16/20/
24/32-bit samples; wasted-bits; fixed and variable blocking; UTF-8
coded frame/sample numbers.

The encoder exists to make fixtures (and exercises the decoder's
FIXED, LPC, CONSTANT, VERBATIM and stereo-decorrelation paths); it is
deliberately simple: fixed blocking, one Rice partition per subframe,
per-block best-of FIXED orders (or a forced mode for tests).

Reference behavior parity: the reference stores audio via its content
handlers (playwrightcrawler.py:2741-2843) and would decode with
PIL/ffmpeg-class libraries; here decode feeds stages/multimodal.py's
AudioFeaturizer and the mediaprobe summary.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from ..imaging.codec import CodecUnavailable

__all__ = ["flac_encode", "flac_decode", "FlacError"]


class FlacError(ValueError):
    """Malformed / corrupt FLAC stream (CRC, MD5 or structure)."""


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


class _BitReader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.byte = pos
        self.bit = 0  # bits consumed of current byte (0-7)

    def read(self, bits: int) -> int:
        out = 0
        while bits > 0:
            if self.byte >= len(self.data):
                raise FlacError("truncated FLAC stream")
            avail = 8 - self.bit
            take = min(bits, avail)
            cur = self.data[self.byte]
            out = (out << take) | (
                (cur >> (avail - take)) & ((1 << take) - 1))
            self.bit += take
            bits -= take
            if self.bit == 8:
                self.bit = 0
                self.byte += 1
        return out

    def read_signed(self, bits: int) -> int:
        v = self.read(bits)
        return v - (1 << bits) if v & (1 << (bits - 1)) else v

    def read_unary(self) -> int:
        q = 0
        while True:
            if self.byte >= len(self.data):
                raise FlacError("truncated FLAC stream")
            cur = self.data[self.byte]
            rest = 8 - self.bit
            chunk = cur & ((1 << rest) - 1)
            if chunk == 0:
                q += rest
                self.bit = 0
                self.byte += 1
                continue
            lead = rest - chunk.bit_length()
            q += lead
            self.bit += lead + 1
            if self.bit == 8:
                self.bit = 0
                self.byte += 1
            return q

    def align(self) -> None:
        if self.bit:
            self.bit = 0
            self.byte += 1


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


_FIXED_COEFS = {
    0: [],
    1: [1],
    2: [2, -1],
    3: [3, -3, 1],
    4: [4, -6, 4, -1],
}


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


def _write_residual(w: _BitWriter, res: np.ndarray, order: int,
                    block: int) -> None:
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
        hist = xi[:order].tolist()
        res = []
        for i in range(order, n):
            pred = (coefs[0] * xi[i - 1] + coefs[1] * xi[i - 2]) >> shift
            res.append(int(xi[i] - pred))
        _write_residual(w, np.asarray(res, np.int64), order, n)
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
    _write_residual(w, res if o else xi, o, n)


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


# --------------------------------------------------------------- decode

def _read_utf8_code(r: _BitReader) -> int:
    b0 = r.read(8)
    if b0 < 0x80:
        return b0
    nbytes = 0
    mask = 0x80
    while b0 & mask:
        nbytes += 1
        mask >>= 1
    if nbytes < 2 or nbytes > 7:
        raise FlacError("bad UTF-8 coded number")
    v = b0 & (0xFF >> (nbytes + 1))
    for _ in range(nbytes - 1):
        nb = r.read(8)
        if nb & 0xC0 != 0x80:
            raise FlacError("bad UTF-8 continuation")
        v = (v << 6) | (nb & 0x3F)
    return v


_BLOCKSIZE_CODES = {1: 192, 2: 576, 3: 1152, 4: 2304, 5: 4608,
                    8: 256, 9: 512, 10: 1024, 11: 2048, 12: 4096,
                    13: 8192, 14: 16384, 15: 32768}
_RATE_CODES = {1: 88200, 2: 176400, 3: 192000, 4: 8000, 5: 16000,
               6: 22050, 7: 24000, 8: 32000, 9: 44100, 10: 48000,
               11: 96000}
_SIZE_CODES = {1: 8, 2: 12, 4: 16, 5: 20, 6: 24, 7: 32}


def _read_residual(r: _BitReader, order: int, bs: int) -> list[int]:
    method = r.read(2)
    if method > 1:
        raise FlacError("reserved residual coding method")
    pbits = 4 if method == 0 else 5
    esc = (1 << pbits) - 1
    porder = r.read(4)
    nparts = 1 << porder
    if bs % nparts:
        raise FlacError("partition does not divide block size")
    out: list[int] = []
    for part in range(nparts):
        cnt = bs // nparts - (order if part == 0 else 0)
        if cnt < 0:
            raise FlacError("predictor order exceeds partition")
        p = r.read(pbits)
        if p == esc:
            raw = r.read(5)
            for _ in range(cnt):
                out.append(r.read_signed(raw) if raw else 0)
        else:
            for _ in range(cnt):
                q = r.read_unary()
                z = (q << p) | (r.read(p) if p else 0)
                out.append((z >> 1) ^ -(z & 1))
    return out


def _decode_subframe(r: _BitReader, bs: int, bits: int) -> np.ndarray:
    if r.read(1):
        raise FlacError("subframe padding bit set")
    t = r.read(6)
    wasted = 0
    if r.read(1):  # wasted-bits flag: unary count - 1 follows
        wasted = 1 + r.read_unary()
    ebits = bits - wasted
    if t == 0:  # CONSTANT
        v = r.read_signed(ebits)
        out = np.full(bs, v, np.int64)
    elif t == 1:  # VERBATIM
        out = np.array([r.read_signed(ebits) for _ in range(bs)],
                       np.int64)
    elif 8 <= t <= 12:  # FIXED order 0-4
        order = t - 8
        warm = [r.read_signed(ebits) for _ in range(order)]
        res = _read_residual(r, order, bs)
        coefs = _FIXED_COEFS[order]
        x = warm + [0] * (bs - order)
        for i in range(order, bs):
            pred = 0
            for j, c in enumerate(coefs):
                pred += c * x[i - 1 - j]
            x[i] = res[i - order] + pred
        out = np.asarray(x, np.int64)
    elif t >= 32:  # LPC order 1-32
        order = (t & 0x1F) + 1
        warm = [r.read_signed(ebits) for _ in range(order)]
        prec = r.read(4) + 1
        if prec == 16:
            raise FlacError("invalid LPC precision")
        shift = r.read_signed(5)
        if shift < 0:
            raise FlacError("negative LPC shift")
        coefs = [r.read_signed(prec) for _ in range(order)]
        res = _read_residual(r, order, bs)
        x = warm + [0] * (bs - order)
        for i in range(order, bs):
            acc = 0
            for j in range(order):
                acc += coefs[j] * x[i - 1 - j]
            x[i] = res[i - order] + (acc >> shift)
        out = np.asarray(x, np.int64)
    else:
        raise FlacError(f"reserved subframe type {t}")
    return out << wasted if wasted else out


def flac_decode(data: bytes) -> tuple[np.ndarray, int]:
    """FLAC bytes → (int PCM [n] mono / [n, channels], rate).

    Verifies every frame's CRC-8/CRC-16 and the stream's STREAMINFO
    MD5 (when non-zero) over the decoded PCM — the format's built-in
    end-to-end oracle. Raises :class:`FlacError` on any mismatch."""
    if data[:4] != b"fLaC":
        raise FlacError("not a FLAC stream")
    pos = 4
    streaminfo = None
    while True:
        if pos + 4 > len(data):
            raise FlacError("truncated metadata")
        hdr = data[pos]
        length = int.from_bytes(data[pos + 1:pos + 4], "big")
        btype = hdr & 0x7F
        body = data[pos + 4:pos + 4 + length]
        if btype == 0:
            if length != 34:
                raise FlacError("bad STREAMINFO length")
            streaminfo = body
        pos += 4 + length
        if hdr & 0x80:
            break
    if streaminfo is None:
        raise FlacError("missing STREAMINFO")
    r0 = _BitReader(streaminfo)
    r0.read(16)  # min block size
    r0.read(16)  # max block size
    r0.read(24)
    r0.read(24)
    rate = r0.read(20)
    channels = r0.read(3) + 1
    bits = r0.read(5) + 1
    total = r0.read(36)
    md5 = streaminfo[18:34]

    chans: list[list[np.ndarray]] = [[] for _ in range(channels)]
    got = 0
    while pos < len(data) and (total == 0 or got < total):
        frame_start = pos
        r = _BitReader(data, pos)
        sync = r.read(14)
        if sync != 0b11111111111110:
            raise FlacError("lost frame sync")
        r.read(1)  # reserved
        r.read(1)  # blocking strategy
        bs_code = r.read(4)
        rate_code = r.read(4)
        ch_code = r.read(4)
        size_code = r.read(3)
        r.read(1)  # reserved
        _read_utf8_code(r)
        if bs_code == 0:
            raise FlacError("reserved block size code")
        if bs_code == 6:
            bs = r.read(8) + 1
        elif bs_code == 7:
            bs = r.read(16) + 1
        else:
            bs = _BLOCKSIZE_CODES[bs_code]
        if rate_code == 12:
            r.read(8)
        elif rate_code in (13, 14):
            r.read(16)
        elif rate_code == 15:
            raise FlacError("invalid sample rate code")
        fbits = _SIZE_CODES.get(size_code, bits) if size_code else bits
        # CRC-8 covers the header bytes up to (not incl.) the CRC byte
        r.align()
        hdr_end = r.byte
        if _crc8(data[frame_start:hdr_end]) != r.read(8):
            raise FlacError("frame header CRC-8 mismatch")

        if ch_code <= 7:
            nch = ch_code + 1
            if nch != channels:
                raise FlacError("frame/stream channel mismatch")
            subs = [_decode_subframe(r, bs, fbits) for _ in range(nch)]
        elif ch_code in (8, 9, 10):
            if channels != 2:
                raise FlacError("stereo decorrelation on non-stereo")
            if ch_code == 8:    # left/side
                left = _decode_subframe(r, bs, fbits)
                side = _decode_subframe(r, bs, fbits + 1)
                subs = [left, left - side]
            elif ch_code == 9:  # right/side
                side = _decode_subframe(r, bs, fbits + 1)
                right = _decode_subframe(r, bs, fbits)
                subs = [right + side, right]
            else:               # mid/side
                mid = _decode_subframe(r, bs, fbits)
                side = _decode_subframe(r, bs, fbits + 1)
                # (mid<<1) | (side&1) restores the LSB lost by the
                # encoder's (l+r)>>1
                lr = (mid << 1) | (side & 1)
                subs = [(lr + side) >> 1, (lr - side) >> 1]
        else:
            raise FlacError("reserved channel assignment")
        r.align()
        crc_end = r.byte
        footer = int.from_bytes(data[crc_end:crc_end + 2], "big")
        if _crc16(data[frame_start:crc_end]) != footer:
            raise FlacError("frame CRC-16 mismatch")
        pos = crc_end + 2
        for c in range(channels):
            chans[c].append(subs[c])
        got += bs

    if not chans or not chans[0]:
        # STREAMINFO parsed but zero decodable frames (stream truncated
        # inside/right after the metadata blocks) — typed, not a bare
        # numpy ValueError from concatenating an empty list
        raise FlacError("no decodable frames")
    out = np.stack([np.concatenate(c) for c in chans], axis=1)
    if total:
        if got < total:
            raise FlacError("stream shorter than STREAMINFO total")
        out = out[:total]
    if md5 != b"\x00" * 16 and _pcm_md5(out, bits) != md5:
        raise FlacError("decoded PCM does not match STREAMINFO MD5")
    lim = 1 << (bits - 1)
    if out.min() < -lim or out.max() >= lim:
        raise FlacError("decoded sample exceeds bit depth")
    return (out[:, 0] if channels == 1 else out), rate
