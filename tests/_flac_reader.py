"""Test-only FLAC decoder: the round-trip oracle for the package's
``flac_encode``.

It reads CONSTANT, VERBATIM, FIXED (orders 0-4) and LPC (orders 1-32)
subframes, Rice residual partitions (4- and 5-bit parameters, raw-bits
escape), independent and left/right/mid-side stereo, 8-32-bit samples,
wasted bits, fixed and variable blocking and UTF-8 coded frame
numbers. It verifies every frame's CRC-8 and CRC-16 and the STREAMINFO
MD5 of the decoded PCM, so a round trip also checks the checksums the
encoder wrote. The package itself never imports this module.
"""

from __future__ import annotations

import numpy as np

from playwrightcrawler_ray.functions.flac import _crc8, _crc16, _pcm_md5


class FlacError(ValueError):
    """Malformed / corrupt FLAC stream (CRC, MD5 or structure)."""


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


_FIXED_COEFS = {
    0: [],
    1: [1],
    2: [2, -1],
    3: [3, -3, 1],
    4: [4, -6, 4, -1],
}


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
