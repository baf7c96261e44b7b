"""Image codec facade: decode → normalized RGB pixels, hashes.

Maps the reference's image handler semantics
(playwrightcrawler.py:3844-3930):

- decode + mode normalization (CMYK→RGB, palette+transparency→RGBA;
  here: RGBA is flattened to RGB over white so pixel hashes are
  format-independent);
- stable content identity from *decoded pixels*, not wire bytes
  (reference names files ``sha512(img.tobytes())`` :3858 — our
  ``pixel_hash`` + ``dhash64`` columns);
- the error taxonomy, re-raised as typed exceptions the decode stage
  converts into the reference's ``source`` labels:
  ``UnidentifiedImageError`` → content_type_images_unidentified_image_error,
  ``DecompressionBombError`` → content_type_images_decompression_bomb_error,
  ``OSError``/ValueError       → content_type_images_oserror.

Formats: ``png``/``gif``/``bmp``/``tiff`` (real pure-Python codecs,
lossless), ``jpeg`` (real pure-Python DCT codec, imaging/jpeg.py —
baseline 4:4:4/4:2:0 with restart markers AND full progressive SOF2
decode: spectral selection, successive approximation, EOB runs;
PSNR ≥ 40 dB at the corpus quality), ``qimg`` (deterministic 6-bit
quantized lossy format), ``webp`` (real VP8L lossless decoder —
transforms, color cache, LZ77, meta-prefix — AND real lossy VP8
keyframe decode via imaging/vp8.py, differential-tested bit-exact
against libwebp), PNG incl. Adam7 interlace, TIFF incl. LZW +
horizontal predictor, TILES (§15) and PLANAR sample layout (§12),
and new-style JPEG-in-TIFF (compression 7: shared JPEGTables +
abbreviated per-segment streams, composed with the T.81 decoder).
Arithmetic-coded JPEG (SOF9/SOF10) decodes for real via the T.81
Annex D QM coder, lossless JPEG (SOF3) via the Annex H spatial
DPCM process (all 7 predictors, point transform, restart intervals,
interleaved and per-component scans), and hierarchical JPEG (Annex
J: DHP + EXP + SOF5 differential DCT / SOF7 differential lossless
frames — bit-exact with a lossless correction frame). The remaining
typed ``CodecUnavailable`` variants: VP8 interframes,
progressive/arithmetic differential frames, subsampled or
deep-precision lossless/hierarchical.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np

from .png import png_decode, png_encode


class UnidentifiedImageError(ValueError):
    """Bytes are not any image format we recognize."""


class DecompressionBombError(MemoryError):
    """Image dimensions exceed the safety limit."""


class CodecUnavailable(NotImplementedError):
    """A real-world format whose decoder isn't present in this container."""


_QIMG_MAGIC = b"QIM1"
# Every container format now has a real pure-Python decoder: PNG, GIF,
# BMP, JPEG (baseline + progressive), TIFF, WebP-lossless (VP8L) AND
# WebP-lossy (RFC 6386 VP8 keyframes, imaging/vp8.py).  Only VP8
# *interframes* (animation frames, not still images) remain a typed
# CodecUnavailable, raised through webp_decode.
_STUBBED_FORMATS: set[str] = set()
MAX_PIXELS = 64_000_000


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    """Encode (h, w, 3) uint8 pixels as ``png`` (lossless) or ``qimg``
    (lossy: 6-bit quantization + zlib)."""
    fmt = fmt.lower()
    if fmt == "png":
        return png_encode(pixels)
    if fmt == "png_adam7":
        return png_encode(pixels, interlace=True)
    if fmt == "gif":
        from .gif import gif_encode

        return gif_encode(pixels)
    if fmt == "bmp":
        from .bmp import bmp_encode

        return bmp_encode(pixels)
    if fmt in ("jpeg", "jpg"):
        from .jpeg import jpeg_encode

        # q95 4:4:4 keeps the round-trip PSNR ≥ 40 dB invariant
        return jpeg_encode(pixels, quality=95, subsampling="444")
    if fmt in ("jpeg_progressive", "pjpeg"):
        from .jpeg import jpeg_encode_progressive

        return jpeg_encode_progressive(pixels, quality=95,
                                       subsampling="444")
    if fmt in ("jpeg_arithmetic", "ajpeg"):
        from .jpeg import jpeg_encode_arithmetic

        return jpeg_encode_arithmetic(pixels, quality=95,
                                      subsampling="444")
    if fmt in ("jpeg_lossless", "ljpeg"):
        from .jpeg import jpeg_encode_lossless

        # predictor 4 (Ra+Rb−Rc) — the best average coder on natural
        # images; bit-exact round trip (lossless)
        return jpeg_encode_lossless(pixels, predictor=4)
    if fmt in ("jpeg_hierarchical", "hjpeg"):
        from .jpeg import jpeg_encode_hierarchical

        # 3-level pyramid + SOF7 correction frame: bit-exact round trip
        return jpeg_encode_hierarchical(pixels, levels=3, quality=90,
                                        lossless_final=True)
    if fmt == "tiff":
        from .tiff import tiff_encode

        return tiff_encode(pixels)
    if fmt == "tiff_lzw":
        from .tiff import tiff_encode

        return tiff_encode(pixels, compression="lzw", predictor=True)
    if fmt == "tiff_tiled":
        from .tiff import tiff_encode

        return tiff_encode(pixels, compression="lzw", layout="tiles")
    if fmt == "tiff_planar":
        from .tiff import tiff_encode

        return tiff_encode(pixels, compression="lzw", predictor=True,
                           planar=True)
    if fmt == "tiff_jpeg":
        from .tiff import tiff_encode_jpeg

        return tiff_encode_jpeg(pixels, quality=95)
    if fmt == "webp":
        from .webp import vp8l_encode

        return vp8l_encode(pixels)  # lossless VP8L
    if fmt == "webp_lossy":
        from .vp8 import vp8_encode_webp

        # high-quality flat quantizer; exercises the RFC 6386 intra path
        return vp8_encode_webp(pixels, qi=12)
    if fmt == "qimg":
        if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
            raise ValueError("expected (h, w, 3) uint8 array")
        h, w, _ = pixels.shape
        q = (pixels >> 2).astype(np.uint8)  # 6-bit per channel
        return _QIMG_MAGIC + struct.pack(">II", w, h) + zlib.compress(q.tobytes(), 6)
    if fmt in _STUBBED_FORMATS:
        raise CodecUnavailable(f"no {fmt} encoder in this container")
    raise ValueError(f"unknown format {fmt!r}")


def sniff_format(data: bytes) -> str:
    if data.startswith(b"\x89PNG\r\n\x1a\n"):
        return "png"
    if data.startswith(_QIMG_MAGIC):
        return "qimg"
    if data.startswith(b"\xff\xd8\xff"):
        return "jpeg"
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        return "webp"
    if data.startswith((b"GIF87a", b"GIF89a")):
        return "gif"
    if data[:4] in (b"II*\x00", b"MM\x00*"):
        return "tiff"
    if data[:2] == b"BM":
        return "bmp"
    raise UnidentifiedImageError("unrecognized image magic")


def decode_image(data: bytes) -> tuple[np.ndarray, str]:
    """Decode wire bytes → ((h, w, 3) uint8 RGB, fmt).

    RGBA is composited over white; typed exceptions implement the
    reference error taxonomy (module docstring)."""
    if not isinstance(data, (bytes, bytearray)) or len(data) < 12:
        raise UnidentifiedImageError("too short to be an image")
    fmt = sniff_format(bytes(data))
    if fmt in _STUBBED_FORMATS:
        raise CodecUnavailable(f"no {fmt} decoder in this container")
    try:
        if fmt == "png":
            # every PNG variant decodes now, Adam7 interlace included
            px = png_decode(bytes(data), max_pixels=MAX_PIXELS)
        elif fmt == "gif":
            from .gif import gif_decode

            px = gif_decode(bytes(data), max_pixels=MAX_PIXELS)
        elif fmt == "bmp":
            from .bmp import bmp_decode

            px = bmp_decode(bytes(data), max_pixels=MAX_PIXELS)
        elif fmt == "webp":
            from .webp import webp_decode

            try:
                px = webp_decode(bytes(data), max_pixels=MAX_PIXELS)
            except NotImplementedError as e:
                # VP8 interframe payload (not a still image) — the only
                # WebP variant left undecodable (lossy keyframes decode
                # for real via imaging/vp8.py now)
                raise CodecUnavailable(str(e)) from e
        elif fmt == "jpeg":
            from .jpeg import jpeg_decode

            try:
                px = jpeg_decode(bytes(data), max_pixels=MAX_PIXELS)
            except NotImplementedError as e:
                # progressive/arithmetic differential frames,
                # subsampled lossless, 12-bit: real variants this codec
                # genuinely cannot decode (baseline, progressive,
                # arithmetic, lossless AND hierarchical all decode now)
                raise CodecUnavailable(str(e)) from e
        elif fmt == "tiff":
            from .tiff import tiff_decode

            try:
                px = tiff_decode(bytes(data), max_pixels=MAX_PIXELS)
            except NotImplementedError as e:
                # exotic TIFF variants: beyond the implemented profiles
                raise CodecUnavailable(str(e)) from e
        else:  # qimg
            w, h = struct.unpack_from(">II", data, 4)
            if w * h > MAX_PIXELS:
                raise MemoryError(f"decompression bomb: {w}x{h}")
            raw = np.frombuffer(zlib.decompress(bytes(data[12:])), dtype=np.uint8)
            if raw.size != h * w * 3:
                raise ValueError("bad qimg payload size")
            # dequantize to bin centers: q*4 + 2, clipped
            px = np.minimum(raw.reshape(h, w, 3).astype(np.uint16) * 4 + 2, 255).astype(
                np.uint8
            )
    except MemoryError as e:
        raise DecompressionBombError(str(e)) from e
    except CodecUnavailable:
        raise  # VP8 interframe / exotic JPEG process: honest stub, not corruption
    except (zlib.error, struct.error, ValueError, NotImplementedError,
            IndexError, KeyError) as e:
        # corrupt/truncated/unsupported-variant streams → the reference's
        # OSError taxonomy bucket (:3896-3930)
        raise OSError(f"corrupt image stream: {e}") from e
    if px.shape[2] == 4:  # flatten alpha over white
        rgb = px[:, :, :3].astype(np.uint16)
        a = px[:, :, 3:4].astype(np.uint16)
        px = ((rgb * a + 255 * (255 - a)) // 255).astype(np.uint8)
    return px, fmt


def pixel_hash(pixels: np.ndarray) -> str:
    """SHA1 hex of the decoded RGB pixel buffer — the exact-dup key
    (format-independent content identity, reference :3858)."""
    return hashlib.sha1(np.ascontiguousarray(pixels).tobytes()).hexdigest()


def dhash64(pixels: np.ndarray) -> int:
    """64-bit difference hash of decoded pixels (the ``phash`` column):
    grayscale → 9×8 block-mean resize → horizontal gradient sign bits.
    Returned as a *signed* int64 (two's complement) to fit Arrow int64."""
    g = (
        0.299 * pixels[:, :, 0].astype(np.float32)
        + 0.587 * pixels[:, :, 1].astype(np.float32)
        + 0.114 * pixels[:, :, 2].astype(np.float32)
    )
    h, w = g.shape
    # block-mean resize to 8 rows x 9 cols
    row_idx = (np.arange(h) * 8) // h
    col_idx = (np.arange(w) * 9) // w
    sums = np.zeros((8, 9), np.float64)
    counts = np.zeros((8, 9), np.float64)
    np.add.at(sums, (row_idx[:, None], col_idx[None, :]), g)
    np.add.at(counts, (row_idx[:, None], col_idx[None, :]), 1.0)
    small = sums / np.maximum(counts, 1.0)
    bits = (small[:, 1:] > small[:, :-1]).flatten()
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return val - (1 << 64) if val >= (1 << 63) else val
