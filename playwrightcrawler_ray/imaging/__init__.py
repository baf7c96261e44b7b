"""Imaging: encode/decode/hash for the ``images`` table payloads.

This container has no PIL/OpenCV, so the codec layer is self-contained
pure Python + numpy; ``codec.py`` lists the formats. A format or
feature without a decoder raises ``CodecUnavailable``.
"""

from .codec import (
    CodecUnavailable,
    DecompressionBombError,
    UnidentifiedImageError,
    decode_image,
    encode_image,
    dhash64,
    pixel_hash,
)

__all__ = [
    "CodecUnavailable",
    "DecompressionBombError",
    "UnidentifiedImageError",
    "decode_image",
    "encode_image",
    "dhash64",
    "pixel_hash",
]
