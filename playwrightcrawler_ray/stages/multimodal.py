"""Media helpers for the crawl corpus and the EXIF actor stage.

- ``encode_wav`` writes RIFF/WAVE PCM-16, the corpus generator's
  ``clip.wav`` fixture; the crawl probes it through
  ``functions/mediaprobe``.
- ``ExifExtractor`` is the actor-pool stage behind the CLI's ``exif``
  verb: EXIF signal columns plus an optional GPS scrub.

The reference stores audio and video without decoding them
(``handle_content_type``, playwrightcrawler.py:2741-2843), so no
sample or frame decoder lives here.

Wide-row guidance (SURVEY.md §7.4 item 4): binary payload rows are MBs
— keep ``batch_size`` small (≤32), ``batch_format="pyarrow"``
(zero-copy), and size ``concurrency × num_cpus`` to the node.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa


def encode_wav(samples: np.ndarray, rate: int = 16_000) -> bytes:
    """Real RIFF/WAVE PCM-16 encoder (mono or (n, 2) stereo)."""
    if samples.dtype != np.int16 or samples.ndim not in (1, 2):
        raise ValueError("expected int16 samples, 1-D or (n, 2)")
    nch = 1 if samples.ndim == 1 else samples.shape[1]
    payload = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 1, nch, rate, rate * nch * 2, nch * 2, 16)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


class ExifExtractor:
    """Actor-pool stage over a ``bytes`` image column: append the
    EXIF curation signals (orientation, camera make/model, capture
    time, GPS presence — imaging/exif.py) and, with ``scrub=True``,
    a ``scrubbed_bytes`` column holding the byte-level privacy strip
    (GPS is PII; pixels stay bit-identical). Parse failures are
    error ROWS, never crashed tasks — same taxonomy contract as the
    decode stages."""

    def __init__(self, scrub: bool = False):
        self.scrub = scrub

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..imaging.exif import exif_parse, exif_strip

        orient, make, model, dt, has_gps, scrubbed = [], [], [], [], [], []
        for b in batch.column("bytes").to_pylist():
            try:
                info = exif_parse(b or b"")
            except Exception:
                info = {"orientation": 1, "make": None, "model": None,
                        "datetime": None, "has_gps": False}
            orient.append(info["orientation"])
            make.append(info["make"])
            model.append(info["model"])
            dt.append(info["datetime"])
            has_gps.append(info["has_gps"])
            if self.scrub:
                try:
                    scrubbed.append(exif_strip(b) if b else b)
                except ValueError:
                    scrubbed.append(b)  # structural (bare TIFF)
        out = (
            batch.append_column("exif_orientation",
                                pa.array(orient, pa.int32()))
            .append_column("exif_make", pa.array(make, pa.string()))
            .append_column("exif_model", pa.array(model, pa.string()))
            .append_column("exif_datetime", pa.array(dt, pa.string()))
            .append_column("exif_has_gps",
                           pa.array(has_gps, pa.bool_()))
        )
        if self.scrub:
            out = out.append_column("scrubbed_bytes",
                                    pa.array(scrubbed, pa.binary()))
        return out
