"""Animated WebP (VP8X/ANIM/ANMF) frame decoding: lossless round
trips are compared against an INDEPENDENT straight-line compositing
reference computed here from the same frame specs — rects, WebP
blend/dispose flags — plus the still-image path's first-frame
snapshot."""

from __future__ import annotations

import numpy as np
import pytest

from playwrightcrawler_ray.imaging.webp import (
    webp_decode_frames,
    vp8l_encode,
)

from _webp_writer import webp_encode_anim


def _rng():
    return np.random.default_rng(1234)


def test_webp_animation_overwrite_and_dispose_background():
    rng = _rng()
    f0 = rng.integers(0, 256, (12, 16, 3), dtype=np.uint8)
    f1 = rng.integers(0, 256, (6, 8, 3), dtype=np.uint8)
    # colored semi-transparent background exercises the flatten
    data = webp_encode_anim(
        (16, 12),
        [
            {"pixels": f0, "blend": False, "dispose_bg": True,
             "duration_ms": 70},
            {"pixels": f1, "x": 4, "y": 2, "blend": False},
        ],
        bg_rgba=(0, 200, 0, 255),
    )
    frames, durs = webp_decode_frames(data)
    assert durs == [70, 40]
    assert np.array_equal(frames[0], f0)
    # after dispose-to-background the canvas is opaque green
    expect = np.zeros((12, 16, 3), np.uint8)
    expect[:, :, 1] = 200
    expect[2:8, 4:12] = f1
    assert np.array_equal(frames[1], expect)


def test_webp_animation_alpha_blend_matches_porter_duff():
    rng = _rng()
    f0 = rng.integers(0, 256, (10, 10, 3), dtype=np.uint8)
    f1 = np.zeros((10, 10, 4), np.uint8)
    f1[:, :, 0] = 200                       # red overlay
    f1[:, :, 3] = rng.integers(0, 256, (10, 10))
    data = webp_encode_anim((10, 10), [
        {"pixels": f0, "blend": False},
        {"pixels": f1, "blend": True},
    ])
    frames, _ = webp_decode_frames(data)
    # independent straight-alpha OVER reference on the opaque canvas:
    # out = src*sa + dst*(1-sa), then flatten is identity (alpha 1)
    sa = f1[:, :, 3:4].astype(np.float64) / 255.0
    expect = np.clip(
        (f1[:, :, :3].astype(np.float64) * sa
         + f0.astype(np.float64) * (1.0 - sa)).round(), 0, 255
    ).astype(np.uint8)
    assert np.array_equal(frames[1], expect)


def test_still_image_path_snapshots_first_webp_frame():
    """The crawler's still-image decode must not choke on an animated
    WebP: it snapshots the composited first frame (GIF convention)."""
    from playwrightcrawler_ray.imaging.webp import webp_decode

    patch = np.full((4, 4, 3), 33, np.uint8)
    data = webp_encode_anim(
        (8, 8),
        [{"pixels": patch, "x": 2, "y": 2, "blend": False},
         {"pixels": np.full((8, 8, 3), 200, np.uint8), "blend": False}],
        bg_rgba=(10, 20, 30, 255),
    )
    got = webp_decode(data)
    expect = np.zeros((8, 8, 3), np.uint8)
    expect[:] = (10, 20, 30)
    expect[2:6, 2:6] = 33
    assert np.array_equal(got, expect)


def test_webp_non_animated_fallback_and_bad_rect():
    img = np.full((7, 9, 3), 130, np.uint8)
    frames, durs = webp_decode_frames(vp8l_encode(img))
    assert len(frames) == 1 and durs == [0]
    assert np.array_equal(frames[0], img)
    bad = webp_encode_anim((8, 8), [
        {"pixels": np.zeros((8, 8, 3), np.uint8), "x": 2, "y": 0},
    ])
    with pytest.raises(ValueError):
        webp_decode_frames(bad)


def test_anmf_without_vp8x_rejected_not_recursed():
    """A malformed WebP carrying an ANMF chunk but no animated VP8X
    header must raise ValueError — the still-decode → frames-decode
    handoff used to mutually recurse to RecursionError on this
    shape."""
    import struct

    payload = b"\x00" * 16
    chunk = b"ANMF" + struct.pack("<I", len(payload)) + payload
    data = b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk
    with pytest.raises(ValueError, match="ANMF"):
        webp_decode_frames(data)
    from playwrightcrawler_ray.imaging.webp import webp_decode
    with pytest.raises(ValueError, match="ANMF"):
        webp_decode(data)
