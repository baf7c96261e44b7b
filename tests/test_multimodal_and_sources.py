"""Multimodal stages, seed-file source, fast extension pass."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from playwrightcrawler_ray.imaging.codec import CodecUnavailable, encode_image
from playwrightcrawler_ray.stages.multimodal import (
    AudioFeaturizer,
    ImageResizer,
    VideoFrameSampler,
    decode_audio,
    decode_video_frames,
    encode_audio,
    encode_video,
)


def _px(seed, size=48):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8)


def test_audio_codec_roundtrip_and_stub():
    s = (np.sin(np.linspace(0, 100, 16000)) * 20000).astype(np.int16)
    data = encode_audio(s, 16000)
    out, rate = decode_audio(data)
    assert rate == 16000 and np.array_equal(out, s)
    # WAV is a REAL decoder now: a truncated RIFF header is stream
    # corruption (ValueError), not a missing-codec stub
    with pytest.raises(ValueError):
        decode_audio(b"RIFF....WAVEfmt ")
    with pytest.raises(CodecUnavailable):
        decode_audio(b"ID3\x04compressed-mp3-frames")  # mp3 → stubbed


def test_video_codec_and_sampling():
    frames = [_px(i) for i in range(6)]
    data = encode_video(frames)
    out = decode_video_frames(data, sample_every=2)
    assert len(out) == 3
    with pytest.raises(CodecUnavailable):
        decode_video_frames(b"\x00\x00\x00\x18ftypmp42", 1)  # real mp4 → stubbed


def test_image_resizer_stage(ray_session):
    import ray.data

    tbl = pa.table({"bytes": pa.array(
        [encode_image(_px(i, 64), "png") for i in range(8)]
        + [b"RIFF" + (4 + 8 + 56).to_bytes(4, "little") + b"WEBP"
           + b"VP8 " + (56).to_bytes(4, "little")
           + b"\x01\x00\x00" + b"\x00" * 53],  # VP8 interframe → stub
            pa.binary())})
    out = (
        ray.data.from_arrow(tbl)
        .map_batches(ImageResizer, batch_format="pyarrow", batch_size=4,
                     concurrency=2, fn_constructor_kwargs={"target": 16})
        .to_pandas()
    )
    ok = out[out["resize_error"].isna()]
    assert len(ok) == 8
    assert (ok["resized_w"] == 16).all() and (ok["resized_h"] == 16).all()
    stub = out[out["resize_error"].notna()]
    assert len(stub) == 1 and "codec_unavailable" in stub["resize_error"].iloc[0]  # webp stub


def test_audio_video_stages(ray_session):
    import ray.data

    s = (np.sin(np.linspace(0, 50, 8000)) * 10000).astype(np.int16)
    a_tbl = pa.table({"audio_bytes": pa.array(
        [encode_audio(s), b"ID3realmp3data"], pa.binary())})
    a_out = (
        ray.data.from_arrow(a_tbl)
        .map_batches(AudioFeaturizer, batch_format="pyarrow", concurrency=1)
        .to_pandas()
    )
    assert a_out["duration_sec"].iloc[0] == pytest.approx(0.5)
    assert a_out["audio_error"].iloc[1] is not None

    v_tbl = pa.table({"video_bytes": pa.array(
        [encode_video([_px(i) for i in range(4)])], pa.binary())})
    v_out = (
        ray.data.from_arrow(v_tbl)
        .map_batches(VideoFrameSampler, batch_format="pyarrow", concurrency=1,
                     fn_constructor_kwargs={"sample_every": 2})
        .to_pandas()
    )
    assert v_out["sampled_frames"].iloc[0] == 2
    assert len(v_out["frame_phashes"].iloc[0]) == 2


def test_seeds_from_files(ray_session, tmp_path):
    from playwrightcrawler_ray.corpus.seeds import seeds_from_files

    f = tmp_path / "seeds1.txt"
    f.write_text(
        "https://a.test/\n# comment\n\nhtpps://b.test/x\n"
        "https://sub.gstatic.com/blocked\nhttps://a.test/\n"
        "data:whatever\nhttps://c.test/page\n"
    )
    out = seeds_from_files(str(tmp_path))
    assert out == ["https://a.test/", "https://b.test/x", "https://c.test/page"]
    capped = seeds_from_files(str(tmp_path), max_urls=2)
    assert len(capped) == 2


def test_fast_extension_pass():
    from playwrightcrawler_ray.pipelines.fastpass import head_validate, plan_fast_pass

    fast, full = plan_fast_pass([
        "https://h.test/doc.pdf",
        "https://h.test/pic.JPG",
        "https://h.test/page",          # no extension → full path
        "https://h.test/odd.xyz123",    # unknown extension → full path
    ])
    assert ("https://h.test/doc.pdf", "pdf") in fast
    assert ("https://h.test/pic.JPG", "image") in fast
    assert full == ["https://h.test/page", "https://h.test/odd.xyz123"]

    served = {
        "https://h.test/doc.pdf": "application/pdf",
        "https://h.test/pic.JPG": "text/html",  # mismatch → fallback
    }
    validated, fallback = head_validate(fast, lambda u: served.get(u, ""))
    assert validated == [("https://h.test/doc.pdf", "application/pdf", "pdf")]
    assert fallback == ["https://h.test/pic.JPG"]


def test_ua_pool_rotation():
    """T2: deterministic UA rotation — stable per URL, spread across
    the pool over many URLs."""
    from collections import Counter

    from playwrightcrawler_ray.functions.uapool import (
        USER_AGENTS, pick_user_agent,
    )

    assert pick_user_agent("https://a.test/x") == pick_user_agent(
        "https://a.test/x")
    # retry attempts may rotate to a different agent
    assert isinstance(pick_user_agent("https://a.test/x", attempt=1), str)
    counts = Counter(
        pick_user_agent(f"https://h{i}.test/p{i}") for i in range(600)
    )
    assert set(counts) <= set(USER_AGENTS)
    assert len(counts) == len(USER_AGENTS)      # every agent used
    assert max(counts.values()) < 600 * 0.5     # no degenerate skew


def test_wav_real_codec_roundtrip(ray_session):
    """Real RIFF/WAVE PCM decode: 16-bit mono round-trips exactly,
    stereo downmixes, 8-bit scales — and the AudioFeaturizer actor
    consumes real WAV bytes end-to-end."""
    import ray.data

    from playwrightcrawler_ray.stages.multimodal import (
        AudioFeaturizer, decode_audio, encode_wav,
    )

    s = (np.sin(np.linspace(0, 80, 16000)) * 12000).astype(np.int16)
    mono = encode_wav(s, rate=16000)
    out, rate = decode_audio(mono)
    assert rate == 16000 and np.array_equal(out, s)
    # stereo downmix
    st = np.stack([s, (s // 2)], axis=1)
    out2, _ = decode_audio(encode_wav(st, rate=8000))
    assert np.array_equal(out2, st.mean(axis=1).astype(np.int16))
    # 8-bit unsigned path via a hand-built header
    import struct

    pay = ((s[:64] >> 8) + 128).astype(np.uint8).tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(pay)) + pay)
    wav8 = b"RIFF" + struct.pack("<I", len(body)) + body
    out3, r3 = decode_audio(wav8)
    assert r3 == 8000 and len(out3) == 64
    # the actor-pool stage consumes WAV bytes like any other container
    tbl = pa.table({"audio_bytes": pa.array([mono], pa.binary())})
    feats = (
        ray.data.from_arrow(tbl)
        .map_batches(AudioFeaturizer, batch_format="pyarrow",
                     batch_size=4, concurrency=1)
        .to_pandas()
    )
    assert feats["audio_error"].isna().all()
    assert abs(feats["duration_sec"].iloc[0] - 1.0) < 1e-9
    assert feats["rms"].iloc[0] > 0.1


def test_mjpeg_avi_real_video(ray_session):
    """Real RIFF/AVI MJPEG video: frames decode through the pure-Python
    JPEG decoder with frame sampling; non-MJPEG AVI payloads stay
    CodecUnavailable; the VideoFrameSampler actor consumes the real
    container end-to-end."""
    import ray.data
    import struct

    from playwrightcrawler_ray.stages.multimodal import (
        VideoFrameSampler, decode_video_frames, encode_avi_mjpeg,
    )

    frames = [_px(i, 32) for i in range(6)]
    avi = encode_avi_mjpeg(frames, fps=5)
    assert avi[:4] == b"RIFF" and avi[8:12] == b"AVI "
    out = decode_video_frames(avi, sample_every=2)
    assert len(out) == 3
    assert all(f.shape == (32, 32, 3) for f in out)
    # sampled frames approximate the originals (JPEG q90)
    from playwrightcrawler_ray.imaging import psnr

    assert psnr(frames[0], out[0]) >= 30
    # a non-MJPEG AVI stream chunk → CodecUnavailable
    def chunk(tag, body):
        return tag + struct.pack("<I", len(body)) + body + (b"\x00" if len(body) & 1 else b"")
    bad_movi = chunk(b"LIST", b"movi" + chunk(b"00dc", b"\x30\x82notjpeg"))
    bad = chunk(b"RIFF", b"AVI " + bad_movi)
    import pytest as _pytest

    with _pytest.raises(CodecUnavailable):
        decode_video_frames(bad)
    # actor-pool stage over the real container
    tbl = pa.table({"video_bytes": pa.array([avi], pa.binary())})
    out_df = (
        ray.data.from_arrow(tbl)
        .map_batches(VideoFrameSampler, batch_format="pyarrow",
                     batch_size=2, concurrency=1,
                     fn_constructor_kwargs={"sample_every": 3})
        .to_pandas()
    )
    assert out_df["video_error"].isna().all()
    assert int(out_df["sampled_frames"].iloc[0]) == 2
    assert len(out_df["frame_phashes"].iloc[0]) == 2


def test_g711_codec_exactness():
    """ITU-T G.711 companding: the coder pair is mutually consistent
    on ALL 256 codes (encode∘decode == identity — the full-codebook
    exactness check), spec anchor values hold, and decode(encode(x))
    stays within one quantization step of x."""
    from playwrightcrawler_ray.functions.pcmcodecs import (
        alaw_decode, alaw_encode, ulaw_decode, ulaw_encode,
    )

    codes = np.arange(256, dtype=np.uint8)
    # mu-law: every code except 0x7F ("-0", which re-encodes as +0
    # 0xFF — the classic signed-zero exception) round-trips
    mu_rt = ulaw_encode(ulaw_decode(codes))
    keep = codes != 0x7F
    assert np.array_equal(mu_rt[keep], codes[keep])
    assert mu_rt[~keep][0] == 0xFF and ulaw_decode(np.uint8(0x7F)) == 0
    # A-law decode values are never 0 → all 256 codes round-trip
    assert np.array_equal(alaw_encode(alaw_decode(codes)), codes)
    # spec anchors: mu-law 0xFF→0, max magnitude 32124; A-law max 32256
    assert ulaw_decode(np.uint8(0xFF)) == 0
    assert ulaw_decode(codes).max() == 32124
    assert ulaw_decode(codes).min() == -32124
    assert alaw_decode(codes).max() == 32256
    assert alaw_decode(codes).min() == -32256
    # quantization error bound: largest segment step is 1024
    rng = np.random.default_rng(7)
    x = rng.integers(-32768, 32768, 4096).astype(np.int16)
    for enc, dec in ((ulaw_encode, ulaw_decode), (alaw_encode, alaw_decode)):
        err = np.abs(dec(enc(x)).astype(np.int32) - x)
        assert err.max() <= 1024, err.max()
    # decode tables are monotone within each sign (valid quantizers)
    mu_pos = np.sort(ulaw_decode(codes)[ulaw_decode(codes) >= 0])
    assert np.all(np.diff(mu_pos) >= 0)


def test_ima_adpcm_vs_straightline_reference():
    """Production IMA decoder vs a straight-line transliteration of
    the reference state machine, over random nibble streams and
    random initial state."""
    from playwrightcrawler_ray.functions.pcmcodecs import (
        IMA_INDEX_TABLE, IMA_STEP_TABLE, _ima_decode_nibbles,
    )

    rng = np.random.default_rng(11)
    for _ in range(8):
        nibs = rng.integers(0, 16, 500).astype(np.uint8)
        pred = int(rng.integers(-30000, 30000))
        index = int(rng.integers(0, 89))
        got = _ima_decode_nibbles(nibs, pred, index)
        # independent reference
        exp, p, ix = [], pred, index
        for n in nibs.tolist():
            step = int(IMA_STEP_TABLE[ix])
            diff = step >> 3
            if n & 1: diff += step >> 2
            if n & 2: diff += step >> 1
            if n & 4: diff += step
            p = p - diff if n & 8 else p + diff
            p = max(-32768, min(32767, p))
            ix = max(0, min(88, ix + int(IMA_INDEX_TABLE[n & 7])))
            exp.append(p)
        assert np.array_equal(got, np.asarray(exp, np.int16))


def test_g711_and_adpcm_wav_end_to_end(ray_session):
    """Real compressed/companded WAV decode through decode_audio and
    the AudioFeaturizer actor: G.711 (both laws) and IMA ADPCM."""
    import ray.data

    from playwrightcrawler_ray.stages.multimodal import (
        AudioFeaturizer, decode_audio, encode_wav_adpcm, encode_wav_g711,
    )

    t = np.linspace(0, 1, 8000)
    s = (np.sin(2 * np.pi * 440 * t) * 9000).astype(np.int16)
    for law in ("ulaw", "alaw"):
        wav = encode_wav_g711(s, rate=8000, law=law)
        out, rate = decode_audio(wav)
        assert rate == 8000 and len(out) == len(s)
        err = out.astype(np.float64) - s
        snr = 10 * np.log10((s.astype(np.float64) ** 2).mean()
                            / max((err ** 2).mean(), 1e-12))
        assert snr > 30, (law, snr)
    adp = encode_wav_adpcm(s, rate=8000, block_align=256)
    out, rate = decode_audio(adp)
    assert rate == 8000 and len(out) >= len(s)
    err = out[: len(s)].astype(np.float64) - s
    snr = 10 * np.log10((s.astype(np.float64) ** 2).mean()
                        / max((err ** 2).mean(), 1e-12))
    assert snr > 22, snr  # 4-bit ADPCM on a pure tone
    # compression is real: 4 bits/sample + headers ≈ 4x smaller
    assert len(adp) < len(s) * 2 * 0.30
    # featurizer actor consumes all three containers
    tbl = pa.table({"audio_bytes": pa.array(
        [encode_wav_g711(s, law="ulaw"), encode_wav_g711(s, law="alaw"), adp],
        pa.binary())})
    feats = (
        ray.data.from_arrow(tbl)
        .map_batches(AudioFeaturizer, batch_format="pyarrow",
                     batch_size=4, concurrency=1)
        .to_pandas()
    )
    assert feats["audio_error"].isna().all()
    assert (feats["rms"] > 0.1).all()


def test_ima_adpcm_stereo_and_taxonomy():
    """Stereo IMA block layout (per-channel headers + alternating
    4-byte nibble groups) decodes; malformed streams raise typed
    errors, not crashes."""
    import struct

    import pytest

    from playwrightcrawler_ray.functions.pcmcodecs import (
        _ima_decode_nibbles, ima_adpcm_decode_wav,
    )

    # hand-build one stereo block: ch0 all-nibble-5, ch1 all-nibble-2
    hdr = struct.pack("<hBB", 100, 3, 0) + struct.pack("<hBB", -200, 10, 0)
    body = bytes([0x55] * 4 + [0x22] * 4) * 3  # 3 groups per channel? no: alternating
    block = hdr + body
    out = ima_adpcm_decode_wav(block, len(block), 2)
    # interleaved stereo; first samples are the header predictors
    assert out[0] == 100 and out[1] == -200
    ch0 = out[0::2]
    ch1 = out[1::2]
    # cross-check against the scalar state machine on the de-grouped nibbles
    nib0, nib1 = [], []
    groups = [body[i : i + 4] for i in range(0, len(body), 4)]
    for gi, g in enumerate(groups):
        tgt = nib0 if gi % 2 == 0 else nib1
        for b in g:
            tgt += [b & 0xF, b >> 4]
    assert np.array_equal(
        ch0[1:], _ima_decode_nibbles(np.asarray(nib0, np.uint8), 100, 3))
    assert np.array_equal(
        ch1[1:], _ima_decode_nibbles(np.asarray(nib1, np.uint8), -200, 10))
    # taxonomy: bad step index / bad block align / bad channel count
    bad = struct.pack("<hBB", 0, 99, 0) + b"\x00" * 4
    with pytest.raises(ValueError):
        ima_adpcm_decode_wav(bad, len(bad), 1)
    with pytest.raises(ValueError):
        ima_adpcm_decode_wav(b"\x00" * 8, 6, 1)
    with pytest.raises(ValueError):
        ima_adpcm_decode_wav(b"\x00" * 16, 16, 3)
