"""Image–caption alignment scoring: the LAION-style CLIP-score
filter as a Ray Data actor-pool stage.

Web-scale image+caption curation (LAION-400M/5B, DataComp) keeps a
pair only when a two-tower model scores the caption as describing the
image (CLIP cosine ≥ ~0.28). CLIP weights are not in this container,
so the shipped model is a REAL (small) two-tower trained here: the
image tower is the shared 11-feature extractor from stages/nsfw.py
(channel statistics, colorfulness, edge density, aspect), the caption
tower is a hashed bag-of-words unit vector, and the interaction is a
trained bilinear form ``sigmoid(f_std · W · c + b)`` fit
deterministically by ``scripts/train_align.py`` on synthetic pairs
whose captions genuinely describe the rendered pixels (held-out
accuracy recorded in ``align_weights.py``). A production CLIP slot-in
replaces ``_AlignModel`` only; the stage contract — actor pool, batch
shapes, decode-once, threshold semantics — is identical to the NSFW
stage's.

The caption TEMPLATER used to synthesize described pairs lives here
(``describe_features``) so training, inference tests, and any future
re-train share one vocabulary — no train/serve skew.

Usage::

    scored = images_ds.map_batches(
        AlignmentScorer,                 # callable CLASS → actor pool
        batch_format="pyarrow",
        batch_size=32,                   # wide binary rows
        concurrency=4,
        num_cpus=1,
    )

Reference parity: rggassner/playwrightcrawler stores image+alt-text
pairs (playwrightcrawler.py:2458-2517 link/img extraction) but has no
alignment filter; this is an added curation operator of the same
family as the NSFW stage (T1).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.text import fingerprint64
from .nsfw import image_features

CAPTION_DIM = 64
ALIGN_THRESHOLD = 0.5

# templater vocabulary: measured image properties → descriptor words.
# Synonym sets force the model to map WORDS to FEATURES rather than
# memorize one string per bucket.
_COLOR_WORDS = {
    "red": ("red", "crimson", "scarlet"),
    "green": ("green", "emerald", "leafy"),
    "blue": ("blue", "azure", "cobalt"),
    "gray": ("gray", "neutral", "plain"),
}
_LIGHT_WORDS = {
    "bright": ("bright", "light", "pale"),
    "dark": ("dark", "dim", "shadowy"),
    "medium": ("medium", "toned", "balanced"),
}
_TEXTURE_WORDS = {
    "smooth": ("smooth", "flat", "soft"),
    "busy": ("busy", "noisy", "detailed"),
}
_SHAPE_WORDS = {
    "square": ("square", "boxy"),
    "wide": ("wide", "panoramic", "landscape"),
}
_SAT_WORDS = {
    "colorful": ("colorful", "vivid", "saturated"),
    "muted": ("muted", "washed", "desaturated"),
}
_FILLER = ("a", "an", "the", "photo", "image", "picture", "of", "shot",
           "view", "frame", "banner", "tile")


def feature_buckets(feats: np.ndarray) -> dict[str, str]:
    """Deterministic descriptor buckets of an 11-feature vector
    (stages/nsfw.image_features layout: mean RGB, std RGB, skin,
    center-skin, colorfulness, edge, aspect)."""
    mean_r, mean_g, mean_b = feats[0], feats[1], feats[2]
    brightness = (mean_r + mean_g + mean_b) / 3.0
    spread = max(mean_r, mean_g, mean_b) - min(mean_r, mean_g, mean_b)
    if spread < 0.08:
        color = "gray"
    else:
        color = ("red", "green", "blue")[
            int(np.argmax([mean_r, mean_g, mean_b]))]
    if brightness > 0.62:
        light = "bright"
    elif brightness < 0.38:
        light = "dark"
    else:
        light = "medium"
    texture = "busy" if feats[9] > 0.045 else "smooth"
    shape = "square" if feats[10] > 0.75 else "wide"
    sat = "colorful" if feats[8] > 0.09 else "muted"
    return {"color": color, "light": light, "texture": texture,
            "shape": shape, "sat": sat}


def describe_features(feats: np.ndarray, rng) -> str:
    """A caption that genuinely describes the measured features:
    synonym choice and filler words are drawn from ``rng`` (any object
    with ``choice``/``integers``-style ``numpy.random.Generator``
    API), the CONTENT words are deterministic in the features."""
    b = feature_buckets(feats)
    words = [
        str(rng.choice(_COLOR_WORDS[b["color"]])),
        str(rng.choice(_LIGHT_WORDS[b["light"]])),
        str(rng.choice(_TEXTURE_WORDS[b["texture"]])),
        str(rng.choice(_SHAPE_WORDS[b["shape"]])),
        str(rng.choice(_SAT_WORDS[b["sat"]])),
    ]
    n_fill = int(rng.integers(2, 5))
    fillers = [str(rng.choice(_FILLER)) for _ in range(n_fill)]
    out = fillers[:1] + words + fillers[1:]
    order = rng.permutation(len(out))
    return " ".join(out[i] for i in order)


def caption_vector(text: str) -> np.ndarray:
    """Hashed bag-of-words caption embedding: blake2b(token) % DIM
    counts, L2-normalized (the zero caption stays zero)."""
    v = np.zeros(CAPTION_DIM, dtype=np.float64)
    for tok in text.split():
        v[fingerprint64(tok.lower()) % CAPTION_DIM] += 1.0
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else v


class _AlignModel:
    """Trained bilinear two-tower: load-once, batch predict. Counts
    constructions per process — guarding the actor-pool load-once
    contract in tests (same pattern as stages/nsfw._NsfwModel)."""

    instances_per_process = 0

    def __init__(self):
        type(self).instances_per_process += 1
        from . import align_weights as W  # the "weight load"

        self.W = np.asarray(W.BILINEAR, dtype=np.float64)
        self.b = float(W.BIAS)
        self.mu = np.asarray(W.FEATURE_MEAN, dtype=np.float64)
        self.sd = np.asarray(W.FEATURE_STD, dtype=np.float64)

    def predict(self, pixel_batch: list[np.ndarray],
                captions: list[str]) -> np.ndarray:
        if not pixel_batch:
            return np.empty(0, dtype=np.float64)
        feats = np.stack([image_features(px) for px in pixel_batch])
        feats = (feats - self.mu) / self.sd
        caps = np.stack([caption_vector(c) for c in captions])
        # chained matmuls, not a 3-operand einsum (which skips BLAS —
        # BASELINE.md round-2 measurement)
        z = ((feats @ self.W) * caps).sum(axis=1) + self.b
        return 1.0 / (1.0 + np.exp(-z))


class AlignmentScorer:
    """Actor-pool ``map_batches`` callable over image rows
    (``bytes``/``caption`` columns): appends ``align_score``
    (probability the caption describes the image; null when the image
    fails to decode or the caption is empty) and ``align_flag``."""

    def __init__(self, threshold: float = ALIGN_THRESHOLD):
        from ..imaging.codec import decode_image  # local import: actor init

        self._decode = decode_image
        self.model = _AlignModel()  # ONCE per actor
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        bodies = batch.column("bytes").to_pylist()
        caps = batch.column("caption").to_pylist()
        probs: list[float | None] = [None] * len(bodies)
        idx: list[int] = []
        pixels: list[np.ndarray] = []
        kept_caps: list[str] = []
        for i, (body, cap) in enumerate(zip(bodies, caps)):
            if body is None or not cap:
                continue
            try:
                px, _ = self._decode(body)
            except Exception:
                continue
            idx.append(i)
            pixels.append(px)
            kept_caps.append(cap)
        if pixels:
            scores = self.model.predict(pixels, kept_caps)
            for i, s in zip(idx, scores):
                probs[i] = float(s)
        flags = [p is not None and p >= self.threshold for p in probs]
        return batch.append_column(
            "align_score", pa.array(probs, pa.float64())
        ).append_column("align_flag", pa.array(flags, pa.bool_()))
