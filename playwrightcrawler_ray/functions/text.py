"""Text analytics: the reference's word extraction plus the
training-data text operators (language ID, quality scoring, token
counting, fingerprinting) that a 100 TB pipeline needs.

All functions are pure and per-document; batch stages call them row-wise
inside ``map_batches`` (string-heavy Python kernels; the arrays stay
Arrow end-to-end and the loop body is small) or use the vectorized
variants in ops/textstats.py where a pyarrow/pandas kernel exists.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

_NON_WORD_RE = re.compile(r"[^\w\s]", re.UNICODE)


def extract_top_words(
    text: str,
    remove_special_chars: bool = True,
    to_lower: bool = True,
    min_len: int = 3,
    max_len: int = 40,
    max_words: int = 24000,
) -> list[str]:
    """Frequency-ranked word list (reference extract_top_words_from_text,
    playwrightcrawler.py:4309-4339): optional punctuation strip +
    lowercase, keep ``min_len < len(w) <= max_len``, top ``max_words``
    by count (Counter.most_common tie order = first-seen, matched here
    because Counter preserves insertion order)."""
    if remove_special_chars:
        text = _NON_WORD_RE.sub(" ", text)
    if to_lower:
        text = text.lower()
    words = [w for w in text.split() if min_len < len(w) <= max_len]
    return [w for w, _ in Counter(words).most_common(max_words)]


# --- language ID (n-gram heuristic; capability add, SURVEY.md "text analysis") ---

# Tiny per-language stopword profiles. Scores are fraction of tokens hitting
# the profile; best profile wins, 'und' when nothing scores.
_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to a in is that it for on with as are was be this have".split()),
    "de": frozenset("der die das und ist nicht ein eine zu mit von auf für den im sie".split()),
    "fr": frozenset("le la les des une est pas que pour dans sur avec par ce il".split()),
    "es": frozenset("el la los las una es no que por para con del se su al".split()),
    "pt": frozenset("o os uma é não que por para com do da em um se como".split()),
}


def detect_language(text: str) -> str:
    toks = text.lower().split()
    if not toks:
        return "und"
    best, best_score = "und", 0.0
    for lang, stops in _LANG_PROFILES.items():
        score = sum(1 for t in toks if t in stops) / len(toks)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0.02 else "und"


def quality_signals(text: str) -> dict[str, float]:
    """Cheap quality heuristics for training-data filtering: length,
    token stats, punctuation/alpha ratios, stopword ratio (en profile)."""
    n_chars = len(text)
    toks = text.split()
    n_tokens = len(toks)
    n_alpha = sum(c.isalpha() for c in text)
    n_punct = sum(not c.isalnum() and not c.isspace() for c in text)
    stops = _LANG_PROFILES["en"]
    stop_hits = sum(1 for t in toks if t.lower() in stops)
    return {
        "n_chars": float(n_chars),
        "n_tokens": float(n_tokens),
        "mean_token_len": (sum(len(t) for t in toks) / n_tokens) if n_tokens else 0.0,
        "alpha_ratio": n_alpha / n_chars if n_chars else 0.0,
        "punct_ratio": n_punct / n_chars if n_chars else 0.0,
        "stopword_ratio": stop_hits / n_tokens if n_tokens else 0.0,
    }


def fingerprint64(text: str) -> int:
    """Deterministic 64-bit document *identity* fingerprint (blake2b-8):
    equal texts → equal ids, distinct texts → distinct with p≈2^-64."""
    data = text.encode("utf-8", errors="surrogatepass")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def rolling_min_fingerprint(text: str, window: int = 8) -> int:
    """64-bit *similarity* fingerprint: minimum of a rolling polynomial
    hash over byte windows (winnowing-style — documents sharing long
    substrings tend to share it; use for cheap near-dup pre-bucketing)."""
    data = text.encode("utf-8", errors="surrogatepass")
    if len(data) <= window:
        return fingerprint64(text)
    best = (1 << 64) - 1
    h = 0
    base, mod = 1000003, (1 << 61) - 1
    power = pow(base, window - 1, mod)
    for i, b in enumerate(data):
        if i >= window:
            h = (h - data[i - window] * power) % mod
        h = (h * base + b) % mod
        if i >= window - 1 and h < best:
            best = h
    return best
