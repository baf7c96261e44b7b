"""Test-only pixel metric: PSNR, the allclose invariant the lossy
codec tests and the crawl goldens assert."""

from __future__ import annotations

import numpy as np


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 pixel arrays
    (inf for identical)."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)
