"""Post-crawl pipelines over the output tables: the downloader
analogue, phash near-dup buckets, analytics distributions, and the
retroactive-cleanup verifier.

These operate on the crawl's parquet output (unified schema) exactly
the way the reference's second-phase tools operate on its ES indices:

- ``filtered_urls``       ← downloader.get_filtered_urls (S9,
  downloader.py:81-164): regex include/exclude over
  file_extension / content_type / host, shuffle, limit.
- ``phash_buckets``       ← near-dup image buckets on the 64-bit dHash
  (D4): groupby phash prefix bands.
- ``host_level_counts`` / ``dir_depth_histogram`` ← README-documented
  analytics (A5, reference README.md:21-39).
- ``verify_admission_invariants`` ← cleanup_elasticsearch_indexes
  (playwrightcrawler.py:3558-3730): the reference re-applies filters
  retroactively; our admission filtering is total, so the pass is a
  verifier that returns violations (must be empty).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

# byte-wise popcount lookup for vectorized Hamming distance on uint64
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

from ..config import CrawlConfig
from ..ops.io import to_frame
from ..stages.process import ProcessContext
from ..urlkit.canonicalize import canonicalize_url
from .crawl import load_unified


def filtered_urls(
    output_dir: str,
    include_ext: list[str] | None = None,
    exclude_ext: list[str] | None = None,
    include_ct: list[str] | None = None,
    include_host: list[str] | None = None,
    limit: int | None = None,
    seed: int = 7,
):
    """Downloader URL selection over the pages table (reference
    get_filtered_urls semantics: regex filters → shuffle → limit)."""
    ds = load_unified(output_dir, columns=[
        "kind", "url", "host", "content_type", "file_extension"])

    def flt(t: pa.Table) -> pa.Table:
        mask = pc.equal(t.column("kind"), "page")
        if include_ext:
            mask = pc.and_(mask, pc.match_substring_regex(
                t.column("file_extension"), "|".join(include_ext)))
        if exclude_ext:
            mask = pc.and_(mask, pc.invert(pc.match_substring_regex(
                t.column("file_extension"), "|".join(exclude_ext))))
        if include_ct:
            mask = pc.and_(mask, pc.match_substring_regex(
                t.column("content_type"), "|".join(include_ct)))
        if include_host:
            mask = pc.and_(mask, pc.match_substring_regex(
                t.column("host"), "|".join(include_host)))
        mask = pc.fill_null(mask, False)
        return t.filter(mask).select(["url", "host", "content_type",
                                      "file_extension"])

    out = ds.map_batches(flt, batch_format="pyarrow").random_shuffle(seed=seed)
    if limit:
        out = out.limit(limit)
    return out


def phash_buckets(
    output_dir: str, band_bits: int = 16, max_hamming: int = 10
) -> pd.DataFrame:
    """Near-dup image buckets: group images whose top ``band_bits`` of
    the dHash agree AND whose full 64-bit hashes are Hamming-close
    (≤ ``max_hamming`` to at least one other member). Returns buckets
    with ≥2 surviving members (candidate near-dup sets)."""
    ds = load_unified(output_dir,
                      columns=["kind", "phash", "image_id", "caption"])

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("kind"), "image"))
        band = pc.bit_wise_and(
            pc.shift_right(t.column("phash"), 64 - band_bits),
            (1 << band_bits) - 1,
        )
        return pa.table(
            {"band": band, "phash": t.column("phash"),
             "image_id": t.column("image_id"), "caption": t.column("caption")}
        )

    def bucketize(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"band": [], "n_members": [], "image_ids": []})
        if len(g) < 2:
            return empty
        # pairwise Hamming over the band group (bands are small by
        # construction — 2^band_bits spreads the corpus): keep members
        # within max_hamming of at least one other member
        ph = g["phash"].to_numpy().astype(np.int64).view(np.uint64)
        xor = ph[:, None] ^ ph[None, :]
        dist = np.zeros(xor.shape, dtype=np.int64)
        for _ in range(8):
            dist += _POPCNT8[(xor & np.uint64(0xFF)).astype(np.uint8)]
            xor = xor >> np.uint64(8)
        np.fill_diagonal(dist, 64 + 1)
        close = (dist <= max_hamming).any(axis=1)
        if close.sum() < 2:
            return empty
        return pd.DataFrame(
            {
                "band": [int(g["band"].iloc[0])],
                "n_members": [int(close.sum())],
                "image_ids": [sorted(g["image_id"].to_numpy()[close].tolist())],
            }
        )

    return to_frame(
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("band")
        .map_groups(bucketize, batch_format="pandas")
    )


def host_level_counts(output_dir: str, level: int = 2) -> pd.DataFrame:
    """Distribution over host_level_N (A5; e.g. registered domains)."""
    col = f"host_level_{level}"
    ds = load_unified(output_dir, columns=["kind", col])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["kind"] == "page"]
        return df.groupby(col, as_index=False, sort=False).agg(
            n_pages=(col, "size")
        )

    parts = ds.map_batches(partial, batch_format="pandas")
    return to_frame(
        parts.repartition(1)
        .map_batches(
            lambda d: d.groupby(col, as_index=False, sort=False).agg(
                n_pages=("n_pages", "sum")
            ),
            batch_format="pandas", batch_size=None,
        )
    )


def dir_depth_histogram(output_dir: str) -> pd.DataFrame:
    """Histogram of directory depth across crawled pages (A5)."""
    ds = load_unified(
        output_dir,
        columns=["kind"] + [f"directory_level_{i}" for i in range(1, 8)],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["kind"] == "page"].copy()
        levels = [f"directory_level_{i}" for i in range(1, 8)]
        depth = (df[levels].fillna("") != "").sum(axis=1)
        out = depth.value_counts().rename_axis("depth").reset_index(name="n")
        return out

    parts = ds.map_batches(partial, batch_format="pandas")
    out = to_frame(
        parts.repartition(1)
        .map_batches(
            lambda d: d.groupby("depth", as_index=False, sort=False).agg(
                n=("n", "sum")
            ),
            batch_format="pandas", batch_size=None,
        )
    )
    return out.sort_values("depth").reset_index(drop=True)


def verify_admission_invariants(output_dir: str, cfg: CrawlConfig | None = None) -> pd.DataFrame:
    """Retroactive-cleanup verifier: re-apply every admission rule the
    reference's cleanup passes enforce (canonical fixed point, allow/
    block lists, repeated segments, URL length) and return violating
    rows — empty ⇔ admission filtering was total."""
    ctx = ProcessContext(cfg or CrawlConfig())
    ds = load_unified(output_dir, columns=["kind", "url", "host"])

    def check(df: pd.DataFrame) -> pa.Table:
        df = df[df["kind"] == "page"]
        bad = []
        for url, host in zip(df["url"], df["host"]):
            u = url.split("|", 1)[0]  # email pseudo-doc urls carry |addr
            if canonicalize_url(u) != u:
                bad.append({"url": url, "violation": "not_canonical"})
            elif host and not ctx.policy.admit(u, host):
                bad.append({"url": url, "violation": "inadmissible"})
        # typed columns: Ray cannot size an empty object column
        return pa.Table.from_pylist(bad, schema=pa.schema(
            [("url", pa.string()), ("violation", pa.string())]))

    return to_frame(ds.map_batches(check, batch_format="pandas"))


def export_media_files(output_dir: str, dest: str,
                       scrub_exif: bool = False) -> pd.DataFrame:
    """Write every stored image payload to a file tree under ``dest``
    using the reference downloader's traversal-proof URL→path mapping
    (downloader.py:167-209 / :255-300 via urlkit.filepath). Distributed:
    each batch writes its own rows; a shared filesystem (as on a real
    cluster) receives one file per URL, overwrite-idempotent. Returns a
    small manifest (url, path, n_bytes).

    ``scrub_exif=True`` runs the byte-level EXIF privacy strip
    (imaging/exif.py — GPS coordinates are PII) on each payload before
    writing; pixels stay bit-identical, only metadata containers are
    removed. Bare-TIFF payloads (where EXIF is structural) pass
    through unmodified rather than being re-encoded."""
    import os

    from ..imaging.exif import exif_strip
    from ..urlkit.filepath import safe_filepath_from_url

    ds = load_unified(output_dir, columns=["kind", "url", "bytes"])

    def write_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("kind"), "image"))
        urls = t.column("url").to_pylist()
        bodies = t.column("bytes").to_pylist()
        paths, sizes = [], []
        for u, b in zip(urls, bodies):
            if scrub_exif and b:
                try:
                    b = exif_strip(b)
                except ValueError:
                    pass  # structural (bare TIFF): keep verbatim
            path = safe_filepath_from_url(u, dest)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(b or b"")
            paths.append(os.path.relpath(path, dest))
            sizes.append(len(b or b""))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "path": pa.array(paths, pa.string()),
            "n_bytes": pa.array(sizes, pa.int64()),
        })

    out = to_frame(ds.map_batches(write_rows, batch_format="pyarrow"))
    return out.sort_values("url").reset_index(drop=True)


def thumb_embedding(px: "np.ndarray") -> "np.ndarray":
    """(h, w, 3) uint8 pixels → 64-dim unit-normalized 8×8 block-mean
    luma thumbnail. Exact bucketed averaging for any h, w ≥ 1 (images
    smaller than 8 px on a side repeat-sample rows/columns — never a
    zero-sum bucket, so never NaN)."""
    gray = px.astype(np.float64).mean(axis=2)
    h, w = gray.shape
    my = np.zeros((8, h))
    if h >= 8:
        my[(np.arange(h) * 8) // h, np.arange(h)] = 1.0
    else:  # fewer rows than buckets: repeat-sample rows
        my[np.arange(8), (np.arange(8) * h) // 8] = 1.0
    my /= my.sum(axis=1, keepdims=True)
    mx = np.zeros((w, 8))
    if w >= 8:
        mx[np.arange(w), (np.arange(w) * 8) // w] = 1.0
    else:
        mx[(np.arange(8) * w) // 8, np.arange(8)] = 1.0
    mx /= mx.sum(axis=0, keepdims=True)
    thumb = (my @ gray @ mx).reshape(-1)
    thumb = thumb - thumb.mean()
    n = np.linalg.norm(thumb)
    return thumb / n if n > 1e-9 else thumb


def image_semdedup(output_dir: str, k: int = 8, threshold: float = 0.92,
                   iters: int = 5, seed: int = 5) -> pd.DataFrame:
    """SemDeDup over the CRAWL'S OWN images: every stored image is
    decoded (the real pure-Python codecs), embedded as a 64-dim
    unit-normalized 8×8 block-mean luma thumbnail, and semantically
    deduplicated with the cluster-bucketed kernel from ops/ann.py —
    k-means buckets, within-cluster cosine pruning, keep-lowest-id.
    This is the image-side counterpart of ``docs_semdedup``: where the
    crawl's pixel-hash dedup removes EXACT duplicates and phash
    removes near-identical bytes, this collapses *semantically* close
    renders (the corpus's perturbed near-duplicate images land in one
    cluster with cosine ≈ 1). A production pipeline swaps the
    thumbnail embedding for a CLIP image tower; the bucketed dedup
    kernel is unchanged.

    Scale shape: decode+embed is one actor-friendly ``map_batches``
    pass (bytes stay on workers; the embedding is 512 B/image), then
    the kernel's single ``groupby(cluster)`` shuffle moves only
    (id, 64-float) rows."""
    from ..imaging.exif import decode_image_oriented
    from ..ops.ann import semdedup_dataset

    def emb_ds():
        ds = load_unified(output_dir,
                          columns=["kind", "image_id", "bytes"])

        def embed(t: pa.Table) -> pd.DataFrame:
            t = t.filter(pc.equal(t.column("kind"), "image"))
            ids, vids, vecs = [], [], []
            for image_id, body in zip(t.column("image_id").to_pylist(),
                                      t.column("bytes").to_pylist()):
                if not image_id or body is None:
                    continue
                try:
                    # EXIF-orientation-normalized: a sideways-stored
                    # copy of a photo must embed like the upright one
                    # (identity for the untagged corpus)
                    px, _, _ = decode_image_oriented(body)
                except Exception:
                    continue
                vec = thumb_embedding(px)
                ids.append(image_id)
                vids.append(int(image_id[:15], 16))  # 60-bit id prefix
                vecs.append(vec.tolist())
            return pd.DataFrame({
                "vec_id": pd.array(vids, dtype="int64"),
                "image_id": pd.array(ids, dtype="string[pyarrow]"),
                "embedding": vecs,
            })

        return ds.map_batches(embed, batch_format="pyarrow")

    out = semdedup_dataset(emb_ds, k=k, threshold=threshold,
                           iters=iters, seed=seed)
    out = out[["image_id", "cluster", "keep"]]
    return out.sort_values("image_id").reset_index(drop=True)
