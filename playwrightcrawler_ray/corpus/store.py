"""Zero-copy broadcast form of the corpus.

``ray.put`` of a Python dict deserializes per *worker process* — at N
workers that is N× pickle cost, an anti-scaling term that grows with
cluster size. This store keeps the corpus as numpy + Arrow buffers
(plasma zero-copy mmap): a sorted uint64 key index (SHA1-64 of the
URL) plus parallel Arrow arrays; lookup is a vectorized searchsorted
per batch. The same layout is what a real deployment would use for any
broadcast lookup side (extension maps, blocklists, seen snapshots).

``CorpusFetchClient`` is the corpus fetch backend: the same constructor
policy and ``lookup`` contract as ``corpus.httpserve.HttpFetchClient``,
so the crawl stages call one client whichever backend serves the bytes.
"""

from __future__ import annotations

import time
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa

import ray

from ..urlkit.ids import url_id_64
from .generate import CorpusData


def put_corpus_index(corpus: CorpusData, latency: bool = False):
    """Build + put the zero-copy index. Returns an ObjectRef.

    The corpus's failure injection (``flaky``, ``partial``, and
    ``latency_ms`` when ``latency``) rides in the same object, so a
    client built from the ref injects exactly this corpus's faults."""
    pages = corpus.pages
    urls = list(pages.keys())
    keys = np.fromiter((url_id_64(u) for u in urls), dtype=np.uint64, count=len(urls))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    urls = [urls[i] for i in order]
    recs = [pages[u] for u in urls]
    tbl = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "content_type": pa.array([r["content_type"] for r in recs], pa.string()),
            "body": pa.array(
                [r["body"] if r["status"] == 200 else b"" for r in recs], pa.binary()
            ),
            "redirect_to": pa.array(
                [r.get("redirect_to") or "" for r in recs], pa.string()
            ),
        }
    )
    status = np.array([r["status"] for r in recs], dtype=np.int32)
    faults = (dict(corpus.flaky), dict(corpus.partial),
              dict(corpus.latency_ms) if latency else {})
    return ray.put((keys, status, tbl, faults))


class CorpusIndexReader:
    """Per-worker view over the broadcast index (zero-copy ray.get).
    ``faults`` is the ``(flaky, partial, latency_ms)`` triple the index
    was put with."""

    def __init__(self, ref):
        self.keys, self.status, self.tbl, self.faults = ray.get(ref)
        self._urls = self.tbl.column("url")

    def lookup(self, urls: list[str]):
        """Vectorized lookup. Returns (status, content_type, body,
        redirect) python lists aligned to ``urls``; 404/empty for
        misses."""
        h = np.fromiter((url_id_64(u) for u in urls), dtype=np.uint64,
                        count=len(urls))
        idx = np.searchsorted(self.keys, h)
        idx = np.minimum(idx, len(self.keys) - 1)
        hit = self.keys[idx] == h
        # guard against 64-bit collisions with a direct URL equality check
        out_status, out_ct, out_body, out_redir = [], [], [], []
        ct_col = self.tbl.column("content_type")
        body_col = self.tbl.column("body")
        red_col = self.tbl.column("redirect_to")
        for i, u in enumerate(urls):
            j = int(idx[i])
            if hit[i] and self._urls[j].as_py() == u:
                out_status.append(int(self.status[j]))
                out_ct.append(ct_col[j].as_py())
                out_body.append(body_col[j].as_py())
                out_redir.append(red_col[j].as_py())
            else:
                out_status.append(404)
                out_ct.append("")
                out_body.append(b"")
                out_redir.append("")
        return out_status, out_ct, out_body, out_redir


class CorpusFetchClient(CorpusIndexReader):
    """Fetch client over the broadcast index with ``HttpFetchClient``'s
    policy and ``lookup`` contract. Injects the corpus's faults the way
    the loopback server (corpus/httpserve.py) does:

    - ``latency_ms[host]``: a batch sleeps its slowest host's latency
      once (an async client issues the batch concurrently);
    - ``flaky[url] = n``: n failed attempts, each but the last allowed
      one followed by an exponential backoff sleep (reference
      downloader.py:262-302); ``n >= retries`` exhausts to
      ``(599, "", b"", "")``;
    - ``partial[url] = c``: every response is cut at ``c`` bytes; with
      ``range_resume`` the ranged re-requests reassemble the whole
      body, without it the first ``c`` bytes are kept.

    Faults count per lookup, where the server counts attempts per URL
    over its lifetime; a crawl fetches each URL once, so both backends
    return the same bytes."""

    def __init__(self, ref, retries: int = 3, backoff_base_s: float = 0.01,
                 range_resume: bool = True):
        super().__init__(ref)
        self.flaky, self.partial, self.latency_ms = self.faults
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.range_resume = range_resume

    def lookup(self, urls: list[str]):
        status, ctype, body, redirect = super().lookup(urls)
        if self.latency_ms and urls:
            time.sleep(max(self.latency_ms.get(urlsplit(u).hostname, 0)
                           for u in urls) / 1000.0)
        for i, u in enumerate(urls):
            failures = self.flaky.get(u, 0)
            for k in range(min(failures, self.retries - 1)):
                time.sleep(self.backoff_base_s * 2 ** k)
            cut = self.partial.get(u)
            if failures >= self.retries:
                status[i], ctype[i], body[i], redirect[i] = 599, "", b"", ""
            elif cut and not self.range_resume:
                body[i] = body[i][:cut]
        return status, ctype, body, redirect
