"""Pyarrow batch functions for the crawl wave's stages.

Each stage maps a ``pa.Table`` batch to a ``pa.Table``. The crawl
driver chains all four inside one plain Ray task per wave chunk
(pipelines/crawl.py); the same functions also fit Ray Data's
``map_batches(fn, batch_format="pyarrow")``. They are *stateless*
functions (not actor pools) built by factories that close over
broadcast object refs and actor handles. Rationale: a crawl runs many
short waves; per-wave actor-pool startup (~0.5 s × pool × stage ×
wave) would dominate. Worker *processes* persist across tasks, so
per-process state (corpus dict, compiled regex tables) lives in
module-level caches — same amortization as an actor ``__init__``,
without pool churn. The NSFW-style scorer stage
(stages/nsfw.py) shows the true actor-pool pattern where per-worker
state is a loaded model.

Batch format is pyarrow end-to-end; per-row Python runs only where the
work is inherently per-document (HTML parse, image decode) — the
reference's hot path is the same shape (SURVEY.md §2.2 M15-M23).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from itertools import chain

import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..config import CrawlConfig
from ..core.schemas import UNIFIED_SCHEMA
from .process import ProcessContext, process_fetched, process_image_payload

TRANSIT_SCHEMA = UNIFIED_SCHEMA.append(pa.field("body", pa.binary()))

# per-process caches, LRU-capped: worker processes outlive a crawl, and
# an entry pins what it holds (the corpus index in the object store,
# stage closures with shard actor handles) until it is evicted
_OBJ_CACHE: OrderedDict = OrderedDict()
_OBJ_CACHE_CAP = 8
_CTX_CACHE: OrderedDict = OrderedDict()
_CTX_CACHE_CAP = 4
_MISS = object()


def _memo(cache: OrderedDict, cap: int, key, make):
    hit = cache.get(key, _MISS)
    if hit is _MISS:
        hit = cache[key] = make()
        if len(cache) > cap:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return hit


def _cached_get(ref):
    return _memo(_OBJ_CACHE, _OBJ_CACHE_CAP, ref.hex(), lambda: ray.get(ref))


def _wait_holding_cpu(refs, poll_s: float = 0.001):
    """ray.get that does NOT release the task's CPU slot while waiting.

    A blocking ray.get inside a task yields its CPU to the raylet,
    which responds by starting additional worker processes — at high
    num_cpus this becomes a worker-spawn storm (measured: 128 cold
    workers each paying module import, 2× wall-time regression). The
    dedup RPC completes in ~1 ms, so holding the slot and polling is
    strictly cheaper."""
    import time as _t

    pending = list(refs)
    while True:
        ready, pending = ray.wait(pending, num_returns=len(pending), timeout=0)
        if not pending:
            break
        _t.sleep(poll_s)
    return ray.get(refs)


def stage_chain(ref):
    """The wave's stage closures behind ``ref``, unpickled once per
    worker process rather than per chunk task. Keyed by the ref: a
    rebuild after actor-loss recovery is a new ref, so closures holding
    handles to a dead fleet are never reused. A miss holds the task's
    CPU slot while it waits (``_wait_holding_cpu``)."""
    return _memo(_OBJ_CACHE, _OBJ_CACHE_CAP, "stages:" + ref.hex(),
                 lambda: _wait_holding_cpu([ref])[0])


def _corpus_reader(ref):
    from ..corpus.store import CorpusIndexReader

    return _memo(_OBJ_CACHE, _OBJ_CACHE_CAP, "corpus:" + ref.hex(),
                 lambda: CorpusIndexReader(ref))


def _http_client(addr: str, retries: int, backoff_base_s: float,
                 range_resume: bool):
    """Per-process cached real-socket fetch client (corpus/httpserve.py)
    — the deployment-shaped backend behind the same ``lookup``
    interface as the broadcast corpus reader."""
    from ..corpus.httpserve import HttpFetchClient

    return _memo(
        _OBJ_CACHE, _OBJ_CACHE_CAP,
        f"http:{addr}:{retries}:{backoff_base_s}:{range_resume}",
        lambda: HttpFetchClient(addr, retries=retries,
                                backoff_base_s=backoff_base_s,
                                range_resume=range_resume),
    )


def _ctx_for(cfg: CrawlConfig) -> ProcessContext:
    return _memo(_CTX_CACHE, _CTX_CACHE_CAP, repr(cfg),
                 lambda: ProcessContext(cfg))


# per-process external-script source cache: (job namespace, abs url)
# → decoded source. A browser's script cache — the same /app.js is
# referenced by nearly every page of a host, so each worker process
# pays the fetch + charset decode once per job. Fetch FAILURES are not
# cached (transient); sources are small text; LRU-capped.
_SCRIPT_MEMO: OrderedDict = OrderedDict()
_SCRIPT_MEMO_CAP = 4096


def _script_fetcher(corpus_ref, http_addr: str | None, retries: int,
                    backoff_base_s: float, range_resume: bool):
    """Build the per-process ``script_fetch`` callback for the parse
    stage: bytes come from the same backend the page came from (the
    zero-copy broadcast corpus index, or the real-socket client under
    ``fetch_backend="http"``), decode + canonicalization are shared
    with the oracle via process.make_script_fetcher."""
    from ..stages.process import make_script_fetcher

    def lookup_bytes(url: str):
        if http_addr:
            client = _http_client(http_addr, retries, backoff_base_s,
                                  range_resume)
            status, _ct, body, _r = client.lookup([url])
        else:
            status, _ct, body, _r = _corpus_reader(corpus_ref).lookup([url])
        return body[0] if status[0] == 200 else None

    base = make_script_fetcher(lookup_bytes)
    # namespace the per-process cache by the JOB's corpus identity:
    # worker processes outlive a run_crawl call, and two crawls in one
    # Ray session may serve different bytes at the same script URL —
    # cross-job hits would execute the previous corpus's source and
    # diverge from the oracle. The broadcast corpus ObjectRef hex is
    # unique per job; the http backend's host:port is per-server.
    ns = corpus_ref.hex() if corpus_ref is not None else str(http_addr)

    def fetch(abs_url: str):
        key = (ns, abs_url)
        hit = _SCRIPT_MEMO.get(key, _MISS)
        if hit is not _MISS:
            _SCRIPT_MEMO.move_to_end(key)
            return hit
        src = base(abs_url)
        if src is not None:
            # cache only successes: a transient fetch failure (e.g. a
            # 503 burst exhausting retries) must not pin this worker to
            # "script missing" for the rest of the run
            _SCRIPT_MEMO[key] = src
            if len(_SCRIPT_MEMO) > _SCRIPT_MEMO_CAP:
                _SCRIPT_MEMO.popitem(last=False)
        return src

    return fetch


def _range_resume(full: bytes, chunk: int, enabled: bool) -> bytes:
    """Simulated ranged download (reference downloader.py:212-302): the
    server truncates every response at ``chunk`` bytes; the client
    re-requests with ``Range: bytes=<assembled>-`` until the payload is
    complete. With resume disabled, only the first response survives —
    a truncated body (what a naive client would store)."""
    assembled = full[:chunk]
    if not enabled:
        return assembled
    while len(assembled) < len(full):
        nxt = full[len(assembled): len(assembled) + chunk]
        if not nxt:  # server stopped serving: give up with what we have
            break
        assembled += nxt
    return assembled


def make_fetch_fn(corpus_ref, latency_ref=None, flaky_ref=None,
                  retries: int = 3, backoff_base_s: float = 0.01,
                  partial_ref=None, range_resume: bool = True,
                  http_addr: str | None = None):
    """Wave-input batch (url, host, wave) → + status/content_type_raw/
    body/redirect_to, resolved against the broadcast corpus.

    With ``latency_ref`` set (bench realism), the batch sleeps the max
    per-host latency once — modeling an async HTTP client that issues
    the whole batch concurrently and completes with the slowest
    response, which is what the real fetch actor would do.

    Transient failures (``flaky_ref``: url → failure count) are retried
    with exponential backoff ×2 up to ``retries`` attempts (reference
    downloader semantics, downloader.py:262-302); exhausted retries
    yield status 599 (→ a ``fetch_error_599`` doc, terminal).

    With ``http_addr`` (``fetch_backend="http"``) the batch is fetched
    over a REAL socket from the loopback vhost server
    (corpus/httpserve.py): retries/backoff/Range-resume run in the
    client, latency/flakiness/truncation happen server-side, and the
    latency/flaky/partial simulation refs are ignored."""
    import time as _time

    def fetch(batch: pa.Table) -> pa.Table:
        if http_addr:
            client = _http_client(http_addr, retries, backoff_base_s,
                                  range_resume)
            urls = batch.column("url").to_pylist()
            status, ctype, body, redirect = client.lookup(urls)
            return (
                batch.append_column("status", pa.array(status, pa.int32()))
                .append_column("content_type_raw", pa.array(ctype, pa.string()))
                .append_column("body", pa.array(body, pa.binary()))
                .append_column("redirect_to", pa.array(redirect, pa.string()))
            )
        reader = _corpus_reader(corpus_ref)
        if latency_ref is not None:
            lat: dict[str, int] = _cached_get(latency_ref)
            if lat:
                hosts = set(batch.column("host").to_pylist())
                _time.sleep(max(lat.get(h, 0) for h in hosts) / 1000.0)
        urls = batch.column("url").to_pylist()
        status, ctype, body, redirect = reader.lookup(urls)
        if flaky_ref is not None:
            flaky: dict[str, int] = _cached_get(flaky_ref)
            for i, u in enumerate(urls):
                failures = flaky.get(u, 0)
                if not failures:
                    continue
                attempt, backoff = 1, backoff_base_s
                while attempt <= failures and attempt < retries:
                    _time.sleep(backoff)
                    backoff *= 2
                    attempt += 1
                if failures >= retries:  # exhausted → terminal error
                    status[i], ctype[i], body[i], redirect[i] = 599, "", b"", ""
        if partial_ref is not None:
            part: dict[str, int] = _cached_get(partial_ref)
            for i, u in enumerate(urls):
                n = part.get(u)
                if n and body[i]:
                    body[i] = _range_resume(body[i], n, range_resume)
        return (
            batch.append_column("status", pa.array(status, pa.int32()))
            .append_column("content_type_raw", pa.array(ctype, pa.string()))
            .append_column("body", pa.array(body, pa.binary()))
            .append_column("redirect_to", pa.array(redirect, pa.string()))
        )

    return fetch


def make_parse_fn(cfg: CrawlConfig, corpus_ref=None,
                  http_addr: str | None = None, retries: int = 3,
                  backoff_base_s: float = 0.01,
                  range_resume: bool = True):
    """Fetched batch → unified page/imgref/link rows.

    With ``corpus_ref``/``http_addr`` and
    ``cfg.execute_external_scripts``, the render pass resolves external
    ``<script src>`` subresources through the same fetch backend as the
    page (memoized per process — ``_SCRIPT_MEMO``) and executes them in
    document order (reference: Playwright runs every page script,
    playwrightcrawler.py:5174-5185).

    Discovered links are emitted IN-BAND as ``kind='link'`` rows (the
    reference persists its links index the same way,
    playwrightcrawler.py:1636-1651); the driver relays them to the
    frontier after the wave's write barrier. No actor RPC happens
    inside tasks — a blocking ray.get in a task yields its CPU and
    triggers raylet worker-spawn storms (measured: 128 cold workers,
    each paying module import)."""

    def parse(batch: pa.Table) -> pa.Table:
        ctx = _ctx_for(cfg)
        if (cfg.execute_external_scripts and cfg.render_js
                and ctx.script_fetch is None
                and (corpus_ref is not None or http_addr)):
            ctx.script_fetch = _script_fetcher(
                corpus_ref, http_addr, retries, backoff_base_s,
                range_resume)
        rows_out: list[dict] = []
        link_url, link_host, link_parent, link_wave = [], [], [], []
        cols = batch.select(
            ["url", "host", "wave", "ord", "status", "content_type_raw",
             "body", "redirect_to"]
        ).to_pylist()
        for r in cols:
            content_rows, offers, imgrefs = process_fetched(
                r["url"], r["host"], int(r["wave"]), int(r["status"]),
                r["content_type_raw"], r["body"] or b"", r["redirect_to"], ctx,
            )
            # lineage ord: page_ord * 2^20 + emit_seq (schemas.py). Total
            # order over the wave's rows matching the sequential oracle's
            # processing order — the deterministic dedup tiebreak.
            base_ord = int(r["ord"]) << 20
            for seq, row in enumerate(chain(content_rows, imgrefs)):
                row["ord"] = base_ord + seq
            rows_out.extend(content_rows)
            rows_out.extend(imgrefs)
            for url, _h64, host, _path, wave in offers:
                link_url.append(url)
                link_host.append(host)
                link_parent.append(r["host"])
                link_wave.append(int(wave))
        main = pa.Table.from_pylist(rows_out, schema=TRANSIT_SCHEMA)
        if not link_url:
            return main
        # link rows are ~10× the page rows: build them columnar (filled
        # columns + null arrays), not as 40-field dicts per row
        n = len(link_url)
        filled = {
            "kind": pa.array(["link"] * n, pa.string()),
            "url": pa.array(link_url, pa.string()),
            "host": pa.array(link_host, pa.string()),
            "parent_host": pa.array(link_parent, pa.string()),
            "wave": pa.array(link_wave, pa.int32()),
            "visited": pa.array([False] * n, pa.bool_()),
            "source": pa.array(["link"] * n, pa.string()),
        }
        links = pa.table(
            {
                f.name: filled.get(f.name, pa.nulls(n, f.type))
                for f in TRANSIT_SCHEMA
            },
            schema=TRANSIT_SCHEMA,
        )
        return pa.concat_tables([main, links])

    return parse


def make_offer_fn(frontier_handles: list):
    """Link relay: batches of ``kind='link'`` rows → shard-routed
    frontier offers. The decode stage calls it on each batch, so the
    relay work (sha1, urlsplit, actor RPC) runs in the chunk tasks
    instead of a driver loop."""
    from urllib.parse import urlsplit

    from ..state.frontier import shard_of
    from ..urlkit.ids import url_id_64

    n = len(frontier_handles)

    def offer(batch: pa.Table) -> pa.Table:
        by_shard: dict[int, list] = defaultdict(list)
        seen_local: set[str] = set()  # in-batch dedup: pages of one host
        # cluster in a batch and rediscover the same URLs heavily
        for u, h, w in zip(
            batch.column("url").to_pylist(),
            batch.column("host").to_pylist(),
            batch.column("wave").to_pylist(),
        ):
            if u in seen_local:
                continue
            seen_local.add(u)
            p = urlsplit(u)
            by_shard[shard_of(h, n)].append(
                (u, url_id_64(u), h, p.path or "/", int(w))
            )
        if by_shard:
            _wait_holding_cpu(
                [frontier_handles[s].offer.remote(v) for s, v in by_shard.items()]
            )
        return pa.table({"offered": pa.array([batch.num_rows], pa.int64())})

    return offer


def make_imgfetch_fn(corpus_ref, latency_ref=None, dedup_handles: list | None = None,
                     partial_ref=None, range_resume: bool = True,
                     http_addr: str | None = None, retries: int = 3,
                     backoff_base_s: float = 0.01):
    """Fill missing bodies of imgref rows from the corpus (subresource
    fetch; the reference's response-listener path, :5174-5185).

    With ``dedup_handles``, subresource URLs already fetched in ANY
    prior wave are dropped before fetching (namespaced entry in the
    global dedup service). The reference re-downloads subresources per
    page visit but its ``_id`` upsert makes revisits invisible
    (playwrightcrawler.py:1646-1651) — skipping the refetch preserves
    final-table semantics while removing ~90% of decode work.

    In-wave duplicates across parallel batches are all KEPT here
    (``stage_many_keyed`` claims, prior-wave check only); the driver resolves
    the few conflicts deterministically by ``ord`` at the wave barrier,
    so RPC arrival order never picks the surviving caption/parent_host
    (ADVICE round 1). Within one batch rows are ord-sorted, so the
    in-batch first-wins dedup already keeps the min-ord claimant."""
    import time as _time

    from ..urlkit.ids import url_id_64

    def imgfetch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        reader = _corpus_reader(corpus_ref)
        kinds = batch.column("kind").to_pylist()
        urls = batch.column("url").to_pylist()
        bodies = batch.column("body").to_pylist()
        need = [i for i, (k, b) in enumerate(zip(kinds, bodies))
                if k == "imgref" and b is None]
        if need and dedup_handles is not None:
            ords = batch.column("ord").to_pylist()
            n_shards = len(dedup_handles)
            by_shard: dict[int, list[tuple[int, int]]] = defaultdict(list)
            pos_by_shard: dict[int, list[int]] = defaultdict(list)
            seen_in_batch: set[str] = set()
            keep: set[int] = set()
            for i in need:
                if urls[i] in seen_in_batch:
                    continue
                seen_in_batch.add(urls[i])
                h = url_id_64("imgvisit:" + urls[i])
                s = h % n_shards
                by_shard[s].append((h, int(ords[i])))
                pos_by_shard[s].append(i)
            masks = _wait_holding_cpu(
                [dedup_handles[s].stage_many_keyed.remote(v, 0)
                 for s, v in by_shard.items()]
            )
            for (s, _), mask in zip(by_shard.items(), masks):
                for pos, is_new in zip(pos_by_shard[s], mask):
                    if is_new:
                        keep.add(pos)
            drop = [i for i in need if i not in keep]
            if drop:
                import numpy as np

                sel = np.ones(batch.num_rows, dtype=bool)
                sel[drop] = False
                batch = batch.filter(pa.array(sel))
                kinds = batch.column("kind").to_pylist()
                urls = batch.column("url").to_pylist()
                bodies = batch.column("body").to_pylist()
                need = [i for i, (k, b) in enumerate(zip(kinds, bodies))
                        if k == "imgref" and b is None]
        changed = bool(need)
        fetched_hosts = set()
        if need and http_addr:
            # real-socket subresource fetch: Range-resume and retries
            # happen inside the client, truncation/latency server-side
            client = _http_client(http_addr, retries, backoff_base_s,
                                  range_resume)
            _, _, fetched, _ = client.lookup([urls[i] for i in need])
            for i, b in zip(need, fetched):
                bodies[i] = b
        elif need:
            _, _, fetched, _ = reader.lookup([urls[i] for i in need])
            part = _cached_get(partial_ref) if partial_ref is not None else {}
            for i, b in zip(need, fetched):
                n = part.get(urls[i])
                if n and b:
                    b = _range_resume(b, n, range_resume)
                bodies[i] = b
                fetched_hosts.add(urls[i].split("/", 3)[2])
        if changed and latency_ref is not None:
            lat: dict[str, int] = _cached_get(latency_ref)
            if lat:
                _time.sleep(max(lat.get(h, 0) for h in fetched_hosts) / 1000.0)
        if not changed:
            return batch
        idx = batch.schema.get_field_index("body")
        return batch.set_column(idx, "body", pa.array(bodies, pa.binary()))

    return imgfetch


def make_decode_fn(cfg: CrawlConfig, dedup_handles: list,
                   frontier_handles: list | None = None):
    """imgref rows → decoded content doc + (if the pixel hash was not
    seen in any PRIOR wave, per the global DedupShard service) the image
    row; page rows pass through untouched. Output schema: UNIFIED
    (transit body dropped). In-wave pixel-hash duplicates are all kept
    (``stage_many_keyed``) and resolved deterministically by ``ord`` at the
    wave barrier — see DedupShard's two-phase protocol.

    With ``frontier_handles``, the batch's link rows are ALSO offered
    to the frontier here (awaited with the CPU-holding wait): decode is
    the last stage before the write sink, so the wave's write barrier
    then implies every offer was processed — same exactness as a
    separate post-wave offer pass, without a second pass per wave."""
    num_shards = len(dedup_handles)
    _offer_inline = (
        make_offer_fn(frontier_handles) if frontier_handles is not None else None
    )

    def _stamp_yyyymm(t: pa.Table) -> pa.Table:
        # monthly time-partition key on every persisted row (decode is
        # the last stage before the wave sink)
        return t.set_column(
            t.schema.get_field_index("yyyymm"), "yyyymm",
            pa.array([cfg.crawl_yyyymm] * t.num_rows, pa.string()),
        )

    def decode(batch: pa.Table) -> pa.Table:
        ctx = _ctx_for(cfg)
        if _offer_inline is not None:
            link_mask = pc.equal(batch.column("kind"), "link")
            links = batch.filter(link_mask)
            if links.num_rows:
                _offer_inline(links.select(["url", "host", "wave"]))
        img_mask = pc.equal(batch.column("kind"), "imgref")
        passthrough = batch.filter(pc.invert(img_mask)).drop_columns(["body"])
        img_part = batch.filter(img_mask)
        if img_part.num_rows == 0:
            return _stamp_yyyymm(passthrough)
        docs: list[dict] = []
        image_rows: list[dict] = []
        for r in img_part.select(
            ["url", "host", "parent_host", "wave", "ord", "subresource",
             "caption", "body"]
        ).to_pylist():
            doc, img = process_image_payload(
                r["url"], r["host"], r["parent_host"] or r["host"],
                int(r["wave"]), r["caption"] or "", r["body"] or b"", ctx,
            )
            # doc + image row inherit the imgref's lineage ord: one
            # claimant = one ord, the conflict-resolution key
            if doc:
                doc["ord"] = r["ord"]
                doc["subresource"] = r["subresource"]
                docs.append(doc)
            if img:
                img["ord"] = r["ord"]
                img["subresource"] = r["subresource"]
                image_rows.append(img)
        if image_rows:
            by_shard: dict[int, list[tuple[int, int]]] = defaultdict(list)
            row_pos: dict[int, list[int]] = defaultdict(list)
            for i, row in enumerate(image_rows):
                h64 = int(row["pixel_sha1"][:16], 16)
                s = h64 % num_shards
                by_shard[s].append((h64, int(row["ord"])))
                row_pos[s].append(i)
            masks = _wait_holding_cpu(
                [dedup_handles[s].stage_many_keyed.remote(hs, 1)
                 for s, hs in by_shard.items()]
            )
            keep = set()
            for (s, _), mask in zip(by_shard.items(), masks):
                for pos, is_new in zip(row_pos[s], mask):
                    if is_new:
                        keep.add(pos)
            image_rows = [r for i, r in enumerate(image_rows) if i in keep]
        new_tbl = pa.Table.from_pylist(docs + image_rows, schema=UNIFIED_SCHEMA)
        return _stamp_yyyymm(pa.concat_tables([passthrough, new_tbl]))

    return decode
