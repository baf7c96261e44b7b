"""Pyarrow batch functions for the crawl wave's stages.

Each stage maps a ``pa.Table`` batch to a ``pa.Table``. The crawl
driver chains all four inside one plain Ray task per wave chunk
(pipelines/crawl.py); the same functions also fit Ray Data's
``map_batches(fn, batch_format="pyarrow")``. They are *stateless*
functions (not actor pools) built by factories that close over
broadcast object refs and actor handles. Rationale: a crawl runs many
short waves; per-wave actor-pool startup (~0.5 s × pool × stage ×
wave) would dominate. Worker *processes* persist across tasks, so
per-process state (fetch client, compiled regex tables) lives in
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
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from typing import NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..config import CrawlConfig
from ..core.schemas import UNIFIED_SCHEMA
from ..state.frontier import shard_of
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


def _wait_holding_cpu(refs, poll_s: float = 0.001):
    """ray.get that does NOT release the task's CPU slot while waiting.

    A blocking ray.get inside a task yields its CPU to the raylet,
    which responds by starting additional worker processes — at high
    num_cpus this becomes a worker-spawn storm (measured: 128 cold
    workers each paying module import, 2× wall-time regression). An
    actor RPC from a task completes in ~1 ms, so holding the slot and
    polling is strictly cheaper."""
    import time as _t

    pending = list(refs)
    while True:
        ready, pending = ray.wait(pending, num_returns=len(pending), timeout=0)
        if not pending:
            break
        _t.sleep(poll_s)
    return ray.get(refs)


# the running chunk task's holder of the frontier offer refs its parse
# stage sent and has not awaited yet (``offers_settled``)
_UNSETTLED_OFFERS: ContextVar[list] = ContextVar("unsettled_offers")


def _settle_later(refs: list) -> None:
    # a module function: a pickled stage closure calls it by name, so it
    # reads this process's context, and parse outside an
    # ``offers_settled`` block raises LookupError instead of leaving
    # its offers unawaited
    _UNSETTLED_OFFERS.get().extend(refs)


@contextmanager
def offers_settled():
    """Run a chunk's stages in this block: the frontier offers parse
    sends go to a holder of the block's own and are awaited once, on
    the way out, so they overlap the stages after parse. A failed offer
    raises here. The holder is dropped on the way out, also when the
    block raises."""
    pending: list = []
    token = _UNSETTLED_OFFERS.set(pending)
    try:
        yield
        _wait_holding_cpu(pending)
    finally:
        _UNSETTLED_OFFERS.reset(token)


def stage_chain(ref):
    """The wave's stage closures behind ``ref``, unpickled once per
    worker process rather than per chunk task. Keyed by the ref: a
    rebuild after actor-loss recovery is a new ref, so closures holding
    handles to a dead fleet are never reused. A miss holds the task's
    CPU slot while it waits (``_wait_holding_cpu``)."""
    return _memo(_OBJ_CACHE, _OBJ_CACHE_CAP, "stages:" + ref.hex(),
                 lambda: _wait_holding_cpu([ref])[0])


class FetchBackend(NamedTuple):
    """Where a crawl's bytes come from, plus the fetch client's policy.
    ``source`` is the broadcast corpus index ref
    (corpus/store.py::put_corpus_index) or the ``host:port`` of an HTTP
    server (corpus/httpserve.py)."""

    source: object
    retries: int
    backoff_base_s: float
    range_resume: bool

    @property
    def ns(self) -> str:
        """The source's identity: the corpus ref's hex, unique per
        engine, or the server's ``host:port``."""
        src = self.source
        return src if isinstance(src, str) else src.hex()


def fetch_client(backend: FetchBackend):
    """The worker process's fetch client for ``backend``, built once:
    ``CorpusFetchClient`` over the corpus index or ``HttpFetchClient``
    over a real socket, behind one ``lookup(urls) -> (status,
    content_type, body, redirect)`` contract. The client owns retries
    with backoff and Range-resume."""

    def make():
        if isinstance(backend.source, str):
            from ..corpus.httpserve import HttpFetchClient as client
        else:
            from ..corpus.store import CorpusFetchClient as client
        return client(backend.source, retries=backend.retries,
                      backoff_base_s=backend.backoff_base_s,
                      range_resume=backend.range_resume)

    return _memo(_OBJ_CACHE, _OBJ_CACHE_CAP,
                 ("fetch", backend.ns, *backend[1:]), make)


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


def _script_fetcher(backend: FetchBackend):
    """Build the per-process ``script_fetch`` callback for the parse
    stage: bytes come from the same fetch client as the page, decode +
    canonicalization are shared with the oracle via
    process.make_script_fetcher."""
    from ..stages.process import make_script_fetcher

    def lookup_bytes(url: str):
        status, _ct, body, _r = fetch_client(backend).lookup([url])
        return body[0] if status[0] == 200 else None

    base = make_script_fetcher(lookup_bytes)
    # namespace the per-process cache by the JOB's fetch source:
    # worker processes outlive a run_crawl call, and two crawls in one
    # Ray session may serve different bytes at the same script URL —
    # cross-job hits would execute the previous corpus's source and
    # diverge from the oracle
    ns = backend.ns

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


def make_fetch_fn(backend: FetchBackend):
    """Wave-input batch (url, host, wave) → + status/content_type_raw/
    body/redirect_to, fetched by the worker's client for ``backend``
    (``fetch_client``). The client retries transient failures with
    exponential backoff (reference downloader semantics,
    downloader.py:262-302); exhausted retries yield status 599 (→ a
    ``fetch_error_599`` doc, terminal)."""

    def fetch(batch: pa.Table) -> pa.Table:
        status, ctype, body, redirect = fetch_client(backend).lookup(
            batch.column("url").to_pylist())
        return (
            batch.append_column("status", pa.array(status, pa.int32()))
            .append_column("content_type_raw", pa.array(ctype, pa.string()))
            .append_column("body", pa.array(body, pa.binary()))
            .append_column("redirect_to", pa.array(redirect, pa.string()))
        )

    return fetch


def route(handles: list, method: str, items, host_at: int, wait) -> None:
    """Call frontier-shard ``method`` once per shard that owns any of
    ``items`` (``shard_of`` on ``item[host_at]``), with the items it
    owns, and ``wait`` on the calls. No call when nothing is routed:
    even an empty ``ray.get`` costs ~70 µs in the wave loop."""
    by_shard: dict[int, list] = defaultdict(list)
    for it in items:
        by_shard[shard_of(it[host_at], len(handles))].append(it)
    if by_shard:
        wait([getattr(handles[s], method).remote(v)
              for s, v in by_shard.items()])


def make_parse_fn(cfg: CrawlConfig, backend: FetchBackend,
                  frontier_handles: list):
    """Fetched batch → unified page/imgref/link rows, plus the batch's
    discovered links offered to ``frontier_handles``.

    With ``cfg.render_js``, the render pass resolves external
    ``<script src>`` subresources through the same fetch client as the
    page (memoized per process — ``_SCRIPT_MEMO``) and executes them in
    document order (reference: Playwright runs every page script,
    playwrightcrawler.py:5174-5185).

    Discovered links are emitted IN-BAND as ``kind='link'`` rows (the
    reference persists its links index the same way,
    playwrightcrawler.py:1636-1651). The offer tuples ``process_fetched``
    built for them go to the frontier here, once per URL per batch
    (pages of one host cluster in a batch and rediscover the same URLs
    heavily). Parse does not wait for them: it leaves the refs to the
    enclosing ``offers_settled`` block, which the chunk task closes
    after its parquet write, so the wave's chunk barrier still implies
    every offer was processed."""

    def parse(batch: pa.Table) -> pa.Table:
        ctx = _ctx_for(cfg)
        if cfg.render_js:
            # set per batch: the context is shared by every crawl with
            # this config, the fetcher belongs to this crawl's backend
            ctx.script_fetch = _script_fetcher(backend)
        rows_out: list[dict] = []
        link_url, link_host, link_parent, link_wave = [], [], [], []
        offered: dict[str, tuple] = {}  # url → first offer, in row order
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
            for o in offers:
                url, _h64, host, _path, wave = o
                link_url.append(url)
                link_host.append(host)
                link_parent.append(r["host"])
                link_wave.append(wave)
                offered.setdefault(url, o)
        route(frontier_handles, "offer", offered.values(), 2,
              _settle_later)
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


def _claim_new(dedup_handles: list, keyed: list[tuple[int, int]],
               ns: int) -> list[bool]:
    """Stage ``(hash, ord)`` claims in namespace ``ns`` of the dedup
    service: one ``stage_many_keyed`` RPC per shard (``hash % shards``),
    awaited while holding the CPU. Returns the is-new flags aligned
    with ``keyed``: False only for hashes claimed in a PRIOR wave."""
    if not keyed:
        return []
    pos_by_shard: dict[int, list[int]] = defaultdict(list)
    for i, (h, _ord) in enumerate(keyed):
        pos_by_shard[h % len(dedup_handles)].append(i)
    masks = _wait_holding_cpu(
        [dedup_handles[s].stage_many_keyed.remote([keyed[i] for i in pos], ns)
         for s, pos in pos_by_shard.items()]
    )
    new = [False] * len(keyed)
    for pos, mask in zip(pos_by_shard.values(), masks):
        for i, is_new in zip(pos, mask):
            new[i] = bool(is_new)
    return new


def make_imgfetch_fn(backend: FetchBackend, dedup_handles: list):
    """Fill missing bodies of imgref rows through the worker's fetch
    client (subresource fetch; the reference's response-listener path,
    :5174-5185).

    Subresource URLs already fetched in ANY prior wave are dropped
    before fetching (namespaced entry in the global dedup service). The
    reference re-downloads subresources per page visit but its ``_id``
    upsert makes revisits invisible (playwrightcrawler.py:1646-1651) —
    skipping the refetch preserves final-table semantics while removing
    ~90% of decode work.

    In-wave duplicates across parallel batches are all KEPT here
    (``stage_many_keyed`` claims, prior-wave check only); the driver resolves
    the few conflicts deterministically by ``ord`` at the wave barrier,
    so RPC arrival order never picks the surviving caption/parent_host
    (ADVICE round 1). Within one batch rows are ord-sorted, so the
    in-batch first-wins dedup already keeps the min-ord claimant."""
    from ..urlkit.ids import url_id_64

    def imgfetch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # indices_nonzero segfaults on 0 chunks
            return batch
        need = pc.indices_nonzero(pc.fill_null(pc.and_(
            pc.equal(batch.column("kind"), "imgref"),
            pc.is_null(batch.column("body"))), False))
        if len(need) == 0:
            return batch
        # Python only for the rows that need a fetch
        urls = batch.column("url").take(need).to_pylist()
        ords = batch.column("ord").take(need).to_pylist()
        first: dict[str, int] = {}
        for j, u in enumerate(urls):
            first.setdefault(u, j)
        claimants = list(first.values())
        new = _claim_new(
            dedup_handles,
            [(url_id_64("imgvisit:" + urls[j]), int(ords[j]))
             for j in claimants], 0)
        keep = [j for j, is_new in zip(claimants, new) if is_new]
        import numpy as np

        rows = need.to_numpy()
        fetch = np.zeros(batch.num_rows, dtype=bool)
        fetch[rows[keep]] = True
        if keep:
            _, _, fetched, _ = fetch_client(backend).lookup(
                [urls[j] for j in keep])
            idx = batch.schema.get_field_index("body")
            batch = batch.set_column(idx, "body", pc.replace_with_mask(
                batch.column("body").combine_chunks(), pa.array(fetch),
                pa.array(fetched, pa.binary())))
        if len(keep) < len(rows):
            # drop repeat claims and subresources fetched in a prior wave
            sel = np.ones(batch.num_rows, dtype=bool)
            sel[rows] = False
            batch = batch.filter(pa.array(sel | fetch))
        return batch

    return imgfetch


def make_decode_fn(cfg: CrawlConfig, dedup_handles: list):
    """imgref rows → decoded content doc + (if the pixel hash was not
    seen in any PRIOR wave, per the global DedupShard service) the image
    row; page rows pass through untouched. Output schema: UNIFIED
    (transit body dropped). In-wave pixel-hash duplicates are all kept
    (``stage_many_keyed``) and resolved deterministically by ``ord`` at the
    wave barrier — see DedupShard's two-phase protocol. Link rows pass
    through like page rows; parse already sent their offers."""

    def _stamp_yyyymm(t: pa.Table) -> pa.Table:
        # monthly time-partition key on every persisted row (decode is
        # the last stage before the wave sink)
        return t.set_column(
            t.schema.get_field_index("yyyymm"), "yyyymm",
            pa.array([cfg.crawl_yyyymm] * t.num_rows, pa.string()),
        )

    def decode(batch: pa.Table) -> pa.Table:
        ctx = _ctx_for(cfg)
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
            new = _claim_new(
                dedup_handles,
                [(int(r["pixel_sha1"][:16], 16), int(r["ord"]))
                 for r in image_rows], 1)
            image_rows = [r for r, is_new in zip(image_rows, new) if is_new]
        new_tbl = pa.Table.from_pylist(docs + image_rows, schema=UNIFIED_SCHEMA)
        return _stamp_yyyymm(pa.concat_tables([passthrough, new_tbl]))

    return decode
