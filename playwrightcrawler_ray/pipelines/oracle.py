"""Sequential reference-semantics oracle simulator (SURVEY.md §5.3).

A compact, single-process, pure-Python implementation of the crawl loop
with the *same seeded semantics* the Ray engine must reproduce: exact
URL-seen set, oldest-first per-host frontier with politeness budget and
robots rules, seeded weighted strategy choice, image pixel-hash dedup.

The per-record transforms (canonicalize, classify, parse, decode) are
shared with the engine via stages/process.py — transform parity is
unit-tested separately; what this oracle independently reimplements is
the *state machine*: frontier membership, scheduling order, politeness,
cross-wave dedup. The golden test asserts the distributed engine
(sharded actors, parallel Dataset stages) equals this sequential run
on crawl ordering, final URL-seen set, and the deduped image set —
the north rule's conformance gate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..config import CrawlConfig
from ..corpus.generate import CorpusData
from ..stages.process import ProcessContext, process_fetched, process_image_payload
from ..state.robots import RobotsRules
from ..urlkit.canonicalize import canonicalize_url
from ..urlkit.ids import url_id_64
from .strategy import apply_strategy, choose_strategy, wave_rng


@dataclass
class OracleResult:
    order: list[str] = field(default_factory=list)
    seen_ids: set[int] = field(default_factory=set)
    images: dict[str, dict] = field(default_factory=dict)  # pixel_sha1 -> image row
    content_rows: list[dict] = field(default_factory=list)
    waves: int = 0


def run_oracle(corpus: CorpusData, cfg: CrawlConfig | None = None,
               max_waves: int | None = None) -> OracleResult:
    cfg = cfg or CrawlConfig()
    ctx = ProcessContext(cfg)
    if cfg.render_js:
        # external <script src> resolver over the same corpus the
        # engine broadcasts — decode/canonicalization shared through
        # process.make_script_fetcher
        from ..stages.process import make_script_fetcher

        def _script_bytes(u: str):
            rec = corpus.pages.get(u)
            return rec["body"] if rec and rec["status"] == 200 else None

        ctx.script_fetch = make_script_fetcher(_script_bytes)
    res = OracleResult()

    seen: set[int] = set()
    seen_img_urls: set[str] = set()  # engine's namespaced imgvisit dedup
    heaps: dict[str, list[tuple[int, str]]] = {}
    robots: dict[str, RobotsRules] = {
        h: RobotsRules.parse(t) for h, t in corpus.robots.items()
    }
    cooldown: dict[str, int] = {}

    def offer(url: str, host: str, path: str, wave: int) -> None:
        h64 = url_id_64(url)
        if h64 in seen:
            return
        seen.add(h64)
        rules = robots.get(host)
        if rules is not None and not rules.allowed(path):
            return
        heapq.heappush(heaps.setdefault(host, []), (wave, url))

    for raw in corpus.seeds:
        cu = canonicalize_url(raw)
        p = urlsplit(cu)
        if p.hostname and ctx.policy.admit(cu, p.hostname):
            offer(cu, p.hostname, p.path or "/", 0)

    limit = max_waves if max_waves is not None else cfg.max_waves
    wave = 0
    empty_streak = 0
    while wave < limit:
        # pop ≤ per_host_per_wave per non-cooling host, (wave, url) order
        candidates: list[tuple[int, str, str]] = []
        for host in sorted(heaps.keys()):
            if cooldown.get(host, 0) > wave:
                continue
            heap = heaps[host]
            took = 0
            while heap and took < cfg.per_host_per_wave:
                w, u = heapq.heappop(heap)
                candidates.append((w, u, host))
                took += 1
            if took:
                rules = robots.get(host)
                cd = rules.crawl_delay if rules is not None else None
                if cd:
                    cooldown[host] = wave + 1 + int(cd)
            if not heap:
                del heaps[host]
        candidates.sort()
        if not candidates:
            if not heaps:
                break
            wave += 1
            empty_streak += 1
            if empty_streak > 64:
                break
            continue
        rng = wave_rng(cfg.seed, wave)
        strategy = choose_strategy(rng, cfg.method_weights)
        selected, leftover = apply_strategy(
            strategy, candidates, cfg.wave_size, rng, cfg.reproduce_reference_bugs
        )
        for w, u, h in leftover:
            heapq.heappush(heaps.setdefault(h, []), (w, u))
        if not selected:
            wave += 1
            empty_streak += 1
            if empty_streak > 64:
                break
            continue
        empty_streak = 0

        # process the wave sequentially
        for _, url, host in selected:
            res.order.append(url)
            rec = corpus.pages.get(url)
            status = rec["status"] if rec else 404
            ctype = rec["content_type"] if rec else ""
            body = rec["body"] if rec and rec["status"] == 200 else b""
            redirect = (rec.get("redirect_to") or "") if rec else ""
            content_rows, offers, imgrefs = process_fetched(
                url, host, wave, status, ctype, body, redirect, ctx
            )
            res.content_rows.extend(content_rows)
            for u, h64, h, path, w in offers:
                if h64 in seen:
                    continue
                seen.add(h64)
                rules = robots.get(h)
                if rules is not None and not rules.allowed(path):
                    continue
                heapq.heappush(heaps.setdefault(h, []), (w, u))
            for ir in imgrefs:
                iurl = ir["url"]
                ibody = ir.get("body")
                if ibody is None:
                    # subresource: fetched once globally (engine's
                    # imgvisit dedup namespace)
                    if iurl in seen_img_urls:
                        continue
                    seen_img_urls.add(iurl)
                    irec = corpus.pages.get(iurl)
                    ibody = (
                        irec["body"]
                        if irec is not None and irec["status"] == 200
                        else b""
                    )
                doc, img = process_image_payload(
                    iurl, ir["host"], ir["parent_host"] or ir["host"],
                    wave, ir["caption"] or "", ibody, ctx,
                )
                if doc:
                    res.content_rows.append(doc)
                if img and img["pixel_sha1"] not in res.images:
                    res.images[img["pixel_sha1"]] = img
        wave += 1

    res.seen_ids = seen
    res.waves = wave
    return res
