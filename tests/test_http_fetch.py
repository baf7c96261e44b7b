"""Real-socket fetch path (VERDICT r3 item 1): the loopback HTTP vhost
server + stdlib client, and its lookup contract shared with the corpus
fetch client.

The golden test crawls the SAME corpus twice — once resolving against
the broadcast corpus index, once over real TCP (retries, 503 backoff,
Range-resume against genuine mid-body connection cuts) — and asserts
byte-identical output tables, ordering and seen set."""

from __future__ import annotations

import shutil

import pandas as pd
import pytest

from playwrightcrawler_ray.config import CrawlConfig
from playwrightcrawler_ray.corpus import build_corpus
from playwrightcrawler_ray.corpus.generate import CorpusData
from playwrightcrawler_ray.corpus.httpserve import (
    CorpusHTTPServer,
    HttpFetchClient,
)
from playwrightcrawler_ray.corpus.store import (
    CorpusFetchClient,
    put_corpus_index,
)


@pytest.fixture(scope="module")
def small_corpus():
    c = CorpusData()
    body = bytes(range(256)) * 40  # 10,240 B → 11 ranged requests
    c.pages = {
        "http://a.test/": {
            "status": 200, "content_type": "text/html; charset=utf-8",
            "body": b"<html>hi</html>", "redirect_to": "",
        },
        "http://a.test/big.bin": {
            "status": 200, "content_type": "application/octet-stream",
            "body": body, "redirect_to": "",
        },
        "http://a.test/redir": {
            "status": 301, "content_type": "", "body": b"",
            "redirect_to": "http://a.test/",
        },
        "http://a.test/flaky": {
            "status": 200, "content_type": "text/plain",
            "body": b"finally", "redirect_to": "",
        },
        "http://a.test/dead": {
            "status": 200, "content_type": "text/plain",
            "body": b"never", "redirect_to": "",
        },
    }
    c.partial["http://a.test/big.bin"] = 1000
    c.flaky["http://a.test/flaky"] = 2
    c.flaky["http://a.test/dead"] = 99
    return c, body


@pytest.fixture(params=["http", "corpus"])
def client_for(request, small_corpus):
    """(server or None, client factory) for each fetch backend over
    ``small_corpus``: the stages see only the shared ``lookup``
    contract, so both must answer every case identically."""
    c, _ = small_corpus
    if request.param == "http":
        with CorpusHTTPServer(c) as srv:
            yield srv, lambda **kw: HttpFetchClient(srv.addr, **kw)
    else:
        request.getfixturevalue("ray_session")
        ref = put_corpus_index(c)
        yield None, lambda **kw: CorpusFetchClient(ref, **kw)


def test_http_client_semantics(small_corpus, client_for):
    """Each failure mode, over a real socket and over the corpus index:
    503-retry-success, retry-exhaustion → 599, truncation + Range
    reassembly, redirect Location passthrough, 404 miss."""
    _, body = small_corpus
    srv, make_client = client_for
    cl = make_client(retries=3, backoff_base_s=0.001)
    got = cl.lookup([
        "http://a.test/", "http://a.test/big.bin", "http://a.test/redir",
        "http://a.test/flaky", "http://a.test/dead", "http://a.test/miss",
    ])
    assert got == (
        [200, 200, 301, 200, 599, 404],
        ["text/html; charset=utf-8", "application/octet-stream", "",
         "text/plain", "", ""],
        # big.bin reassembled over Range; flaky: 2×503 then success;
        # dead: retries exhausted, terminal
        [b"<html>hi</html>", body, b"", b"finally", b"", b""],
        ["", "", "http://a.test/", "", "", ""],
    )
    if srv is not None:
        # the Range loop really issued one request per chunk
        assert srv.request_count >= 6 + (len(body) // 1000)


def test_http_naive_client_keeps_truncated_body(small_corpus, client_for):
    _, body = small_corpus
    _, make_client = client_for
    cl = make_client(retries=3, range_resume=False)
    st, _, bo, _ = cl.lookup(["http://a.test/big.bin"])
    assert st[0] == 200 and bo[0] == body[:1000]


def test_http_client_rotates_user_agents(small_corpus):
    """Reference T2 (``ua.random`` per request), made reproducible:
    every request carries the pool agent picked by (url, attempt), so
    Range re-requests keep their attempt's agent and a retried 503
    URL rotates."""
    from collections import Counter

    from playwrightcrawler_ray.functions.uapool import pick_user_agent

    c, body = small_corpus
    flaky = "http://a.test/flaky"
    with CorpusHTTPServer(c) as srv:
        HttpFetchClient(srv.addr, retries=3, backoff_base_s=0.001).lookup(
            ["http://a.test/", "http://a.test/big.bin", flaky])
    want = Counter({pick_user_agent("http://a.test/"): 1})
    want[pick_user_agent("http://a.test/big.bin")] += len(body) // 1000 + 1
    for attempt in range(3):  # 2 × 503, then 200
        want[pick_user_agent(flaky, attempt)] += 1
    assert srv.ua_counts == want
    assert sum(want.values()) == srv.request_count
    assert pick_user_agent(flaky, 0) != pick_user_agent(flaky, 1)


@pytest.mark.parametrize("backend,addr", [("http", ""),
                                          ("htpp", "127.0.0.1:1")])
def test_engine_rejects_an_unusable_fetch_backend(ray_session, small_corpus,
                                                  backend, addr):
    """A misspelt backend, or "http" without an address, fails at
    engine start instead of silently crawling the in-memory corpus."""
    from playwrightcrawler_ray.pipelines.crawl import CrawlEngine

    cfg = CrawlConfig(output_dir="/tmp/pwc_bad_backend",
                      fetch_backend=backend, http_addr=addr)
    with pytest.raises(ValueError, match="fetch_backend"):
        CrawlEngine(small_corpus[0], cfg)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(seed=42, n_hosts=8, pages_per_host=6)


def _crawl_tables(output_dir: str) -> pd.DataFrame:
    from playwrightcrawler_ray.pipelines.crawl import load_unified

    df = load_unified(output_dir).to_pandas()
    # list columns aren't hashable sort keys — stringify for comparison
    for col in ("words", "emails", "query_variables", "query_values"):
        df[col] = df[col].map(
            lambda v: "|".join(v) if v is not None else None
        )
    return df.sort_values(
        ["wave", "kind", "url", "ord"], na_position="first"
    ).reset_index(drop=True)


def test_http_crawl_byte_identical_to_corpus_mode(ray_session, corpus):
    """The same crawl over localhost HTTPS — TLS, gzip/deflate content
    coding and chunked transfer all ON (VERDICT r4 item 3) — produces
    byte-identical tables to corpus mode ('done' criterion of VERDICT
    r3 item 1 + r4 item 3). The golden corpus includes the ranged
    (truncated) payload, so the real Range-resume loop is on the crawl
    path, interleaved with encoded/chunked responses."""
    from playwrightcrawler_ray.pipelines.crawl import run_crawl

    cfg_c = CrawlConfig(output_dir="/tmp/pwc_http_corpus", max_waves=100)
    shutil.rmtree(cfg_c.output_dir, ignore_errors=True)
    res_c = run_crawl(corpus, cfg_c, collect_seen_ids=True)

    with CorpusHTTPServer(corpus, tls=True) as srv:
        assert srv.addr.startswith("https://")
        cfg_h = CrawlConfig(
            output_dir="/tmp/pwc_http_socket", max_waves=100,
            fetch_backend="http", http_addr=srv.addr,
        )
        shutil.rmtree(cfg_h.output_dir, ignore_errors=True)
        res_h = run_crawl(corpus, cfg_h, collect_seen_ids=True)
        assert srv.request_count > 100  # the crawl really hit the socket
        assert srv.encoded_count > 20   # gzip/deflate really on the wire
        assert srv.chunked_count > 5    # chunked transfer really used

    assert res_h.order == res_c.order
    assert res_h.seen_ids() == res_c.seen_ids()
    t_c, t_h = _crawl_tables(cfg_c.output_dir), _crawl_tables(cfg_h.output_dir)
    assert len(t_c) == len(t_h)
    pd.testing.assert_frame_equal(t_c, t_h)  # bytes column included


def test_http_gzip_deflate_chunked_semantics(small_corpus):
    """Content-coding correctness at the client: gzip and deflate
    bodies decode byte-identically, chunked responses reassemble, and
    both codings actually appeared on the wire (server counters)."""
    c = CorpusData()
    html = b"<html>" + b"lorem ipsum " * 400 + b"</html>"
    c.pages = {
        f"http://a.test/p{i}.html": {
            "status": 200, "content_type": "text/html",
            "body": html + str(i).encode(), "redirect_to": "",
        }
        for i in range(16)
    }
    # binary payload must ship identity (not compressible)
    c.pages["http://a.test/img.png"] = {
        "status": 200, "content_type": "image/png",
        "body": bytes(range(256)) * 8, "redirect_to": "",
    }
    with CorpusHTTPServer(c) as srv:
        cl = HttpFetchClient(srv.addr, retries=3, backoff_base_s=0.001)
        urls = [f"http://a.test/p{i}.html" for i in range(16)]
        st, _, bo, _ = cl.lookup(urls + ["http://a.test/img.png"])
        for i in range(16):
            assert st[i] == 200 and bo[i] == html + str(i).encode()
        assert bo[16] == bytes(range(256)) * 8
        # both codings + chunked exercised (deterministic URL-hash mix)
        assert srv.encoded_count >= 16
        assert srv.chunked_count > 0


def test_http_truncated_gzip_is_terminal(small_corpus):
    """A mid-ENCODED-stream cut cannot be Range-resumed (offsets index
    the coding, not the entity): the client full-retries and surfaces
    the terminal 599 → the crawl's fetch_error_599 taxonomy row."""
    c = CorpusData()
    c.pages["http://a.test/cut.html"] = {
        "status": 200, "content_type": "text/html",
        "body": b"<html>" + b"x" * 4000 + b"</html>", "redirect_to": "",
    }
    with CorpusHTTPServer(
            c, gzip_truncate={"http://a.test/cut.html"}) as srv:
        cl = HttpFetchClient(srv.addr, retries=3, backoff_base_s=0.001)
        st, _, bo, _ = cl.lookup(["http://a.test/cut.html"])
        assert st[0] == 599 and bo[0] == b""
        assert srv.request_count >= 3  # it really retried in full


def test_http_politeness_on_the_wire(ray_session, corpus):
    """Pop-time politeness survives the real-socket path's thread-pool
    concurrency (VERDICT r4 item 8): at the server, PAGE requests to
    one vhost never overlap in flight (per_host_per_wave=1 + the wave
    barrier serialize them), and the wire's per-host page-request
    count equals the engine's per-wave pops — no host is hit more
    than per_host_per_wave times per wave. Subresources (/img/,
    *.js, /media/, robots.txt) are exempt, matching the reference's
    browser which fetches them in parallel during navigation."""
    import glob
    import os
    from collections import Counter
    from urllib.parse import urlsplit

    from playwrightcrawler_ray.pipelines.crawl import run_crawl

    with CorpusHTTPServer(corpus) as srv:
        cfg = CrawlConfig(
            output_dir="/tmp/pwc_http_polite", max_waves=100,
            fetch_backend="http", http_addr=srv.addr,
        )
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
        run_crawl(corpus, cfg)
        # (a) wire-level: never two concurrent page requests per vhost
        assert srv.max_inflight, "no page requests observed"
        overlapped = {h: n for h, n in srv.max_inflight.items() if n > 1}
        assert not overlapped, overlapped
        page_log = {h: list(v) for h, v in srv.page_log.items()}

    # (b) per-wave budget on the wire: the engine's order files say
    # which URLs each wave popped; the server must have seen exactly
    # those page requests — ≤ per_host_per_wave per (host, wave)
    wire_counts = Counter()
    for h, reqs in page_log.items():
        wire_counts[h] += len(reqs)
    file_counts: Counter = Counter()
    for p in sorted(glob.glob(os.path.join(cfg.output_dir, "order",
                                           "wave=*.txt"))):
        per_host: Counter = Counter()
        with open(p) as f:
            for line in f:
                u = line.strip()
                if not u:
                    continue
                host = urlsplit(u).hostname
                per_host[host] += 1
                # image/media/js URLs popped as pages count on the wire
                # too but are logged as subresources; skip them here
                path = urlsplit(u).path
                if not (path.startswith(("/img/", "/media/"))
                        or path.endswith(".js")):
                    file_counts[host] += 1
        for host, n in per_host.items():
            assert n <= cfg.per_host_per_wave, (p, host, n)
    assert file_counts == wire_counts


def test_https_tls_handshake_and_fetch(small_corpus):
    """TLS end-to-end on the loopback: self-signed server cert, client
    with verification off (the reference's ignore_https_errors)."""
    c, body = small_corpus
    with CorpusHTTPServer(c, tls=True) as srv:
        cl = HttpFetchClient(srv.addr, retries=3, backoff_base_s=0.001)
        st, ct, bo, _ = cl.lookup(["http://a.test/", "http://a.test/big.bin"])
        assert (st[0], bo[0]) == (200, b"<html>hi</html>")
        assert (st[1], bo[1]) == (200, body)  # Range-resume over TLS
