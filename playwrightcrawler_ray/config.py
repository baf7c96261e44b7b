"""Engine tunables.

Mirrors the reference's tuning surface (``config.py`` in
/root/reference — wildcard-imported there at playwrightcrawler.py:118)
but as an explicit dataclass so pipelines can carry their own config and
tests can override without global state.

Values keep the reference's defaults where behavior parity matters
(word filters, URL length, level counts, strategy weights); Ray-specific
knobs (batch sizes, shard counts, filter capacities) are new. Shard
counts derive from the cluster's CPU count unless pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Default seen-filter capacity (items) summed over a shard fleet — the
# URL-seen sets of the frontier shards and, via image_seen_capacity, the
# dedup shards. Each shard gets SEEN_CAPACITY // shards.
SEEN_CAPACITY = 8 << 16


@dataclass
class CrawlConfig:
    # --- behavior parity with the reference (config.py in /root/reference) ---
    extract_words: bool = True                # EXTRACT_WORDS
    extract_min_webcontent: bool = True       # EXTRACT_MIN_WEBCONTENT
    # JS-render hook before parsing (reference renders EVERY page via
    # Playwright, :4926-5207; here the deterministic stand-in in
    # functions/render.py — document.write literals + lazy-load
    # promotion). Off = static fetch only.
    render_js: bool = True
    # fetch + execute external <script src> subresources during the
    # render (browser semantics — the reference's Playwright runs every
    # page script, playwrightcrawler.py:5174-5185). Sources are fetched
    # through the same backend as the page (corpus index / real socket)
    # with a per-process LRU source cache (a browser's script cache).
    # Requires render_js; off = inline scripts only (round-4 behavior).
    execute_external_scripts: bool = True
    use_octet_stream: bool = True             # USE_OCTET_STREAM
    words_remove_special_chars: bool = True   # WORDS_REMOVE_SPECIAL_CHARS
    words_to_lower: bool = True               # WORDS_TO_LOWER
    words_min_len: int = 3                    # WORDS_MIN_LEN (exclusive lower bound)
    words_max_len: int = 40                   # WORDS_MAX_LEN (inclusive upper bound)
    words_max_words: int = 24000              # WORDS_MAX_WORDS
    max_webcontent_size: int = 900_000        # MAX_WEBCONTENT_SIZE
    max_url_length: int = 4096                # MAX_URL_LENGTH
    max_dir_levels: int = 7                   # MAX_DIR_LEVELS
    max_host_levels: int = 7                  # MAX_HOST_LEVELS
    # per-resource payload ceiling (reference MAX_MEMORY_MB=6000 aborts
    # the page and persists a minimal doc, playwrightcrawler.py:5294-5307)
    max_body_mb: int = 6000
    hunt_open_directories: bool = True        # HUNT_OPEN_DIRECTORIES
    node_id: str = "ray-collector-01"         # NODE_ID
    # monthly time-partition stamp (reference get_index_name, :1458-1481
    # — UTC YYYY-MM index suffix). Fixed for determinism; a deployment
    # sets it per run from datetime.now(timezone.utc).strftime("%Y-%m").
    crawl_yyyymm: str = "2026-08"
    host_regex_block_list: tuple[str, ...] = (r"(^|\.)gstatic\.com$",)
    host_regex_allow_list: tuple[str, ...] = (r".*",)
    url_regex_block_list: tuple[str, ...] = (
        "/noticias/modules/noticias/modules/",
        "/images/images/images/images/",
        "/plugins/owlcarousel/plugins/",
    )
    # frontier poll strategy weights (config.py:154-159). The reference's
    # "fewest_urls" key has no registered strategy function
    # (playwrightcrawler.py:4482-4503) and effectively yields an empty wave;
    # we reproduce that *effective* behavior when reproduce_reference_bugs
    # is set (SURVEY.md §7.4 item 6).
    method_weights: dict[str, int] = field(
        default_factory=lambda: {
            "fewest_urls": 1,
            "oldest": 1,
            "host_prefix": 10,
            "random": 5,
        }
    )
    reproduce_reference_bugs: bool = True
    # user-extension surface (§2.10): dotted module names imported once
    # per worker process at ProcessContext build — modules call
    # stages.process.register_content_handler at import, so handlers
    # exist in every Ray task AND in the oracle
    plugin_modules: tuple[str, ...] = ()

    # --- crawl loop ---
    wave_size: int = 10_000          # RANDOM_SITES_QUEUE (config.py:151)
    max_waves: int = 100             # ITERATIONS analogue, bounded for sandbox
    per_host_per_wave: int = 1       # reference one-URL-per-host collapse (A1)
    seed: int = 42                   # reproducible strategy choice / sampling
    respect_robots: bool = True      # capability add (absent in reference, T7)
    checkpoint_every: int = 1        # waves between checkpoints (bench: raise)
    checkpoint_retain: int = 3       # keep the last K checkpoints (0 = all)
    # bench realism: the corpus fetch client sleeps the corpus'
    # per-host latency_ms on every lookup (a batch behaves like an async
    # client — max of the batch). Makes crawl throughput
    # concurrency-bound, like a real crawl. The HTTP backend's latency
    # is the server's.
    simulate_latency: bool = False

    # --- Ray execution knobs (new) ---
    # Frontier shard count; hosts route by hash(host) % shards. 0 =
    # derive from the cluster at engine start: ceil(CPUs / 16), so 1 on
    # a 4-CPU box and 2 at 32 CPUs. A positive value pins the count.
    # Resuming a checkpoint rebuilds the fleet at the checkpoint's count.
    num_frontier_shards: int = 0
    # mega-host skew: a host heap above this spills its larger half as a
    # sorted run to disk (state/frontier.py); 0 = unlimited resident
    host_queue_cap: int = 8192
    # Pixel-hash / imgvisit dedup shard count; same 0 = derive rule and
    # pinning as num_frontier_shards.
    num_seen_shards: int = 0
    # pixel-hash / imgvisit dedup-shard membership structure, same modes
    # as the frontier's URL-seen set (state/approxset.py): "exact"
    # (default — set-equality with the oracle), "cuckoo" or "bloom" for
    # the 10^10-images regime where per-shard exact sets are unbounded
    # actor memory (sizing math in BASELINE.md). Cuckoo keeps
    # no-false-negatives via the exact overflow set; false POSITIVES
    # drop images (same contract as the URL filter).
    image_seen_mode: str = "exact"
    # filter capacity (items) across ALL dedup shards; each shard gets
    # capacity // shards, so the false-positive budget does not depend
    # on the shard count
    image_seen_capacity: int = SEEN_CAPACITY
    # transient-failure retry (reference downloader: 3 tries, exp
    # backoff ×2, downloader.py:262-302); base kept tiny in-sandbox
    fetch_retries: int = 3
    # HTTP Range-resume for truncated downloads (reference
    # downloader.py:212-302); off = a naive client that stores the
    # first (truncated) response
    range_resume: bool = True
    fetch_backoff_base_s: float = 0.01
    # fetch backend: "corpus" resolves against the zero-copy broadcast
    # index (hermetic, deterministic); "http" fetches over a REAL
    # socket from `http_addr` (host:port of a corpus/httpserve.py
    # loopback vhost server in-sandbox; the open web on a deployment).
    # Either way one fetch client per worker owns retries, backoff and
    # Range-resume (corpus/store.py::CorpusFetchClient or
    # corpus/httpserve.py::HttpFetchClient) — the golden test asserts
    # both backends produce byte-identical crawl tables on the same
    # corpus. Any other value, or "http" without an address, is
    # rejected when the engine starts.
    fetch_backend: str = "corpus"
    http_addr: str = ""
    # URLs per wave chunk task, at most (small waves use smaller
    # chunks so every CPU gets work). Small values = high fetch
    # concurrency (latency-bound crawls); large values amortize
    # per-task overhead (compute-bound).
    wave_batch_size: int = 128
    # publish per-wave checkpoints on a background thread (the actor
    # state snapshot RPC is still issued AT the barrier — ordering
    # with next-wave offers is preserved by actor message order; only
    # the blob await + file writes move off the critical path).
    async_checkpoint: bool = True

    # --- sinks ---
    output_dir: str = "/tmp/pwc_ray_out"


DEFAULT_CONFIG = CrawlConfig()
