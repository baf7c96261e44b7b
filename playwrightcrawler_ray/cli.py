"""CLI — the engine's analogue of the reference's entry points
(``python playwrightcrawler.py [--initial URL]`` and
``python downloader.py``, reference README "Entry Point"):

    python -m playwrightcrawler_ray.cli crawl   [--hosts N] [--pages N]
        [--seed S] [--out DIR] [--max-waves K] [--seen-mode exact|cuckoo|bloom]
        [--resume]
    python -m playwrightcrawler_ray.cli images  --out DIR     # consolidate
    python -m playwrightcrawler_ray.cli verify  --out DIR     # admission audit
    python -m playwrightcrawler_ray.cli urls    --out DIR [--ext RE] [--limit N]
    python -m playwrightcrawler_ray.cli score   --out DIR [--min-res N]
        [--threshold P] [--concurrency N]       # NSFW model actor pool
    python -m playwrightcrawler_ray.cli query   [--list] [--name Q]
        [--sf DIR] [--limit N]                  # run any driver query

The CLI owns its Ray session (guarded init, shutdown at exit) — library
code never does (driver contract).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False
    return ray


def _load_entry_module():
    """Load the driver entry (__ray_entry__.py beside the package) —
    returns None when the package is installed without a source
    checkout, so the caller can emit the CLI's JSON error instead of
    a traceback."""
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "__ray_entry__.py")
    if not os.path.exists(path):
        return None
    spec = importlib.util.spec_from_file_location("__ray_entry__", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="playwrightcrawler_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run a crawl over the synthetic corpus")
    c.add_argument("--hosts", type=int, default=16)
    c.add_argument("--pages", type=int, default=12)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--out", default="/tmp/pwc_cli_out")
    c.add_argument("--max-waves", type=int, default=60)
    c.add_argument("--seen-mode", default="exact",
                   choices=["exact", "cuckoo", "bloom"])
    c.add_argument("--resume", action="store_true")
    c.add_argument("--seeds-dir", default=None,
                   help="directory of seed-list text files (S6 source)")
    c.add_argument("--http", action="store_true",
                   help="fetch over a real socket: serve the corpus from "
                        "a loopback HTTP vhost server and crawl it with "
                        "the stdlib HTTP client (fetch_backend=http)")

    i = sub.add_parser("images", help="consolidate the standalone images table")
    i.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="retroactive admission audit")
    v.add_argument("--out", required=True)

    u = sub.add_parser("urls", help="downloader-style URL selection")
    u.add_argument("--out", required=True)
    u.add_argument("--ext", default=None)
    u.add_argument("--limit", type=int, default=100)

    s = sub.add_parser(
        "score", help="NSFW-score crawled images (trained logistic "
        "skin-content model, actor-pool map_batches)")
    s.add_argument("--out", required=True)
    s.add_argument("--min-res", type=int, default=16 * 16)
    s.add_argument("--threshold", type=float, default=None)
    s.add_argument("--concurrency", type=int, default=2)

    e = sub.add_parser(
        "exif", help="EXIF signal scan over crawled images (actor-pool "
        "ExifExtractor); optionally write GPS-scrubbed copies")
    e.add_argument("--out", required=True)
    e.add_argument("--scrub-dest", default=None,
                   help="write byte-level-scrubbed image files here")
    e.add_argument("--concurrency", type=int, default=2)

    q = sub.add_parser(
        "query", help="run a named driver query over a testdata dir "
        "(list names with --list)")
    q.add_argument("--name", default=None)
    q.add_argument("--sf", default="/root/testdata/sf0.001",
                   help="testdata directory with the parquet tables")
    q.add_argument("--limit", type=int, default=20,
                   help="rows printed (full row count always reported)")
    q.add_argument("--list", action="store_true",
                   help="list available query names and exit")

    args = p.parse_args(argv)
    if args.cmd in ("images", "verify", "urls", "score", "exif"):
        import glob
        import os

        if not glob.glob(os.path.join(args.out, "wave=*", "*.parquet")):
            print(json.dumps({"error": f"no crawl output found under {args.out} "
                              "(expected wave=*/ parquet partitions)"}),
                  file=sys.stderr)
            return 2
    entry = None
    if args.cmd == "query":
        # resolve + validate BEFORE paying Ray startup: --list and the
        # unknown-name error need no session at all
        entry = _load_entry_module()
        if entry is None:
            print(json.dumps({"error": "driver entry (__ray_entry__.py) "
                              "not found next to the package — the query "
                              "subcommand needs a source checkout"}),
                  file=sys.stderr)
            return 2
        qs = entry.queries()
        if args.list or not args.name:
            for op in sorted(entry.op_registry(), key=lambda o: o.name):
                kind = "rows-only" if op.rows_only else "sql-oracled"
                print(f"{op.name}\t{kind}\t{op.rows_only}")
            return 0
        if args.name not in qs:
            print(json.dumps({"error": f"unknown query {args.name!r} "
                              "(see --list)"}), file=sys.stderr)
            return 2
    ray = _ray_session()
    try:
        if args.cmd == "crawl":
            from .config import CrawlConfig
            from .corpus import build_corpus
            from .pipelines.crawl import run_crawl

            corpus = build_corpus(seed=args.seed, n_hosts=args.hosts,
                                  pages_per_host=args.pages)
            if args.seeds_dir:
                from .corpus.seeds import seeds_from_files

                corpus.seeds = seeds_from_files(args.seeds_dir)
            server = None
            cfg = CrawlConfig(output_dir=args.out, max_waves=args.max_waves)
            if args.http:
                from .corpus.httpserve import CorpusHTTPServer

                server = CorpusHTTPServer(corpus)
                cfg.fetch_backend = "http"
                cfg.http_addr = server.addr
            try:
                res = run_crawl(corpus, cfg, seen_mode=args.seen_mode,
                                resume=args.resume)
            finally:
                if server is not None:
                    server.close()
            out = {k: v for k, v in res.stats.items() if k != "seen_ids"}
            extra = (
                {"http_requests": server.request_count} if server else {}
            )
            print(json.dumps({"pages": len(res.order), "waves": res.waves,
                              **{k: round(v, 2) if isinstance(v, float) else v
                                 for k, v in out.items() if not isinstance(v, dict)},
                              **extra,
                              "frontier": out.get("frontier", {})}))
        elif args.cmd == "images":
            from .pipelines.crawl import consolidate_images

            dest = consolidate_images(args.out)
            print(json.dumps({"images_table": dest}))
        elif args.cmd == "verify":
            from .pipelines.export import verify_admission_invariants

            bad = verify_admission_invariants(args.out)
            print(json.dumps({"violations": len(bad)}))
            return 1 if len(bad) else 0
        elif args.cmd == "urls":
            import re as _re

            if args.ext:
                try:
                    _re.compile(args.ext)
                except _re.error as e:
                    print(json.dumps({"error": f"invalid --ext regex: {e}"}),
                          file=sys.stderr)
                    return 2
            from .pipelines.export import filtered_urls

            ds = filtered_urls(
                args.out,
                include_ext=[args.ext] if args.ext else None,
                limit=args.limit,
            )
            # constant-memory print: stream batches instead of
            # materializing the listing (unbounded when --limit large)
            for batch in ds.iter_batches(batch_format="pyarrow",
                                         batch_size=4096):
                for url in batch["url"].to_pylist():
                    print(url)
        elif args.cmd == "score":
            from .pipelines.crawl import load_images
            from .stages.nsfw import NSFW_MIN_PROBABILITY, NsfwScorer

            thr = (args.threshold if args.threshold is not None
                   else NSFW_MIN_PROBABILITY)
            scored = load_images(args.out).map_batches(
                NsfwScorer, batch_format="pyarrow", batch_size=32,
                concurrency=args.concurrency, num_cpus=1,
                fn_constructor_kwargs={"min_resolution": args.min_res,
                                       "threshold": thr},
            )
            n = scored_n = flagged = 0
            for batch in scored.iter_batches(batch_format="pyarrow",
                                             batch_size=1024):
                n += batch.num_rows
                col = batch["isnsfw"]
                scored_n += batch.num_rows - col.null_count
                flagged += sum(1 for f in batch["nsfw_flag"].to_pylist()
                               if f)
            print(json.dumps({"images": n, "scored": scored_n,
                              "flagged": flagged, "threshold": thr}))
        elif args.cmd == "exif":
            from .pipelines.crawl import load_unified
            from .stages.multimodal import ExifExtractor

            import pyarrow.compute as _pc

            scrub = args.scrub_dest is not None
            ds = load_unified(args.out, columns=["kind", "url", "bytes"])
            # vectorized batch filter (repo convention) — a per-row
            # lambda would dict-convert every page body on the way by
            ds = ds.map_batches(
                lambda t: t.filter(_pc.equal(t.column("kind"), "image")),
                batch_format="pyarrow",
            )
            ds = ds.map_batches(
                ExifExtractor, batch_format="pyarrow", batch_size=32,
                concurrency=args.concurrency, num_cpus=1,
                fn_constructor_kwargs={"scrub": scrub},
            )
            n = tagged = gps = 0
            if scrub:
                import os as _os

                from .urlkit.filepath import safe_filepath_from_url
            for batch in ds.iter_batches(batch_format="pyarrow",
                                         batch_size=1024):
                n += batch.num_rows
                orient = batch["exif_orientation"].to_pylist()
                has_gps = batch["exif_has_gps"].to_pylist()
                makes = batch["exif_make"].to_pylist()
                tagged += sum(1 for o, m in zip(orient, makes)
                              if o != 1 or m is not None)
                gps += sum(1 for g in has_gps if g)
                if scrub:
                    for u, b in zip(batch["url"].to_pylist(),
                                    batch["scrubbed_bytes"].to_pylist()):
                        path = safe_filepath_from_url(u, args.scrub_dest)
                        _os.makedirs(_os.path.dirname(path), exist_ok=True)
                        with open(path, "wb") as f:
                            f.write(b or b"")
            print(json.dumps({"images": n, "exif_tagged": tagged,
                              "with_gps": gps,
                              "scrubbed_to": args.scrub_dest}))
        elif args.cmd == "query":
            import pandas as pd

            from .ops.io import to_frame

            out = entry.queries()[args.name](args.sf)
            if not isinstance(out, pd.DataFrame):
                out = to_frame(out)
            print(out.head(args.limit).to_string(index=False))
            print(json.dumps({"query": args.name, "rows": len(out),
                              "columns": list(out.columns)}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
