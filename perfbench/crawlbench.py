"""One benchmark run: set up, time crawls for ``seconds``, check each
crawl against the sequential oracle, and return the result object.

End-to-end metrics (``trace=False``), each the median over the timed
crawls of the run:

- ``setup_s``: process start until timing begins (imports, ``ray.init``,
  corpus build, HTTP server start, one untimed warm-up crawl);
- ``crawl_start_s``: the ``CrawlEngine(...)`` call until the first
  per-wave order log lands under ``<out>/order/`` (its mtime);
- ``pages_per_s``: pages fetched after the first landed wave over the
  time from that landing until ``run()`` returns.

With ``trace=True`` timed crawls alternate between traced and untraced,
and the result carries the per-layer metrics of ``trace.layer_metrics``
(median over the traced crawls), ``baseline.*`` and the tracing
overhead on ``pages_per_s``.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

from .workloads import WORKLOADS, layer_unit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CRAWLS = 3
UNITS = {"setup_s": "s", "crawl_start_s": "s", "pages_per_s": "pages/s"}


def process_start_epoch() -> float:
    """Wall-clock start of this process, from /proc (10 ms ticks)."""
    with open("/proc/self/stat") as f:
        ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/stat") as f:
        btime = next(int(line.split()[1]) for line in f
                     if line.startswith("btime"))
    return btime + ticks / os.sysconf("SC_CLK_TCK")


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile ``n`` samples support (their
    maximum) and ``n``."""
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values)}


# --- correctness ---


def expected_from_oracle(oracle) -> dict:
    return {
        "order": oracle.order,
        "seen": len(oracle.seen_ids),
        "images": sorted((v["image_id"], int(v["phash"]))
                         for v in oracle.images.values()),
    }


def crawl_output(out_dir: str, frontier_stats: dict) -> dict:
    """What a crawl produced, read from its output directory: the
    order logs, the URL-seen set size and the deduplicated image set
    ``(image_id, phash)`` after conflict tombstones."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    order: list[str] = []
    for path in sorted(glob.glob(os.path.join(out_dir, "order", "wave=*.txt"))):
        with open(path) as f:
            order.extend(line.rstrip("\n") for line in f)
    images: list[tuple[str, int]] = []
    for wave_dir in sorted(glob.glob(os.path.join(out_dir, "wave=*"))):
        files = sorted(glob.glob(os.path.join(wave_dir, "*.parquet")))
        if not files:
            continue
        tbl = pa.concat_tables(
            pq.read_table(p, columns=["kind", "image_id", "phash", "ord"])
            for p in files
        )
        full: set[int] = set()
        img: set[int] = set()
        tomb = os.path.join(wave_dir, "_tombstones.json")
        if os.path.exists(tomb):
            with open(tomb) as f:
                payload = json.load(f)
            full, img = set(payload["full"]), set(payload["img"])
        tbl = tbl.filter(pc.equal(tbl.column("kind"), "image"))
        for iid, ph, o in zip(tbl.column("image_id").to_pylist(),
                              tbl.column("phash").to_pylist(),
                              tbl.column("ord").to_pylist()):
            if o not in full and o not in img:
                images.append((iid, int(ph)))
    return {
        "order": order,
        "seen": frontier_stats["admitted"] + frontier_stats["robots_denied"],
        "images": sorted(images),
    }


def mismatches(got: dict, want: dict) -> list[str]:
    out = []
    if got["order"] != want["order"]:
        out.append(f"order: {len(got['order'])} urls vs oracle {len(want['order'])}")
    if got["seen"] != want["seen"]:
        out.append(f"seen: {got['seen']} vs oracle {want['seen']}")
    if got["images"] != want["images"]:
        out.append(f"images: {len(got['images'])} vs oracle {len(want['images'])}")
    return out


# --- run-scoped resources ---


class Session:
    """Everything one run starts: work dir, Ray session, HTTP server.
    ``close`` stops each and waits until its processes have ended."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        # AF_UNIX socket paths are capped at 107 bytes; Ray puts its
        # sockets three levels under the temp dir, so a deep checkout
        # falls back to Ray's default temp dir
        ray_tmp = os.path.join(ROOT, ".rb", str(os.getpid()))
        self.ray_tmp = ray_tmp if len(ray_tmp) <= 45 else None
        self.server: subprocess.Popen | None = None
        self.ray_started = False

    def start_ray(self, num_cpus: int):
        import ray

        # workers import the package (and the tracer's wrappers) from
        # the checkout root
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        kwargs = dict(address="local", num_cpus=num_cpus,
                      include_dashboard=False, logging_level="ERROR",
                      log_to_driver=False,
                      object_store_memory=512 * 1024 * 1024)
        if self.ray_tmp:
            os.makedirs(self.ray_tmp, exist_ok=True)
            kwargs["_temp_dir"] = self.ray_tmp
        ray.init(**kwargs)
        self.ray_started = True
        return ray

    def start_server(self, seed: int, corpus_kw: dict) -> str:
        cmd = [sys.executable, "-m", "playwrightcrawler_ray.corpus.httpserve",
               "--seed", str(seed), "--hosts", str(corpus_kw["n_hosts"]),
               "--pages", str(corpus_kw["pages_per_host"]),
               "--n-seeds", str(corpus_kw["n_seeds"]),
               "--text-words", str(corpus_kw.get("text_words", 6))]
        if "img_sizes" in corpus_kw:
            cmd += ["--img-sizes", *map(str, corpus_kw["img_sizes"])]
        self.server = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                       text=True)
        addr = self.server.stdout.readline().strip()
        if not addr:
            raise RuntimeError("HTTP corpus server exited before binding")
        self.addr = addr
        return addr

    def server_requests(self) -> int:
        with urllib.request.urlopen(
                f"http://{self.addr}/__corpus_stats__", timeout=10) as r:
            return json.loads(r.read())["requests"]

    def close(self) -> None:
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
        if self.ray_started:
            import ray

            # raylet, GCS and the workers under them; the shutdown
            # reparents workers, so list them while the tree is intact
            started = _descendants(os.getpid())
            ray.shutdown()
            _reap(started)
        for path in (self.work_dir, self.ray_tmp):
            if path:
                shutil.rmtree(path, ignore_errors=True)
                try:  # the shared parent, once no other run uses it
                    os.rmdir(os.path.dirname(path))
                except OSError:
                    pass


def _descendants(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(path.split("/")[2]))
    out, todo = [], [root_pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap(pids: list[int], timeout_s: float = 15.0) -> None:
    """Wait for ``pids`` to exit; kill any left at the deadline."""
    deadline = time.monotonic() + timeout_s
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in filter(_alive, pids):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)


def _kill_fleet(ray, engine) -> None:
    """Kill the crawl's 16 shard actors and wait until each is dead, so
    its teardown stays out of the next crawl's time."""
    actors = [*engine.shards, *engine.dedup]
    for a in actors:
        ray.kill(a, no_restart=True)
    for a in actors:
        try:
            ray.get(a.ping.remote(), timeout=30)
        except ray.exceptions.RayActorError:
            pass


# --- the run ---


def run(workload: str, seed: int, seconds: float, trace: bool,
        toy: bool = False, tamper=None) -> tuple[dict, dict]:
    """Returns ``(result, detail)``: the result object the command
    prints last, and a detail record (samples, percentiles, shape,
    CPU count, mismatches). ``tamper(out_dir)``, when given, edits every
    crawl's output before it is checked."""
    t_proc = process_start_epoch()
    spec = WORKLOADS[workload]
    # the package import fails first in a directory without it
    from playwrightcrawler_ray.config import CrawlConfig
    from playwrightcrawler_ray.corpus import build_corpus
    from playwrightcrawler_ray.pipelines.crawl import CrawlEngine
    from playwrightcrawler_ray.pipelines.oracle import run_oracle

    num_cpus = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    session = Session(work)
    try:
        # --seed draws the corpus; the strategy-sampling seed keeps its
        # CrawlConfig default, because a different strategy sequence
        # changes the work itself (47-66 non-empty waves in 150 wave
        # indices of crawl_small_waves across ten seeds)
        corpus_kw = spec.corpus_kwargs(toy)
        cfg_kw = spec.cfg_kwargs(toy)
        if spec.http:
            cfg_kw.update(fetch_backend="http",
                          http_addr=session.start_server(seed, corpus_kw))
        ray = session.start_ray(num_cpus)
        corpus = build_corpus(seed=seed, **corpus_kw)

        tracer = None
        if trace:
            from . import trace as trace_mod

            tracer = trace_mod.Tracer(os.path.join(work, "spans"))

        def crawl(i: int, traced: bool) -> dict:
            out = os.path.join(work, f"crawl{i}")
            cfg = CrawlConfig(output_dir=out, **cfg_kw)
            req0 = session.server_requests() if spec.http else 0
            if traced:
                tracer.begin_crawl(i)
                tracer.install()
                sampler = trace_mod.WorkerSampler()
                sampler.start()
            engine = None
            try:
                try:
                    w0, p0 = time.time(), time.perf_counter()
                    engine = CrawlEngine(corpus, cfg, spec.seen_mode)
                    res = engine.run()
                    w1, p1 = time.time(), time.perf_counter()
                finally:
                    if traced:
                        sampler.stop()
                        tracer.uninstall()
                first = min(os.stat(p).st_mtime for p in res.order_files)
                pages = res.stats["pages_fetched"]
                sample = {
                    "out": out, "traced": traced, "pages": pages,
                    "waves": len(res.wave_log),
                    "wall_s": p1 - p0,
                    "crawl_start_s": first - w0,
                    "pages_per_s": (pages - res.wave_log[0]["urls"]) / (w1 - first),
                    "frontier": res.stats["frontier"],
                }
                if traced:
                    shard = ray.get([s.bench_spans.remote() for s in engine.shards])
                    dedup = ray.get([d.bench_spans.remote() for d in engine.dedup])
                    req = session.server_requests() - req0 if spec.http else 0
                    layers = trace_mod.layer_metrics(
                        tracer, i, (p0, p1), res, shard, dedup, req)
                    layers["crawl.first_wave_s"] = sample["crawl_start_s"]
                    layers["ray.worker_procs_peak"] = sampler.peak
                    sample["layers"] = layers
                return sample
            finally:
                if engine is not None:
                    _kill_fleet(ray, engine)

        # untimed warm-up crawl of the same shape: task-worker imports
        # and stage caches (the first crawl of a session runs seconds
        # slower, a toy-sized warm-up too little)
        warm = crawl(-1, traced=False)
        shutil.rmtree(warm["out"], ignore_errors=True)
        setup_s = time.time() - t_proc

        samples: list[dict] = []
        errors: list[str] = []
        t_loop = time.perf_counter()
        i = 0
        while (len(samples) + len(errors) < MIN_CRAWLS
               or time.perf_counter() - t_loop < seconds):
            try:
                samples.append(crawl(i, traced=trace and i % 2 == 0))
            except Exception as e:  # a failed crawl is a failed operation
                errors.append(f"crawl {i}: {type(e).__name__}: {e}")
            i += 1

        # correctness, outside every timed metric
        t_or = time.perf_counter()
        want = expected_from_oracle(run_oracle(corpus, CrawlConfig(
            output_dir=os.path.join(work, "oracle"), **cfg_kw)))
        oracle_s = time.perf_counter() - t_or
        ok_samples = []
        for s in samples:
            if tamper is not None:
                tamper(s["out"])
            bad = mismatches(crawl_output(s["out"], s["frontier"]), want)
            if bad:
                errors.append(f"{os.path.basename(s['out'])}: " + "; ".join(bad))
            else:
                ok_samples.append(s)
    finally:
        session.close()

    attempted = i
    failed = attempted - len(ok_samples)
    detail = {
        "workload": workload, "seed": seed, "toy": toy, "trace": trace,
        "num_cpus": num_cpus, "shape": spec.shape,
        "pages": [s["pages"] for s in samples],
        "waves": [s["waves"] for s in samples],
        "errors": errors,
    }
    metrics: dict[str, dict] = {}
    if not trace:
        for name in ("crawl_start_s", "pages_per_s"):
            vals = [s[name] for s in ok_samples]
            detail[name] = {"samples": vals, **(summarize(vals) if vals else {})}
            if vals:
                metrics[name] = {"value": statistics.median(vals),
                                 "unit": UNITS[name]}
        detail["setup_s"] = setup_s
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    else:
        traced = [s for s in ok_samples if s["traced"]]
        plain = [s for s in ok_samples if not s["traced"]]
        if traced and plain:
            per_crawl = [s["layers"] for s in traced]
            values = {name: statistics.median(c[name] for c in per_crawl)
                      for name in per_crawl[0]}
            pps_t = statistics.median(s["pages_per_s"] for s in traced)
            pps_u = statistics.median(s["pages_per_s"] for s in plain)
            wall_u = statistics.median(s["wall_s"] for s in plain)
            values["trace.overhead_frac"] = 1 - pps_t / pps_u
            values["baseline.oracle_s"] = oracle_s
            values["baseline.engine_over_oracle"] = wall_u / oracle_s
            metrics = {name: {"value": v, "unit": layer_unit(name)}
                       for name, v in sorted(values.items())}
            detail["pages_per_s"] = {"traced": pps_t, "untraced": pps_u}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail
