"""Seen-set structures, robots rules, frontier shard semantics."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playwrightcrawler_ray.state.approxset import (
    BloomFilter,
    CuckooFilter,
    ExactSet,
    make_seen_set,
    restore_seen_set,
)
from playwrightcrawler_ray.state.dedup import DedupShard
from playwrightcrawler_ray.state.frontier import FrontierShard, shard_of
from playwrightcrawler_ray.state.robots import RobotsRules

from oracle_compare import assert_matches_oracle


@pytest.mark.parametrize("mode", ["exact", "cuckoo", "bloom"])
def test_seen_set_basics(mode):
    s = make_seen_set(mode, capacity=4096)
    assert s.add_if_absent(123456789)
    assert not s.add_if_absent(123456789)
    assert 123456789 in s
    out = [s.add_if_absent(h) for h in [1, 2, 1, 3]]
    assert out == [True, True, False, True]


@pytest.mark.parametrize("mode", ["exact", "cuckoo", "bloom"])
def test_seen_set_no_false_negatives(mode):
    rng = random.Random(7)
    items = [rng.getrandbits(63) for _ in range(5000)]
    s = make_seen_set(mode, capacity=8192)
    for h in items:
        s.add_if_absent(h)
    missing = [h for h in items if h not in s]
    assert missing == []  # approximate structures may FP, never FN


def test_cuckoo_fp_rate_bounded():
    rng = random.Random(11)
    s = CuckooFilter(capacity=1 << 14)
    inserted = {rng.getrandbits(63) for _ in range(8000)}
    for h in inserted:
        s.add_if_absent(h)
    probes = [rng.getrandbits(63) for _ in range(20000)]
    fps = sum(1 for p in probes if p not in inserted and p in s)
    assert fps / len(probes) < 0.01  # 16-bit fp → theoretical ~1.2e-4


def test_cuckoo_no_false_negatives_past_eviction_budget():
    """Saturate a tiny filter far past its eviction budget so items land
    in the overflow set, then verify every inserted item still reports
    present and is refused as a dup (the no-FN-under-load invariant)."""
    rng = random.Random(7)
    s = CuckooFilter(capacity=64)  # 16 buckets x 4 slots
    items = [rng.getrandbits(63) for _ in range(400)]
    for h in items:
        s.add_if_absent(h)
    assert len(s._overflow) > 0  # the overflow path was actually exercised
    missing = [h for h in items if h not in s]
    assert missing == []
    readds = [h for h in items if s.add_if_absent(h)]
    assert readds == []
    # and the overflow survives a checkpoint round-trip
    s2 = restore_seen_set(s.state())
    assert all(h in s2 for h in items)


@pytest.mark.parametrize("mode", ["exact", "cuckoo", "bloom"])
def test_seen_set_checkpoint_roundtrip(mode):
    s = make_seen_set(mode, capacity=2048)
    items = [random.Random(3).getrandbits(62) for _ in range(100)]
    for h in items:
        s.add_if_absent(h)
    s2 = restore_seen_set(s.state())
    assert all(h in s2 for h in items)
    assert not s2.add_if_absent(items[0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_cuckoo_vs_exact_equivalence(items):
    # dedup-set decision equality on random multisets (SURVEY.md §5.2)
    exact, cuckoo = ExactSet(), CuckooFilter(capacity=4096)
    for h in items:
        e = exact.add_if_absent(h)
        c = cuckoo.add_if_absent(h)
        # cuckoo may say "dup" for a new item (FP) but never "new" for a dup
        assert not (e is False and c is True)


def test_robots_rules():
    r = RobotsRules.parse(
        "User-agent: googlebot\nDisallow: /all/\n\n"
        "User-agent: *\nDisallow: /private/\nAllow: /private/ok/\n"
        "Crawl-delay: 2\n"
    )
    assert r.allowed("/public/x")
    assert not r.allowed("/private/secret.html")
    assert r.allowed("/private/ok/file")     # longest match wins
    assert r.allowed("/all/fine")            # other-agent group ignored
    assert r.crawl_delay == 2.0
    assert RobotsRules.parse(None).allowed("/anything")
    assert RobotsRules.parse("").allowed("/x")
    # wildcard + anchor
    r2 = RobotsRules.parse("User-agent: *\nDisallow: /*.pdf$\n")
    assert not r2.allowed("/docs/file.pdf")
    assert r2.allowed("/docs/file.pdfx")


def test_shard_of_stable():
    assert shard_of("example.com", 8) == shard_of("example.com", 8)
    assert 0 <= shard_of("anything.test", 5) < 5


def _mk_items(urls_hosts, wave=0):
    from playwrightcrawler_ray.urlkit.ids import url_id_64
    from urllib.parse import urlsplit

    return [
        (u, url_id_64(u), h, urlsplit(u).path or "/", wave) for u, h in urls_hosts
    ]


def test_frontier_offer_pop_order():
    f = FrontierShard(0)
    f.offer(_mk_items([("https://b.test/x", "b.test"), ("https://a.test/y", "a.test"),
                       ("https://a.test/a", "a.test")], wave=0))
    f.offer(_mk_items([("https://a.test/earlier-wave-loses", "a.test")], wave=1))
    out = f.pop_candidates(wave=1, per_host=1)
    # sorted hosts; per host: (wave, url) heap order
    assert [u for _, u, _ in out] == ["https://a.test/a", "https://b.test/x"]
    # dup offers are dropped
    d = f.offer(_mk_items([("https://a.test/a", "a.test")]))
    assert d["dup"] == 1


def test_frontier_robots_and_pushback():
    f = FrontierShard(0)
    f.set_robots([("a.test", "User-agent: *\nDisallow: /private/\n")])
    d = f.offer(_mk_items([("https://a.test/private/x", "a.test"),
                           ("https://a.test/ok", "a.test")]))
    assert d["robots_denied"] == 1 and d["admitted"] == 1
    out = f.pop_candidates(0)
    assert len(out) == 1
    f.push_back(out)
    assert f.size() == 1


def test_frontier_crawl_delay_cooldown():
    f = FrontierShard(0)
    f.set_robots([("slow.test", "User-agent: *\nCrawl-delay: 2\n")])
    f.offer(_mk_items([(f"https://slow.test/p{i}", "slow.test") for i in range(5)]))
    assert len(f.pop_candidates(wave=0)) == 1
    assert f.pop_candidates(wave=1) == []  # cooling down
    assert f.pop_candidates(wave=2) == []
    assert len(f.pop_candidates(wave=3)) == 1


def test_frontier_checkpoint_roundtrip():
    f = FrontierShard(3)
    f.set_robots([("a.test", "User-agent: *\nDisallow: /p/\n")])
    f.offer(_mk_items([("https://a.test/1", "a.test"), ("https://b.test/2", "b.test")]))
    blob = f.checkpoint()
    g = FrontierShard(0)
    g.restore(blob)
    assert g.shard_id == 3
    assert g.size() == 2
    d = g.offer(_mk_items([("https://a.test/1", "a.test")]))
    assert d["dup"] == 1  # seen survives checkpoint
    assert [u for _, u, _ in g.pop_candidates(0)] == [
        "https://a.test/1", "https://b.test/2"
    ]


def test_dedup_shard():
    """Checkpoint round trip on the crawl's path: a wave's claims are
    staged, committed, checkpointed, and a restored shard treats them
    as seen in a prior wave."""
    d = DedupShard(0)
    assert d.stage_many_keyed([(10, 0), (11, 1), (10, 2)]) == [
        True, True, False]
    assert d.commit_wave() == []  # 10's later claim was a sure loser
    blob = d.checkpoint()
    d2 = DedupShard(1)
    d2.restore(blob)
    assert d2.shard_id == 0
    assert d2.stage_many_keyed([(11, 0), (12, 1)]) == [False, True]


def test_stage_many_keyed_protocol():
    """Deterministic unit battery for the ord-keyed two-phase claims:
    prior-wave drops, sure-loser pruning, out-of-ord keeps, conflict
    reporting at commit."""
    from playwrightcrawler_ray.state.dedup import DedupShard

    d = DedupShard(0, "exact")
    # wave 1: hash 10 claimed at ord 5 then ord 9 (sure loser) then
    # ord 2 (possible winner — kept), hash 11 once
    assert d.stage_many_keyed([(10, 5)], ns=1) == [True]
    assert d.stage_many_keyed([(10, 9)], ns=1) == [False]   # 9 >= min(5)
    assert d.stage_many_keyed([(10, 2)], ns=1) == [True]    # 2 < 5: may win
    assert d.stage_many_keyed([(11, 0)], ns=0) == [True]
    conflicts = d.commit_wave()
    assert conflicts == [(1, [5, 2])]  # two kept claimants; 11 had one
    # wave 2: both hashes now persistent → all claims dropped
    assert d.stage_many_keyed([(10, 0), (11, 0), (12, 1)]) == [
        False, False, True]
    assert d.commit_wave() == []
    # checkpoint round trip preserves the persistent set
    d2 = DedupShard(0)
    d2.restore(d.checkpoint())
    assert d2.stage_many_keyed([(12, 0)]) == [False]


def test_drop_conflict_losers_rules(ray_session, tmp_path):
    """tombstone resolution: rule 1 (imgvisit losers lose doc+image),
    rule 2 (pixel losers lose only the image row), direct fetches are
    never rule-1 victims — on a constructed wave partition."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from playwrightcrawler_ray.core.schemas import UNIFIED_SCHEMA
    from playwrightcrawler_ray.pipelines.crawl import (
        _write_tombstones, load_unified,
    )
    from playwrightcrawler_ray.urlkit.ids import url_id_64

    def row(kind, url, source, ord_, sub, psha=None):
        r = {f.name: None for f in UNIFIED_SCHEMA}
        r.update(kind=kind, url=url, source=source, ord=ord_, wave=0,
                 subresource=sub, pixel_sha1=psha)
        return r

    u = "https://img.test/shared.png"
    psha = "ab" * 20
    twin = "cd" * 20
    rows = [
        # claimant A (ord 100): doc + image
        row("page", u, "content_type_images_download", 100, True),
        row("image", u, "image_payload", 100, True, psha),
        # claimant B (ord 300): doc + image — rule-1 loser
        row("page", u, "content_type_images_download", 300, True),
        row("image", u, "image_payload", 300, True, psha),
        # direct fetch of the same URL (ord 50): never a rule-1 victim
        row("page", u, "content_type_images_download", 50, False),
        row("image", u, "image_payload", 50, False, psha),
        # pixel twin under a different URL (ord 200): rule-2 loser of
        # the twin-pixel conflict with ord-150 below
        row("image", "https://img.test/t1.png", "image_payload", 200,
            True, twin),
        row("page", "https://img.test/t1.png",
            "content_type_images_download", 200, True),
        row("image", "https://img.test/t2.png", "image_payload", 150,
            True, twin),
        # unrelated page row — untouched
        row("page", "https://a.test/", "content_type_download", 0, None),
    ]
    wave_dir = str(tmp_path / "wave=00000")
    import os

    os.makedirs(wave_dir)
    tbl = pa.Table.from_pylist(rows, schema=UNIFIED_SCHEMA)
    # split across two files: losers and winners in separate files
    pq.write_table(tbl.slice(0, 5), os.path.join(wave_dir, "a.parquet"))
    pq.write_table(tbl.slice(5), os.path.join(wave_dir, "b.parquet"))
    from playwrightcrawler_ray.pipelines.crawl import _loser_ords

    # shard-reported conflicts: (namespace, kept claimant ords)
    conflicts = [
        (0, [100, 300]),        # imgvisit claims on the shared URL
        (1, [50, 100, 300]),    # pixel claims on psha (direct + 2 subs)
        (1, [150, 200]),        # pixel claims on the twin
    ]
    full_l, img_l = _loser_ords(conflicts)
    assert full_l == {300}
    assert img_l == {100, 200}  # 300 already dies by rule 1
    _write_tombstones(wave_dir, full_l, img_l)
    out = load_unified(str(tmp_path)).to_pandas()
    kept = set(zip(out["kind"], out["url"], out["ord"].fillna(-1).astype(int)))
    # rule 1: claimant B (ord 300) fully dropped; A (100) keeps doc+img
    assert ("page", u, 300) not in kept and ("image", u, 300) not in kept
    assert ("page", u, 100) in kept
    # rule 2 within shared URL: among surviving image rows of psha
    # (ords 50 direct + 100 winner), min ord 50 keeps the image row
    assert ("image", u, 50) in kept
    assert ("image", u, 100) not in kept
    # direct fetch doc untouched
    assert ("page", u, 50) in kept
    # twin pixels: ord 150 image kept, ord 200 image dropped, its doc stays
    assert ("image", "https://img.test/t2.png", 150) in kept
    assert ("image", "https://img.test/t1.png", 200) not in kept
    assert ("page", "https://img.test/t1.png", 200) in kept
    assert ("page", "https://a.test/", 0) in kept


def test_frontier_megahost_spill_equivalence(tmp_path):
    """Skew handling: with a tiny host_queue_cap a mega-host's queue
    spills sorted runs to disk, yet every pop sequence is IDENTICAL to
    the unbounded shard's; checkpoint/restore carries the runs."""
    import os
    import random as _r

    rng = _r.Random(5)
    urls = [f"https://mega.test/p{rng.getrandbits(40):011d}" for i in range(2000)]
    waves = [rng.randrange(6) for _ in urls]

    def mk(cap, sd):
        f = FrontierShard(0, host_queue_cap=cap, spill_dir=sd)
        f.offer(_mk_items_waves(urls, waves))
        return f

    def _mk_items_waves(us, ws):
        from playwrightcrawler_ray.urlkit.ids import url_id_64

        return [(u, url_id_64(u), "mega.test", "/p", w) for u, w in zip(us, ws)]

    unbounded = FrontierShard(0)
    unbounded.offer(_mk_items_waves(urls, waves))
    capped = FrontierShard(0, host_queue_cap=64,
                           spill_dir=str(tmp_path / "spill"))
    capped.offer(_mk_items_waves(urls, waves))
    # spill actually happened and memory is bounded
    assert capped.counters["spilled"] > 0
    assert len(capped.heaps["mega.test"]) <= 64
    assert capped.size() == unbounded.size() == 2000
    # interleave pops with new offers; sequences must match exactly
    extra = [f"https://mega.test/zz{i}" for i in range(300)]
    wave = 0
    while unbounded.size() or capped.size():
        a = unbounded.pop_candidates(wave, per_host=17)
        b = capped.pop_candidates(wave, per_host=17)
        assert a == b
        if wave == 3:  # mid-stream offers (some keys below spilled runs)
            unbounded.offer(_mk_items_waves(extra, [0] * len(extra)))
            capped.offer(_mk_items_waves(extra, [0] * len(extra)))
        if wave == 5:  # checkpoint round trip mid-stream, runs included
            blob = capped.checkpoint()
            capped = FrontierShard(9, spill_dir=str(tmp_path / "spill2"))
            capped.restore(blob)
        wave += 1
        assert wave < 500
    assert unbounded.size() == capped.size() == 0


def test_stage_many_keyed_idempotent_restage():
    """A retried Ray task re-stages a (hash, ord) pair already kept this
    wave: the re-claim must answer keep=True (the original task's output
    was lost — that is why it retried), never "sure loser"."""
    from playwrightcrawler_ray.state.dedup import DedupShard

    d = DedupShard(0, "exact")
    assert d.stage_many_keyed([(10, 5)], ns=1) == [True]
    # same task retried: identical claim must be kept again
    assert d.stage_many_keyed([(10, 5)], ns=1) == [True]
    # a different, larger ord is still a sure loser
    assert d.stage_many_keyed([(10, 9)], ns=1) == [False]
    # smaller-ord claim kept, then ITS retry also kept
    assert d.stage_many_keyed([(10, 2)], ns=1) == [True]
    assert d.stage_many_keyed([(10, 2)], ns=1) == [True]
    # re-stage does not duplicate the kept-ord list at commit
    assert d.commit_wave() == [(1, [5, 2])]


def test_frontier_spill_cap_one_no_starvation(tmp_path):
    """host_queue_cap=1 keeps at least one entry resident after a spill
    (_maybe_spill keeps max(1, cap//2)) — every offered URL is still
    popped eventually instead of cycling spill↔merge forever."""
    from playwrightcrawler_ray.urlkit.ids import url_id_64

    urls = [f"https://one.test/p{i:04d}" for i in range(50)]
    f = FrontierShard(0, host_queue_cap=1, spill_dir=str(tmp_path / "s1"))
    f.offer([(u, url_id_64(u), "one.test", "/p", 0) for u in urls])
    assert f.counters["spilled"] > 0
    got = []
    for wave in range(500):
        batch = f.pop_candidates(wave, per_host=5)
        got.extend(u for _w, u, _h in batch)
        if f.size() == 0:
            break
    assert f.size() == 0
    assert sorted(got) == sorted(urls)


def test_bloom_vectorized_paths_agree_with_scalar():
    """add_bulk/contains_many must agree bit-for-bit with the scalar
    add_if_absent/__contains__ layout: no false negatives ever, and
    identical bit arrays for identical inserts."""
    import numpy as np

    rng = np.random.default_rng(9)
    keys = rng.integers(0, 2**63, size=2_000, dtype=np.int64).astype(np.uint64)
    a = BloomFilter(capacity=4_096, fp_rate=1e-4)
    b = BloomFilter(capacity=4_096, fp_rate=1e-4)
    for h in keys:
        a.add_if_absent(int(h))
    b.add_bulk(keys)
    assert np.array_equal(a.state()["bits"], b.state()["bits"])
    assert len(a) == len(b)          # distinct-insert count semantics
    b.add_bulk(keys)                 # re-adding present keys: no change
    assert len(a) == len(b)
    assert bool(np.all(b.contains_many(keys)))          # no false negatives
    # scalar and vectorized probes agree on random non-members too
    probes = rng.integers(0, 2**63, size=2_000, dtype=np.int64).astype(np.uint64)
    vec = b.contains_many(probes)
    for h, v in zip(probes, vec):
        assert (int(h) in b) == bool(v)


def test_bloom_semijoin_false_positives_are_verified_away(ray_session,
                                                          tmp_path):
    """Force a saturated (tiny) bloom so false positives certainly
    occur in the prune pass, and check the searchsorted verify stage
    still yields the exact join result."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.joins import q_bloom_semijoin

    rng = np.random.default_rng(4)
    n_orders = 400
    prio = np.where(np.arange(n_orders) % 7 == 0, "1-URGENT", "3-MEDIUM")
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
        "o_orderpriority": pa.array(prio.astype(object)),
    }), str(tmp_path / "orders.parquet"))
    li_keys = rng.integers(0, n_orders, size=5_000).astype(np.int64)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(li_keys),
        "l_quantity": pa.array(rng.integers(1, 50, size=5_000).astype(np.float64)),
    }), str(tmp_path / "lineitem.parquet"))

    # fp_rate ~0.5: the bloom passes many non-members — verify must drop them
    got = q_bloom_semijoin(str(tmp_path), fp_rate=0.5)
    li = pd.read_parquet(tmp_path / "lineitem.parquet")
    want = (
        li[li["l_orderkey"] % 7 == 0]
        .assign(_q=lambda d: d["l_quantity"].astype("int64"))
        .groupby("l_orderkey", as_index=False)
        .agg(n_items=("_q", "size"), sum_qty=("_q", "sum"))
        .rename(columns={"l_orderkey": "orderkey"})
    )
    assert got["orderkey"].is_monotonic_increasing
    assert_matches_oracle(got, want)
