"""Wave strategies + frontier sharding invariance (SURVEY.md §5.2)."""

from __future__ import annotations

from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from playwrightcrawler_ray.pipelines.strategy import (
    apply_strategy,
    choose_strategy,
    strategy_plan,
    wave_rng,
)
from playwrightcrawler_ray.state.frontier import FrontierShard, shard_of
from playwrightcrawler_ray.urlkit.ids import url_id_64

CANDS = [
    (0, "https://a.test/1", "a.test"),
    (0, "https://b.test/1", "b.test"),
    (1, "https://a.test/2", "a.test"),
    (1, "https://c.test/1", "c.test"),
    (2, "https://d.test/1", "d.test"),
]


def test_wave_rng_deterministic():
    assert wave_rng(42, 3).random() == wave_rng(42, 3).random()
    assert wave_rng(42, 3).random() != wave_rng(42, 4).random()


def test_choose_strategy_weighted_deterministic():
    weights = {"oldest": 1, "random": 5, "host_prefix": 10, "fewest_urls": 1}
    picks = [choose_strategy(wave_rng(1, w), weights) for w in range(200)]
    assert picks == [choose_strategy(wave_rng(1, w), weights) for w in range(200)]
    # all strategies get chosen over enough waves
    assert set(picks) == set(weights)


def test_oldest_strategy():
    sel, left = apply_strategy("oldest", CANDS, 3, wave_rng(1, 0))
    assert sel == CANDS[:3] and left == CANDS[3:]


def test_random_strategy_seeded():
    a = apply_strategy("random", CANDS, 3, wave_rng(9, 5))
    b = apply_strategy("random", CANDS, 3, wave_rng(9, 5))
    assert a == b
    assert len(a[0]) == 3 and len(a[1]) == 2
    assert a[0] == sorted(a[0])  # wave processed in frontier order


def test_host_prefix_strategy():
    # all hosts start with a-d; a seeded rng eventually picks one
    sel, left = apply_strategy("host_prefix", CANDS, 10, wave_rng(3, 7))
    if sel:  # a matching prefix was drawn within 20 attempts
        prefix = sel[0][2][0]
        assert all(c[2].startswith(prefix) for c in sel)
        assert len(sel) + len(left) == len(CANDS)
    else:
        assert left == CANDS


def test_fewest_urls_ghost_strategy():
    # reproduce_reference_bugs=True → empty round (the reference's
    # unregistered-strategy KeyError path, playwrightcrawler.py:4482-4503)
    sel, left = apply_strategy("fewest_urls", CANDS, 3, wave_rng(1, 0), True)
    assert sel == [] and left == CANDS
    # bug-fix mode degrades to oldest
    sel2, _ = apply_strategy("fewest_urls", CANDS, 3, wave_rng(1, 0), False)
    assert sel2 == CANDS[:3]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([f"host{i:02d}.test" for i in range(12)]),
            st.integers(min_value=0, max_value=999),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_pop_order_invariant_under_shard_count(items):
    """Merged frontier pops must be identical for any shard count —
    the determinism the oracle comparison relies on."""

    def run(num_shards: int):
        shards = [FrontierShard(i) for i in range(num_shards)]
        for host, n in items:
            url = f"https://{host}/p{n}"
            shards[shard_of(host, num_shards)].offer(
                [(url, url_id_64(url), host, urlsplit(url).path, 0)]
            )
        out = []
        wave = 0
        while True:
            cands = sorted(
                c for s in shards for c in s.pop_candidates(wave, per_host=1)
            )
            if not cands:
                break
            out.extend(cands)
            wave += 1
        return out

    assert run(1) == run(3) == run(8)


# varied first characters, so host_prefix plans both match and miss
PLAN_HOSTS = ["a1.test", "apple.test", "b.test", "host00.test",
              "host01.test", "h.test", "0x.test", "9z.test", "zeta.test",
              "m.test", "mm.test", "q7.test"]
DELAY_HOSTS = {"apple.test", "host01.test", "9z.test"}
STRATEGIES = ["fewest_urls", "oldest", "host_prefix", "random"]


def _plan_fleet(cands, n_shards):
    shards = [FrontierShard(i) for i in range(n_shards)]
    for s in shards:
        s.set_robots([(h, "User-agent: *\nCrawl-delay: 2\n")
                      for h in DELAY_HOSTS])
    for w, url, host in cands:
        shards[shard_of(host, n_shards)].offer(
            [(url, url_id_64(url), host, urlsplit(url).path, w)])
    return shards


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.sampled_from(PLAN_HOSTS),
                  st.integers(min_value=0, max_value=40),
                  st.integers(min_value=0, max_value=5)),
        min_size=1, max_size=40, unique_by=lambda t: (t[0], t[1]),
    ),
    n_shards=st.sampled_from([1, 3, 8]),
    weights=st.dictionaries(st.sampled_from(STRATEGIES),
                            st.integers(min_value=1, max_value=10),
                            min_size=1),
    bugs=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_plan_split_selects_what_the_full_pool_selects(
        items, n_shards, weights, bugs, seed, data):
    """Each shard's ``step`` drops only rows the wave's strategy cannot
    select: the strategy on the merged selectable rows selects exactly
    what it selects on the whole merged pop, the shard-local rests plus
    the driver's leftover are the whole leftover, and every wave —
    ghost included — pops and sets crawl-delay cooldowns."""
    cands = sorted((w, f"https://{h}/p{n}", h) for h, n, w in items)
    size = data.draw(st.integers(min_value=1, max_value=len(cands)))
    wave = 7
    shards = _plan_fleet(cands, n_shards)

    rng = wave_rng(seed, wave)
    plan = strategy_plan(rng, weights, size, bugs)
    parts = [s.step(wave, len(cands), plan) for s in shards]
    merged = sorted(c for keep, _, _ in parts for c in keep)
    selected, leftover = apply_strategy(
        choose_strategy(rng, weights), merged, size, rng, bugs)

    ref_rng = wave_rng(seed, wave)
    ref_sel, ref_left = apply_strategy(
        choose_strategy(ref_rng, weights), cands, size, ref_rng, bugs)
    assert selected == ref_sel
    rests = [(w, u, h) for s in shards for h, q in s.heaps.items()
             for w, u in q]
    assert sorted(rests + leftover) == sorted(ref_left)
    assert sum(popped for _, popped, _ in parts) == len(cands)
    assert all(queued is None for _, popped, queued in parts if popped)
    for s in shards:
        assert s.counters["popped"] == sum(
            1 for _, _, h in cands if shard_of(h, n_shards) == s.shard_id)
        assert s.counters["pushed_back"] == s.size()
    for h in DELAY_HOSTS & {h for _, _, h in cands}:
        shard = shards[shard_of(h, n_shards)]
        assert shard.host_cooldown_until[h] == wave + 3


def test_ghost_step_pops_nothing_out_but_cools_hosts():
    """A ghost wave ships no row, yet pops (and so cools crawl-delay
    hosts) exactly like any other wave; a shard that pops nothing
    reports its queue size for the driver's stop rule."""
    cands = [(0, "https://apple.test/1", "apple.test"),
             (0, "https://b.test/1", "b.test"),
             (1, "https://apple.test/2", "apple.test")]
    (shard,) = _plan_fleet(cands, 1)
    assert shard.step(4, 1, ("top", 0)) == ([], 2, None)
    assert shard.host_cooldown_until == {"apple.test": 7}
    assert shard.counters["popped"] == shard.counters["pushed_back"] == 2
    assert shard.size() == 3
    # b.test popped again, apple.test still cooling down
    assert shard.step(5, 1, ("top", 0)) == ([], 1, None)
    (cooling,) = _plan_fleet(cands[2:], 1)
    assert cooling.step(0, 1, ("all", None)) == ([cands[2]], 1, None)
    cooling.push_back([cands[2]])
    assert cooling.step(1, 1, ("all", None)) == ([], 0, 1)
    assert FrontierShard(1).step(5, 1, ("all", None)) == ([], 0, 0)


def _fleet_state(shards):
    return ([dict(s.host_cooldown_until) for s in shards],
            [(s.counters["popped"], s.counters["pushed_back"], s.size())
             for s in shards])


# only ghost waves: the run ends at the empty-streak stop, which then
# bounds the last window of a limit above it
_GHOSTS = dict(items=[("a1.test", 0, 0), ("b.test", 1, 0)],
               weights={"fewest_urls": 1}, limit=100,
               delay_hosts={"b.test"}, cap=0, bugs=True, seed=0,
               wave_size=3, per_host=1)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(n_shards=1, **_GHOSTS)
@example(n_shards=3, **_GHOSTS)
@given(
    items=st.lists(
        st.tuples(st.sampled_from(PLAN_HOSTS),
                  st.integers(min_value=0, max_value=40),
                  st.integers(min_value=0, max_value=5)),
        min_size=1, max_size=40, unique_by=lambda t: (t[0], t[1]),
    ),
    n_shards=st.sampled_from([1, 3, 8]),
    weights=st.dictionaries(st.sampled_from(STRATEGIES),
                            st.integers(min_value=1, max_value=10),
                            min_size=1),
    limit=st.sampled_from([30, 100]),
    delay_hosts=st.sets(st.sampled_from(PLAN_HOSTS)),
    cap=st.sampled_from([0, 1, 2]),
    bugs=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
    wave_size=st.integers(min_value=1, max_value=6),
    per_host=st.integers(min_value=1, max_value=2),
)
def test_step_ahead_with_rollback_matches_one_step_per_wave(
        items, n_shards, weights, limit, delay_hosts, cap, bugs, seed,
        wave_size, per_host):
    """A fleet driven as the crawl driver drives it — ``step_ahead`` on
    every shard over the driver's window, serve waves up to the earliest
    stop ``w*``, roll back the shards that ran past it — matches a fleet
    stepped once per wave: the same merged selectable rows on every
    non-empty wave, the same cooldowns, ``popped``/``pushed_back``
    counters and queue sizes at each of its barriers and at the stop
    (``max_waves``, the empty-streak stop or an empty queue), and the
    same pop order afterwards. ``host_queue_cap`` forces spills, whose
    layout may differ. A URL drawn with wave ``w > 0`` is offered at
    the first non-empty wave from ``w`` on, as a link found by that
    wave's fetches, so hosts also first appear (and first cool down)
    after a run-ahead."""
    import tempfile

    from playwrightcrawler_ray.pipelines.crawl import _RunState

    w0 = min(w for _, _, w in items)  # some URLs are there at wave 0
    cands = sorted((w - w0, f"https://{h}/p{n}", h) for h, n, w in items)
    with tempfile.TemporaryDirectory() as tmp:

        def fleet(tag):
            shards = [FrontierShard(i, host_queue_cap=cap,
                                    spill_dir=f"{tmp}/{tag}{i}")
                      for i in range(n_shards)]
            for s in shards:
                s.set_robots([(h, "User-agent: *\nCrawl-delay: 1\n")
                              for h in delay_hosts])
            offer(shards, [c for c in cands if c[0] == 0])
            return shards

        def offer(shards, rows):
            for w, url, host in rows:
                shards[shard_of(host, n_shards)].offer(
                    [(url, url_id_64(url), host, urlsplit(url).path, w)])

        ref, ahead = fleet("ref"), fleet("ahead")

        def merge(parts):
            rows = sorted(c for keep, _, _ in parts for c in keep)
            if any(popped for _, popped, _ in parts):
                return rows, None
            return rows, sum(queued for _, _, queued in parts)

        buffered: dict = {}
        run = _RunState(limit=limit)
        while run.wave < limit:
            wave = run.wave
            plan = strategy_plan(wave_rng(seed, wave), weights, wave_size,
                                 bugs)
            want = merge([s.step(wave, per_host, plan) for s in ref])
            if wave not in buffered:
                n = run.window()
                replies = [s.step_ahead(wave, per_host, n, seed, weights,
                                        wave_size, bugs) for s in ahead]
                last = wave + min(len(r) for r in replies) - 1
                for s, r in zip(ahead, replies):
                    if wave + len(r) - 1 > last:
                        s.rollback(last)
                buffered = {w: merge([r[w - wave] for r in replies])
                            for w in range(wave, last + 1)}
            assert buffered.pop(wave) == want
            rows, queued = want
            if queued == 0:
                break
            selected = []
            if rows:
                rng = wave_rng(seed, wave)
                selected, leftover = apply_strategy(
                    choose_strategy(rng, weights), rows, wave_size, rng, bugs)
                found = [c for c in cands if 0 < c[0] <= wave]
                cands = [c for c in cands if c not in found]
                for fl in (ref, ahead):
                    for c in leftover:
                        fl[shard_of(c[2], n_shards)].push_back([c])
                    offer(fl, found)
                assert _fleet_state(ahead) == _fleet_state(ref)
            if not run.advance(bool(selected)):
                break

        assert _fleet_state(ahead) == _fleet_state(ref)
        for w in range(run.wave, run.wave + 60):
            assert (sorted(c for s in ahead for c in s.pop_candidates(w))
                    == sorted(c for s in ref for c in s.pop_candidates(w)))
