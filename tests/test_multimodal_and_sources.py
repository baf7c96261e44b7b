"""Seed-file source, fast extension pass and user-agent rotation."""

from __future__ import annotations


def test_seeds_from_files(ray_session, tmp_path):
    from playwrightcrawler_ray.corpus.seeds import seeds_from_files

    f = tmp_path / "seeds1.txt"
    f.write_text(
        "https://a.test/\n# comment\n\nhtpps://b.test/x\n"
        "https://sub.gstatic.com/blocked\nhttps://a.test/\n"
        "data:whatever\nhttps://c.test/page\n"
    )
    out = seeds_from_files(str(tmp_path))
    assert out == ["https://a.test/", "https://b.test/x", "https://c.test/page"]
    capped = seeds_from_files(str(tmp_path), max_urls=2)
    assert len(capped) == 2


def test_fast_extension_pass():
    from playwrightcrawler_ray.pipelines.fastpass import head_validate, plan_fast_pass

    fast, full = plan_fast_pass([
        "https://h.test/doc.pdf",
        "https://h.test/pic.JPG",
        "https://h.test/page",          # no extension → full path
        "https://h.test/odd.xyz123",    # unknown extension → full path
    ])
    assert ("https://h.test/doc.pdf", "pdf") in fast
    assert ("https://h.test/pic.JPG", "image") in fast
    assert full == ["https://h.test/page", "https://h.test/odd.xyz123"]

    served = {
        "https://h.test/doc.pdf": "application/pdf",
        "https://h.test/pic.JPG": "text/html",  # mismatch → fallback
    }
    validated, fallback = head_validate(fast, lambda u: served.get(u, ""))
    assert validated == [("https://h.test/doc.pdf", "application/pdf", "pdf")]
    assert fallback == ["https://h.test/pic.JPG"]


def test_ua_pool_rotation():
    """T2: deterministic UA rotation — stable per URL, spread across
    the pool over many URLs."""
    from collections import Counter

    from playwrightcrawler_ray.functions.uapool import (
        USER_AGENTS, pick_user_agent,
    )

    assert pick_user_agent("https://a.test/x") == pick_user_agent(
        "https://a.test/x")
    # retry attempts may rotate to a different agent
    assert isinstance(pick_user_agent("https://a.test/x", attempt=1), str)
    counts = Counter(
        pick_user_agent(f"https://h{i}.test/p{i}") for i in range(600)
    )
    assert set(counts) <= set(USER_AGENTS)
    assert len(counts) == len(USER_AGENTS)      # every agent used
    assert max(counts.values()) < 600 * 0.5     # no degenerate skew
