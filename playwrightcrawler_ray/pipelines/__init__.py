"""Crawl pipelines: the wave driver (plain Ray tasks over sharded
frontier and dedup actors) and the sequential reference-semantics
oracle it is verified against."""
