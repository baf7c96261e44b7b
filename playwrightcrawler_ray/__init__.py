"""playwrightcrawler_ray — a Ray-Data-native crawl-and-extract engine.

A from-scratch reimplementation of the capabilities of
rggassner/playwrightcrawler (reference at /root/reference, cited by
file:line throughout) on idiomatic Ray Data:

- pyarrow batch stages over zero-copy Arrow batches for fetch → route →
  parse → decode → write, run per crawl-wave chunk as plain Ray tasks;
  ``ray.data.Dataset`` pipelines of ``map_batches`` for the images table
  and the post-crawl ops;
- Ray actor pools for the mutable crawl state (sharded URL-frontier with a
  cuckoo-filter URL-seen set, per-host politeness budgets, robots cache,
  pixel-hash dedup set);
- partitioned Parquet sinks (one directory per crawl wave) as the sandbox
  stand-in for Lance tables — same layout contract: appendable, versioned
  by wave, resumable per partition.

Nothing here is a port: the reference's Elasticsearch-as-frontier and
sequential Playwright loop are replaced by an explicit frontier service and
waves of plain Ray tasks over the same pyarrow batch stages (SURVEY.md §7).
"""

__version__ = "0.1.0"
