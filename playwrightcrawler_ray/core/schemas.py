"""Arrow schemas for the engine's tables (SURVEY.md §1.4).

The reference's schema is ES-dynamic but fixed per ``source`` label
(SURVEY.md §1.3); here every table has an explicit ``pyarrow.Schema``.
The crawl pipeline emits one *unified* row stream (``kind`` column
discriminates page docs from image rows) so each wave chunk writes
one parquet file; ``IMAGES_SCHEMA`` (the BASELINE.json
input_hint shape) and ``PAGES_SCHEMA`` are projections of it.
"""

from __future__ import annotations

import pyarrow as pa

MAX_LEVELS = 7

_level_cols = [(f"host_level_{i}", pa.string()) for i in range(1, MAX_LEVELS + 1)] + [
    (f"directory_level_{i}", pa.string()) for i in range(1, MAX_LEVELS + 1)
]

# One row per fetched resource or image payload; kind ∈ {page, imgref, image}.
UNIFIED_FIELDS: list[tuple[str, pa.DataType]] = [
    ("kind", pa.string()),
    ("url", pa.string()),
    ("url_id", pa.string()),          # sha1 of canonical url (north-rule key)
    ("host", pa.string()),
    ("parent_host", pa.string()),
    ("wave", pa.int32()),
    ("status", pa.int32()),
    ("content_type", pa.string()),    # sanitized MIME
    ("category", pa.string()),        # router output
    ("source", pa.string()),          # handler/error taxonomy label
    ("visited", pa.bool_()),
    ("isopendir", pa.bool_()),
    ("opendir_pattern", pa.string()),
    ("words", pa.list_(pa.string())),
    ("min_webcontent", pa.string()),
    ("emails", pa.list_(pa.string())),
    ("has_query", pa.bool_()),
    ("query_variables", pa.list_(pa.string())),
    ("query_values", pa.list_(pa.string())),
    *_level_cols,
    ("file_extension", pa.string()),
    ("node_id", pa.string()),
    # time-partition key, the reference's monthly ES-index analogue
    # (get_index_name appends a UTC YYYY-MM suffix per document,
    # playwrightcrawler.py:1458-1481). Stamped on every persisted row
    # from CrawlConfig.crawl_yyyymm — deterministic in the sandbox, the
    # deployment slot for datetime.now(timezone.utc).strftime("%Y-%m").
    ("yyyymm", pa.string()),
    # image payload columns (input_hint shape + dedup keys)
    ("image_id", pa.string()),        # sha1 of canonical image url
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
    ("pixel_sha1", pa.string()),
    ("resolution", pa.int64()),
    # True on rows descending from an <img>-subresource claim, False on a
    # direct (frontier-popped) image fetch, null elsewhere. Conflict
    # resolution drops only losing SUBRESOURCE claimants (a direct fetch
    # always emits its doc, like the oracle).
    ("subresource", pa.bool_()),
    # per-wave lineage: page_ord * 2^20 + emit_seq, where page_ord is the
    # position of the originating page in the wave's selected order and
    # emit_seq numbers that page's emitted rows (content rows, then image
    # refs in document order). Total order over a wave's rows — the
    # deterministic tiebreak for in-wave dedup winner resolution (the
    # sequential oracle's "first processed wins"). Null on link rows.
    ("ord", pa.int64()),
]

UNIFIED_SCHEMA = pa.schema(UNIFIED_FIELDS)

# BASELINE.json input_hint: the authoritative images-table shape.
IMAGES_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)

PAGES_COLUMNS = [
    "url", "url_id", "host", "parent_host", "wave", "status", "content_type",
    "category", "source", "visited", "isopendir", "opendir_pattern", "words",
    "min_webcontent", "emails", "has_query", "query_variables", "query_values",
    *[f"host_level_{i}" for i in range(1, MAX_LEVELS + 1)],
    *[f"directory_level_{i}" for i in range(1, MAX_LEVELS + 1)],
    "file_extension", "node_id", "yyyymm",
]

IMAGES_COLUMNS = [f.name for f in IMAGES_SCHEMA]


def empty_unified_row() -> dict:
    """A fully-null unified row template (dict per row; the parse stage
    fills what applies and pyarrow nulls the rest)."""
    return {name: None for name, _ in UNIFIED_FIELDS}
