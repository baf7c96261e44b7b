"""Edge battery for ExactSubstr span removal (ops/pardedup.py
q_docs_substring_dedup): self-overlapping repeats, full-document
removal, cross-document first-occurrence ordering, and sub-w docs
must agree exactly with the DuckDB oracle AND with hand-computed
expectations."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from playwrightcrawler_ray.ops.pardedup import (
    q_docs_substring_dedup,
    sql_docs_substring_dedup,
)

from oracle_compare import assert_matches_oracle

W = 3
EDGE_DOCS = [
    # doc 1 holds the global first occurrence of "p q r s"
    (1, "p q r s unique one tail"),
    # doc 2 repeats that span → its copy is cut
    (2, "head p q r s more words here"),
    # doc 3 IS entirely a duplicate of doc 1's opening → fully removed
    (3, "p q r s"),
    # doc 4: self-overlapping repeat inside ONE doc ("a a a a a"):
    # all w-grams equal; only the first occurrence survives
    (4, "a a a a a"),
    # doc 5: shorter than w tokens → untouched
    (5, "x y"),
    # doc 6: no duplicated grams at all → untouched
    (6, "totally fresh material nothing shared anywhere"),
]


@pytest.fixture(scope="module")
def edge_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("substr")
    ids, texts = zip(*EDGE_DOCS)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": list(texts)}),
        d / "documents.parquet",
    )
    return str(d)


@pytest.fixture(scope="module")
def result(ray_session, edge_sf):
    return q_docs_substring_dedup(edge_sf, w=W)


def test_substring_dedup_matches_oracle_on_edges(result, edge_sf):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{edge_sf}/documents.parquet'"
    )
    want = con.sql(sql_docs_substring_dedup(w=W)).df()
    assert result["doc_id"].is_monotonic_increasing
    assert_matches_oracle(result[want.columns], want)


def test_substring_dedup_semantics(result):
    r = {int(row.doc_id): row for row in result.itertuples()}
    # first occurrence untouched
    assert r[1].n_removed == 0
    assert r[1].text == "p q r s unique one tail"
    # the repeated span is cut from doc 2, the rest survives
    assert r[2].n_removed == 4
    assert r[2].text == "head more words here"
    # doc 3 vanishes entirely (text empty, all tokens removed)
    assert r[3].n_removed == 4 and r[3].text == ""
    # self-overlap: "a a a a a" has grams at 0/1/2, all equal; the
    # duplicate occurrences at 1 and 2 cover positions 1-4, so only
    # token 0 survives
    assert r[4].n_removed == 4
    assert r[4].text == "a"
    # sub-w and fresh docs untouched
    assert r[5].n_removed == 0 and r[5].text == "x y"
    assert r[6].n_removed == 0
    # every input doc appears exactly once
    assert sorted(r) == [1, 2, 3, 4, 5, 6]


def test_substring_dedup_idempotent(ray_session, edge_sf, result, tmp_path):
    """Running the cut on its own output removes nothing further —
    span removal reaches a fixed point in one pass here (all
    duplicated w-grams were cut)."""
    pq.write_table(
        pa.table({
            "doc_id": pa.array(result["doc_id"].tolist(), pa.int64()),
            "text": result["text"].tolist(),
        }),
        tmp_path / "documents.parquet",
    )
    again = q_docs_substring_dedup(str(tmp_path), w=W)
    assert int(again["n_removed"].sum()) == 0
    assert again["text"].tolist() == result["text"].tolist()
