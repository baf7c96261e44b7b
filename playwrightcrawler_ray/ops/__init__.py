"""Large-scale data-processing operators over the driver's parquet
tables: analytics (groupby/join/topk/anti-join/windows), text analysis,
dedup family (exact, n-gram Jaccard, MinHash-LSH, SimHash), similarity
search (brute-force + LSH-bucketed ANN).

Each driver op is declared once in __ray_entry__.op_registry() with
either its DuckDB oracle SQL or the reason it is rows-only
(approximate, heuristic, iterative, ...).
"""
