"""The driver's oracle comparison, shared by the tests that check an op
against its DuckDB twin: same columns, the same dtype per column and
the same rows in any order."""

from __future__ import annotations

import pandas as pd


def _dtype_kind(s: pd.Series) -> str:
    """A column's dtype family: what a rows-only op's zero-row columns
    share with its columns on data, where no oracle fixes the width."""
    t = s.dtype
    if pd.api.types.is_bool_dtype(t):
        return "bool"
    if pd.api.types.is_integer_dtype(t):
        return "integer"
    if pd.api.types.is_float_dtype(t):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(t):
        return "datetime"
    if pd.api.types.is_string_dtype(t) or pd.api.types.is_object_dtype(t):
        return "string/object"
    return str(t)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(4)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def assert_matches_oracle(got, want: pd.DataFrame) -> None:
    """Same columns, the same dtype per column (compared before
    ``_normalize`` widens the ints), same rows in any order (floats
    rounded by ``_normalize``)."""
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    dtypes = {c: (str(got[c].dtype), str(want[c].dtype))
              for c in got.columns if c in want.columns}
    assert all(a == b for a, b in dtypes.values()), {
        c: d for c, d in dtypes.items() if d[0] != d[1]}
    g, w = _normalize(got), _normalize(want)
    assert list(g.columns) == list(w.columns), (g.columns, w.columns)
    assert len(g) == len(w), (len(g), len(w))
    pd.testing.assert_frame_equal(g, w, check_dtype=False, atol=1e-9)
