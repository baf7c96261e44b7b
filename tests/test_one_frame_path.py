"""Every Dataset→pandas conversion in ``ops/``, ``pipelines/`` and
``cli.py`` goes through ``ops/io.to_frame``, the one path that keeps an
op's typed columns on a zero-row input. A ``.to_pandas()`` call there
outside ``to_frame`` fails this test unless its ``file::function``
(dotted for a nested def) sits on ``ALLOWED`` with a one-line reason;
only conversions of a pyarrow Table belong there. An entry whose call
is gone must leave the list."""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "playwrightcrawler_ray"

PATH = "ops/io.py::to_frame"
ALLOWED = {
    "ops/textstats.py::q_docs_inverted_index.partials":
        "a pyarrow Table: the batch's distinct (token, doc) pairs",
    "pipelines/trainset_text.py::read_manifest":
        "a pyarrow Table read back from the written shards",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def to_pandas_calls() -> set[str]:
    """``path::function`` of each scope that calls ``.to_pandas()``."""
    found: set[str] = set()

    def visit(node: ast.AST, rel: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = (*scope, child.name) if isinstance(child, _SCOPES) else scope
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "to_pandas"):
                found.add(f"{rel}::{'.'.join(scope) or '<module>'}")
            visit(child, rel, inner)

    for path in [*(PKG / "ops").rglob("*.py"),
                 *(PKG / "pipelines").rglob("*.py"), PKG / "cli.py"]:
        visit(ast.parse(path.read_text()), path.relative_to(PKG).as_posix(),
              ())
    return found


def test_every_dataset_to_pandas_goes_through_to_frame():
    calls = to_pandas_calls()
    assert PATH in calls
    stray = sorted(calls - {PATH} - ALLOWED.keys())
    assert not stray, f".to_pandas() outside {PATH}, not allowlisted: {stray}"
    stale = sorted(ALLOWED.keys() - calls)
    assert not stale, f"allowlisted but no .to_pandas() call left: {stale}"
