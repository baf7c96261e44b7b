"""Every top-level function and class in the package, and every method
of a reached class, is reachable from a declared root.

The walk is name-level. It starts from the names used by the entry
files (``__ray_entry__.py`` with its ``op_registry()``, ``bench.py``,
the non-test ``perfbench`` modules and ``scripts/``), by the package's
module-level statements, by ``ENTRY_ROOTS`` (the CLI and the crawl
engine) and by ``ROOTS``. A definition whose name is reached is
reached, and the names its body uses are reached in turn:
- a module-level import only binds a name; its ``as`` alias reaches
  the imported name;
- an import inside a function counts as a use;
- ``__all__`` lists count for nothing;
- a method is reached when its class is, and its name is used or
  appears as a string constant, because actor RPCs are dispatched by
  method name (``stages/ray_stages.route``).

``ROOTS`` holds what no entry point runs but the package keeps on
purpose, each with the reason: a SURVEY row, the plugin API or an
HTMLParser callback. An entry that becomes reachable from the other
roots, or is deleted, must leave the list."""

from __future__ import annotations

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "playwrightcrawler_ray"

ENTRY_ROOTS = ("cli.py::main", "pipelines/crawl.py::CrawlEngine")

_HTMLPARSER = "HTMLParser callback: the base class calls it by name"

ROOTS = {
    "functions/html.py::_Extractor.handle_starttag": _HTMLPARSER,
    "functions/html.py::_Extractor.handle_endtag": _HTMLPARSER,
    "functions/html.py::_Extractor.handle_data": _HTMLPARSER,
    "functions/html.py::_Extractor.handle_startendtag": _HTMLPARSER,
    "stages/process.py::register_content_handler":
        "plugin API: SURVEY §2.10 user-extension surface",
    "pipelines/export.py::host_level_counts":
        "SURVEY A5: host-level distribution over stored fields",
    "pipelines/export.py::dir_depth_histogram":
        "SURVEY A5: dir-depth histogram over stored fields",
    "pipelines/export.py::export_media_files":
        "SURVEY M24: traversal-proof file-tree export",
    "pipelines/fastpass.py::plan_fast_pass":
        "SURVEY J4: extension-keyed fast-pass candidate split",
    "pipelines/fastpass.py::head_validate":
        "SURVEY J4: HEAD-validated fast pass",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)
_parse = functools.lru_cache(maxsize=None)(ast.parse)


def _collect(nodes, names: set[str], strings: set[str]) -> None:
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def definitions(package: dict[str, str]) -> list[str]:
    """``path::name`` of each top-level definition and
    ``path::Class.method`` of each method in ``package``."""
    keys = []
    for rel, src in package.items():
        for stmt in _parse(src).body:
            if isinstance(stmt, _DEFS):
                keys.append(f"{rel}::{stmt.name}")
                if isinstance(stmt, ast.ClassDef):
                    keys.extend(f"{rel}::{stmt.name}.{m.name}"
                                for m in stmt.body if isinstance(m, _FUNCS))
    return keys


def reachable(package: dict[str, str], entries: list[str],
              roots) -> set[str]:
    """Keys (as in ``definitions``) reached from the ``entries``
    sources, the module-level statements of ``package`` and ``roots``."""
    roots = set(roots)
    names: set[str] = set()
    strings: set[str] = set()
    _collect([_parse(src) for src in entries], names, strings)
    defs, methods, aliases = [], [], []
    for rel, src in package.items():
        for stmt in _parse(src).body:
            if isinstance(stmt, ast.ClassDef):
                key = f"{rel}::{stmt.name}"
                defs.append((key, stmt.name, [
                    *stmt.decorator_list, *stmt.bases, *stmt.keywords,
                    *(s for s in stmt.body if not isinstance(s, _FUNCS))]))
                methods.extend((f"{key}.{m.name}", key, m.name, m)
                               for m in stmt.body if isinstance(m, _FUNCS))
            elif isinstance(stmt, _FUNCS):
                defs.append((f"{rel}::{stmt.name}", stmt.name, [stmt]))
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                aliases.extend((a.asname, a.name.rsplit(".", 1)[-1])
                               for a in stmt.names if a.asname)
            elif not _is_all(stmt):
                _collect([stmt], names, strings)
    reached: set[str] = set()
    changed = True
    while changed:
        changed = False
        names.update(name for asname, name in aliases if asname in names)
        for key, name, parts in defs:
            if key not in reached and (name in names or key in roots):
                reached.add(key)
                _collect(parts, names, strings)
                changed = True
        for key, cls, name, node in methods:
            if key in reached or cls not in reached:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name in names or name in strings or key in roots:
                reached.add(key)
                _collect([node], names, strings)
                changed = True
    return reached


def _repo_sources() -> tuple[dict[str, str], list[str]]:
    bench = [p for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_") and p.name != "conftest.py"]
    entries = [ROOT / "__ray_entry__.py", ROOT / "bench.py", *bench,
               *(ROOT / "scripts").rglob("*.py")]
    package = {p.relative_to(PKG).as_posix(): p.read_text()
               for p in sorted(PKG.rglob("*.py"))}
    return package, [p.read_text() for p in entries]


def unreached(package, entries, roots) -> list[str]:
    got = reachable(package, entries, roots)
    return [k for k in definitions(package) if k not in got]


def test_every_definition_is_reachable_from_a_root():
    package, entries = _repo_sources()
    dead = unreached(package, entries, [*ENTRY_ROOTS, *ROOTS])
    assert not dead, f"reached by no root: {dead}"


def test_roots_are_needed():
    package, entries = _repo_sources()
    keys = set(definitions(package))
    gone = sorted(ROOTS.keys() - keys)
    assert not gone, f"ROOTS entries that no longer exist: {gone}"
    redundant = sorted(
        k for k in ROOTS
        if k in reachable(package, entries,
                          [*ENTRY_ROOTS, *(r for r in ROOTS if r != k)]))
    assert not redundant, f"ROOTS entries reached without them: {redundant}"


def test_guard_flags_a_chain_that_only_tests_reach():
    # ``a`` is named only by ``b``; ``b`` is named by nothing but the
    # package's own re-export. A "named somewhere in the package" rule
    # passes both.
    package = {
        "__init__.py": "from .m import b\n__all__ = ['b']\n",
        "m.py": ("import json as _json\n"
                 "def a():\n    return 1\n"
                 "def b():\n    return a()\n"
                 "def main():\n    from .n import helper as h\n"
                 "    return h() + _json.loads('1')\n"
                 "class Actor:\n    def ping(self):\n        return 1\n"
                 "    def pong(self):\n        return 2\n"
                 "    def __call__(self):\n        return 3\n"
                 "HANDLE = Actor\n"),
        "n.py": "def helper():\n    return 1\n",
    }
    entries = ["from pkg.m import main\nmain()\ncall(x, 'ping')\n"]
    named = set()
    _collect([ast.parse(s) for s in package.values()], named, set())
    assert {"a", "b"} <= named
    assert unreached(package, entries, []) == [
        "m.py::a", "m.py::b", "m.py::Actor.pong"]
    assert unreached(package, entries, ["m.py::b"]) == ["m.py::Actor.pong"]


def test_package_imports_nothing_from_tests():
    # test helpers are imported by bare module name (``_flac_reader``)
    test_modules = {"tests", *(p.stem for p in (ROOT / "tests").glob("*.py"))}
    bad = []
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module or ""]
            else:
                continue
            bad.extend(f"{path.relative_to(ROOT)}:{node.lineno} {m}"
                       for m in mods if m.split(".")[0] in test_modules)
    assert not bad, f"package modules import from tests/: {bad}"
